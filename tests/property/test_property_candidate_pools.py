"""One candidate computation per site per query, against the decode path.

A site computes a query's candidate pools once (``repro.store.kernel.
query_pools``): stage 1 sets the vector bits straight from their internal ids,
partial evaluation refuses internal bindings outside them, and the complete
local-match search reuses them.  The path they replaced survives as the
oracle: ``tests/core/reference_candidates.py`` (decoded ``Node`` sets, hashed
one by one) and the partial evaluator with every internal vertex allowed.  On
``test_property_joins``' adversarial partitionings (uniform, every edge
crossing, a single site, empty fragments) and on LUBM LQ1/3/6/7, site by site:

* the stage-1 vector bits and the ``internal_candidates`` count equal the
  oracle's, at a narrow width (colliding positions) and the default one;
* the LPM *sequence* equals the unpruned evaluator's and the LPM set the
  object-level reference evaluator's; only the filtered-branch count may fall;
* the local matches, ``search_steps`` and ``kernel_intersections`` of the
  search that reuses the pools equal those of the search that computed them;

and the engine's answers equal ``centralized`` with the filtered-branch
count exercised.  The memo dies with its query, never outlives an update, and
concurrent queries sharing it answer and count as a lone query does.
"""

import gc
import sys
import threading
import weakref
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
from reference_candidates import reference_internal_candidates, reference_site_vectors
from reference_partial_eval import PartialEvaluator as ReferenceEvaluator
from test_property_joins import empty_fragments, every_edge_crossing, partitionings, single_site, uniform

import repro
from repro.core import EngineConfig, GStoreDEngine, partial_eval
from repro.core.candidate_exchange import build_site_vectors, union_site_vectors
from repro.core.partial_eval import PartialEvaluator
from repro.datasets import lubm, random_connected_query, random_graph
from repro.distributed import build_cluster
from repro.partition import HashPartitioner, build_partitioned_graph
from repro.sparql import QueryGraph
from repro.store import encoded_view, evaluate_centralized
from repro.store import fragment_index as fragment_index_module
from repro.store.fragment_index import fragment_index
from repro.store.kernel import QueryPools, cached_pools

BITS = 4096
LUBM_QUERIES = ("LQ1", "LQ3", "LQ6", "LQ7")

seeds = st.integers(min_value=0, max_value=5_000)
query_sizes = st.integers(min_value=2, max_value=4)
constant_probabilities = st.sampled_from([0.0, 0.25])


@contextmanager
def internal_pruning_off():
    """The partial evaluator before it read the pools: every internal vertex allowed."""
    original = partial_eval.internal_pools
    partial_eval.internal_pools = lambda fragment, graph, query: {
        vertex: fragment_index(fragment, graph).internal for vertex in query.vertices
    }
    try:
        yield
    finally:
        partial_eval.internal_pools = original


def local_search(site, query):
    """The site's complete local matches and what the search cost."""
    matches = list(site.local_evaluate(query))
    matcher = site.store.matcher
    return matches, matcher.search_steps, matcher.kernel_intersections


def assert_cluster_agrees(cluster, query):
    """Every per-site equality of the module docstring, for one query."""
    # Before stage 1 there are no pools: this search computes its own.
    computed = {site.site_id: local_search(site, query) for site in cluster}
    query_graph = QueryGraph(query.bgp)
    vectors = []
    for site in cluster:
        ids = site.internal_candidates(query_graph)
        oracle = reference_internal_candidates(site, query_graph)
        decode = ids.encoded.dictionary.decode_ids
        assert {vertex: decode(found) for vertex, found in ids.items()} == oracle
        assert sum(map(len, ids.values())) == sum(map(len, oracle.values()))
        assert build_site_vectors(ids, 64) == reference_site_vectors(oracle, 64)
        vectors.append(build_site_vectors(ids, BITS))
        assert vectors[-1] == reference_site_vectors(oracle, BITS)
    candidate_filter = union_site_vectors(vectors, BITS)
    for site in cluster:
        assert cached_pools(site.graph, query.bgp) is not None
        assert local_search(site, query) == computed[site.site_id]
        evaluator = PartialEvaluator(site.fragment, graph=site.graph)
        pruned = evaluator.evaluate(query_graph, candidate_filter=candidate_filter)
        with internal_pruning_off():
            unpruned = evaluator.evaluate(query_graph, candidate_filter=candidate_filter)
        assert list(pruned.local_partial_matches) == list(unpruned.local_partial_matches)
        assert pruned.branches_pruned_by_filter <= unpruned.branches_pruned_by_filter
        reference = ReferenceEvaluator(site.fragment, graph=site.graph).evaluate(
            query_graph, candidate_filter=candidate_filter
        )
        assert set(pruned.local_partial_matches) == set(reference.local_partial_matches)


def counters(result):
    """Everything a run reports but timings, the backend's name and plan-cache state."""
    row = result.statistics.as_row()
    kept = {key: value for key, value in row.items() if not ("time" in key or "plan_" in key or "workers" in key)}
    kept.pop("executor", None)
    return kept, dict(result.statistics.work), result.results.to_table()


def run_engine(cluster, query):
    """The engine's counters for one run without the star shortcut."""
    config = EngineConfig.full().with_options(star_shortcut=False)
    cluster.reset_network()
    return counters(GStoreDEngine(cluster, config).execute(query))


def random_setting(seed, partitioning, query_edges, constant_probability):
    graph = random_graph(seed, num_vertices=14, num_edges=30, num_predicates=3)
    query = random_connected_query(graph, seed + 17, num_edges=query_edges, constant_probability=constant_probability)
    assignment, num_fragments = partitioning(graph, seed)
    return graph, query, build_cluster(build_partitioned_graph(graph, assignment, num_fragments=num_fragments))


class TestStageOneAndTheSearchesAgreeWithTheDecodePath:
    @given(seeds, partitionings, query_sizes, constant_probabilities)
    @settings(max_examples=40, deadline=None)
    def test_adversarial_partitionings(self, seed, partitioning, query_edges, constant_probability):
        graph, query, cluster = random_setting(seed, partitioning, query_edges, constant_probability)
        assert_cluster_agrees(cluster, query)
        config = EngineConfig.full().with_options(star_shortcut=False)
        expected = evaluate_centralized(graph, query).project(query.effective_projection, distinct=True)
        engine = GStoreDEngine(cluster, config)
        assert engine.execute(query).results.same_solutions(expected)

    @pytest.mark.parametrize("name", LUBM_QUERIES)
    def test_lubm(self, lubm_graph, name):
        query = lubm.queries()[name]
        assert_cluster_agrees(build_cluster(HashPartitioner(4).partition(lubm_graph)), query)


class TestEngineAnswers:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_adversarial_partitionings(self, seed):
        for partitioning in (uniform(3), every_edge_crossing, single_site, empty_fragments):
            graph, query, cluster = random_setting(seed, partitioning, 3, 0.25)
            _, _, rows = run_engine(cluster, query)
            expected = evaluate_centralized(graph, query).project(query.effective_projection, distinct=True)
            assert sorted(map(sorted, (row.items() for row in rows))) == sorted(
                map(sorted, (row.items() for row in expected.to_table()))
            )

    def test_lubm(self, lubm_graph):
        cluster = build_cluster(HashPartitioner(4).partition(lubm_graph))
        filtered = 0
        for name in LUBM_QUERIES:
            row, _, _ = run_engine(cluster, lubm.queries()[name])
            filtered += row["partial_evaluation_filtered_extended_candidates"]
        assert filtered > 0  # the filter is exercised, not vacuous


def memo_of(site):
    return encoded_view(site.graph).memo.get(QueryPools, {})


class TestTheMemoLivesAsLongAsItsQuery:
    def test_no_pools_survive_a_query(self, monkeypatch):
        entries = []
        compute = fragment_index_module.query_pools

        def recording(*arguments):
            entry = compute(*arguments)
            entries.append(weakref.ref(entry))
            return entry

        monkeypatch.setattr(fragment_index_module, "query_pools", recording)
        with repro.open(dataset="lubm", scale=1, sites=3, executor="serial") as session:
            for name in LUBM_QUERIES:
                session.query(name)
            gc.collect()
            assert entries, "stage 1 never asked for the pools"
            assert all(entry() is None for entry in entries)
            assert all(not memo_of(site) for site in session.cluster)

    def test_a_live_query_graph_keeps_its_pools_until_the_graph_changes(self):
        with repro.open(dataset="lubm", scale=1, sites=3, executor="serial") as session:
            query = session.queries["LQ6"]
            query_graph = QueryGraph(query.bgp)
            site = session.cluster.site(0)
            first = site.internal_candidates(query_graph)
            assert site.internal_candidates(query_graph) is first
            entry = weakref.ref(cached_pools(site.graph, query.bgp))
            session.update(remove=[next(iter(site.fragment.internal_edges))])
            assert cached_pools(site.graph, query.bgp) is None
            again = site.internal_candidates(query_graph)
            assert again is not first
            decode = again.encoded.dictionary.decode_ids
            assert {v: decode(ids) for v, ids in again.items()} == reference_internal_candidates(site, query_graph)
            del query_graph, first, again
            gc.collect()
            assert entry() is None and not memo_of(site)


def assert_answers_fresh(session, names):
    """Each answer equals a cluster built from scratch and the centralized one."""
    partitioned = session.partitioned
    fresh = build_cluster(
        build_partitioned_graph(session.graph.copy(), partitioned.assignment, num_fragments=partitioned.num_fragments)
    )
    engine = GStoreDEngine(fresh)
    for name in names:
        query = session.queries[name]
        answer = session.query(name).results
        assert answer.to_table() == engine.execute(query).results.to_table()
        assert answer.same_solutions(evaluate_centralized(session.graph, query))


def test_query_remove_query_add_query_on_lubm3():
    with repro.open(dataset="lubm", scale=3, sites=4, executor="serial") as session:
        by_predicate = {}
        for triple in sorted(session.graph, key=lambda triple: triple.n3()):
            by_predicate.setdefault(triple.predicate.local_name, triple)
        batch = [by_predicate[name] for name in ("advisor", "takesCourse", "teacherOf", "memberOf")]
        assert_answers_fresh(session, LUBM_QUERIES)
        session.update(remove=batch)
        assert_answers_fresh(session, LUBM_QUERIES)
        session.update(add=batch)
        assert_answers_fresh(session, LUBM_QUERIES)


def test_concurrent_queries_share_the_memo_safely():
    """Four threads querying one session, switching often: every run counts as alone."""
    with repro.open(dataset="lubm", scale=1, sites=3, executor="serial") as session:
        expected = {name: counters(session.query(name)) for name in LUBM_QUERIES}
        mismatches = []

        def worker(offset):
            try:
                for _ in range(3):
                    for name in LUBM_QUERIES[offset:] + LUBM_QUERIES[:offset]:
                        if counters(session.query(name)) != expected[name]:
                            mismatches.append(name)
            except Exception as error:  # reported below, on the main thread
                mismatches.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
