"""One candidate computation per site per query, against the decode path.

A site computes each variable's candidate pool once per signature
(``repro.store.kernel.query_pools``), so a query that recurs reads them from
the cache: stage 1 sets the vector bits straight from their internal ids,
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
  where the filter proves the answer empty, no site finds or explores
  anything, and the reference's LPMs from every fragment assemble into no
  complete match;
* the local matches, ``search_steps`` and ``kernel_intersections`` of the
  search that reuses the pools equal those of the search that computed them;

and the engine's answers equal ``centralized`` with the filtered-branch
count exercised.  The signature cache holds no query graph, so a query's
graph dies with it; an update window drops exactly the entries that read a
row or key list it changed (or any label); every pool it holds equals a
cold ``compute_pools`` after any update window; rotating constants keep it
within its bound; and
concurrent queries sharing it answer and count as a lone query does.
"""

import gc
import random
import sys
import threading
import weakref
from collections import Counter
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
from repro.core.assembly import assemble_matches
from repro.core.candidate_exchange import build_site_vectors, union_site_vectors
from repro.core.partial_eval import PartialEvaluator
from repro.datasets import lubm, random_connected_query, random_graph
from repro.distributed import build_cluster
from repro.partition import HashPartitioner, build_partitioned_graph
from repro.rdf import IRI, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph
from repro.store import evaluate_centralized
from repro.store import fragment_index as fragment_index_module
from repro.store import kernel
from repro.store.encoding import PREDICATE_ANY, SIGNATURE_POOLS
from repro.store.kernel import _VARIABLE, POOL_CACHE_LIMIT, ArrayRunner, compile_query, query_pools

BITS = 4096


def pool_signatures(encoded, query_graph):
    """Each vertex's compiled pool signature, where its pool has one."""
    compiled = compile_query(query_graph, encoded.dictionary)
    return {vertex: signature for vertex, signature in zip(query_graph.vertices, compiled.signatures) if signature}
LUBM_QUERIES = ("LQ1", "LQ3", "LQ6", "LQ7")

seeds = st.integers(min_value=0, max_value=5_000)
query_sizes = st.integers(min_value=2, max_value=4)
constant_probabilities = st.sampled_from([0.0, 0.25])


@contextmanager
def internal_pruning_off():
    """The partial evaluator before it read the pools: every internal vertex allowed."""
    original = partial_eval.internal_pools
    partial_eval.internal_pools = lambda index, query: {vertex: index.internal for vertex in query.vertices}
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
    proven_empty = candidate_filter.proves_empty()
    references = []
    for site in cluster:
        assert set(pool_signatures(site.encoded, query_graph).values()) <= set(cache_of(site))
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
        references += reference.local_partial_matches
        if proven_empty:
            assert len(pruned.local_partial_matches) == pruned.seeds_explored == 0
        else:
            assert set(pruned.local_partial_matches) == set(reference.local_partial_matches)
    if proven_empty:
        assert assemble_matches(query_graph, references).matches == []
    return proven_empty


def counters(result):
    """Everything a run reports but timings, the backend's name and plan-cache state."""
    row = result.statistics.as_row()
    kept = {key: value for key, value in row.items() if not ("time" in key or "plan_" in key or "workers" in key)}
    kept.pop("executor", None)
    return kept, dict(result.statistics.work), result.results.to_table()


def run_engine(cluster, query):
    """The engine's counters for one run without the star shortcut."""
    config = EngineConfig.full().with_options(star_shortcut=False)
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
        proven_empty = assert_cluster_agrees(build_cluster(HashPartitioner(4).partition(lubm_graph)), query)
        assert proven_empty == (name == "LQ3")


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


def cache_of(site):
    return site.encoded.memo.get(SIGNATURE_POOLS, {})


def assert_cache_is_cold(site, queries):
    """Every pool ``site`` caches for a variable of ``queries`` equals a cold
    ``compute_pools``, its charge and internal restriction too."""
    cache = cache_of(site)
    for query_graph in queries:
        for vertex, signature in pool_signatures(site.encoded, query_graph).items():
            entry = cache.get(signature)
            if entry is None:
                continue
            runner = ArrayRunner(site.encoded)
            pool = runner.vertex_pool(signature, None)
            assert pool == ArrayRunner(site.encoded).compute_pools(query_graph)[vertex]
            assert entry.pool == pool
            assert entry.intersections == runner.intersections
            assert entry.internal is None or entry.internal == site.graph.internal.intersection(pool)


def what_it_reads(encoded, signature):
    """The rows and key lists a pool of ``signature`` reads over ``encoded``, as values:
    a constant's row, a variable end's key list, any label's every pair."""
    read = []
    for end, code, other in signature:
        out_column, in_column = encoded.out_column(code), encoded.in_column(code)
        if code == PREDICATE_ANY:
            read.append(list(out_column.pairs()))
        elif other >= 0:
            read.append((in_column if end == 0 else out_column).row(other))
        elif other == _VARIABLE:
            read.append(list((out_column if end == 0 else in_column).keys))
    return read


class TestTheSignatureCache:
    def test_no_query_graph_survives_a_query(self, monkeypatch):
        graphs = []
        compute = fragment_index_module.query_pools

        def recording(encoded, query_graph):
            graphs.append(weakref.ref(query_graph))
            return compute(encoded, query_graph)

        monkeypatch.setattr(fragment_index_module, "query_pools", recording)
        enabled = gc.isenabled()
        gc.disable()
        try:
            with repro.open(dataset="lubm", scale=1, sites=3, executor="serial") as session:
                for name in LUBM_QUERIES:
                    session.query(name)
                assert graphs, "stage 1 never asked for the pools"
                assert all(graph() is None for graph in graphs)
                assert all(cache_of(site) for site in session.cluster)
        finally:
            if enabled:
                gc.enable()

    def test_an_update_drops_exactly_the_entries_that_read_what_it_changed(self):
        with repro.open(dataset="lubm", scale=1, sites=3, executor="serial") as session:
            query = session.queries["LQ6"]
            query_graph = QueryGraph(query.bgp)
            site = session.cluster.site(0)
            first = site.internal_candidates(query_graph)
            again = site.internal_candidates(QueryGraph(query.bgp))
            assert all(again[vertex] is first[vertex] for vertex in query_graph.variables)
            for name in ("LQ1", "LQ2", "LQ3", "LQ4", "LQ5", "LQ7"):
                session.query(name)
                session.query(name, engine="centralized")
            # Probes of every kind of signature entry: any label, and per label
            # of site 0 a loop and both ends of a constant the graph lacks.
            dictionary = session.cluster.dictionary
            x, p, y, nowhere = Variable("x"), Variable("p"), Variable("y"), IRI("http://example.org/nowhere")
            any_label = QueryGraph(BasicGraphPattern([TriplePattern(x, p, y)]))
            probes = [any_label]
            for label in map(dictionary.term_of, site.encoded.predicate_ids()):
                probes += [
                    QueryGraph(BasicGraphPattern([pattern]))
                    for pattern in (TriplePattern(x, label, x), TriplePattern(x, label, nowhere), TriplePattern(nowhere, label, x))
                ]
            encodings = [site.encoded for site in session.cluster] + [session.cluster.encoded]
            for encoded in encodings:
                for probe in probes:
                    query_pools(encoded, probe)
            before = [
                {signature: (entry, what_it_reads(encoded, signature)) for signature, entry in cache.items()}
                for encoded, cache in ((encoded, encoded.memo[SIGNATURE_POOLS]) for encoded in encodings)
            ]
            internal = sorted(site.fragment.decoded().internal_edges, key=lambda triple: triple.n3())
            # The added triple gives its label a new object, not a new subject.
            subject, label, _ = internal[0].as_tuple()
            objects = site.encoded.in_column(dictionary.id_of(label)).keys
            target = next(vertex for vertex in sorted(site.graph.internal) if vertex not in objects)
            session.update(remove=internal[1:4], add=[Triple(subject, label, dictionary.term_of(target))])
            kept = dropped = 0
            for encoded, entries in zip(encodings, before):
                cache = encoded.memo[SIGNATURE_POOLS]
                for signature, (entry, read) in entries.items():
                    unchanged = what_it_reads(encoded, signature) == read
                    assert (cache.get(signature) is entry) == unchanged, signature
                    kept += unchanged
                    dropped += not unchanged
            assert kept and dropped  # both sides exercised
            for encoded in (site.encoded, session.cluster.encoded):  # patched: any label is stale
                assert not set(pool_signatures(encoded, any_label).values()) & set(encoded.memo[SIGNATURE_POOLS])
            again = site.internal_candidates(query_graph)
            decode = again.encoded.dictionary.decode_ids
            assert {v: decode(ids) for v, ids in again.items()} == reference_internal_candidates(site, query_graph)

    def test_a_window_that_changes_the_internal_set_keeps_exact_restrictions(self):
        with repro.open(dataset="lubm", scale=1, sites=3, executor="serial") as session:
            site = session.cluster.site(0)
            queries = [QueryGraph(session.queries[name].bgp) for name in LUBM_QUERIES]
            for query_graph in queries:
                site.internal_candidates(query_graph)
            restricted = {signature: entry.internal for signature, entry in cache_of(site).items()}
            # An internal vertex with one edge here leaves the internal set with it.
            edges = sorted(site.fragment.decoded().internal_edges, key=lambda triple: triple.n3())
            ends = Counter(vertex for triple in edges for vertex in (triple.subject, triple.object))
            edge = next(triple for triple in edges if ends[triple.object] == 1)
            leaf = session.cluster.dictionary.id_of(edge.object)
            assert leaf in site.graph.internal
            session.update(remove=[edge])
            assert leaf not in site.graph.internal
            kept = [signature for signature in restricted if signature in cache_of(site)]
            assert kept and len(kept) < len(restricted)
            # The kept restrictions are the very sets computed before, and exact.
            assert all(cache_of(site)[signature].internal is restricted[signature] for signature in kept)
            assert_cache_is_cold(site, queries)

    @given(seeds, st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_random_update_windows_leave_every_cached_pool_cold(self, seed, windows):
        graph, query, cluster = random_setting(seed, uniform(3), 3, 0.25)
        queries = [QueryGraph(query.bgp)]
        queries += [QueryGraph(random_connected_query(graph, seed + k, num_edges=2).bgp) for k in (1, 2)]
        vertices = sorted(graph.vertices, key=lambda vertex: vertex.n3())
        predicates = sorted(graph.predicates, key=lambda predicate: predicate.n3())
        for adding, window_seed in windows:
            for query_graph in queries:
                for site in cluster:
                    site.internal_candidates(query_graph)
            rng = random.Random(window_seed)
            if adding:
                cluster.apply(add=[Triple(rng.choice(vertices), rng.choice(predicates), rng.choice(vertices)) for _ in range(3)])
            else:
                present = sorted(cluster.graph, key=lambda triple: triple.n3())
                cluster.apply(remove=rng.sample(present, min(3, len(present))))
            for site in cluster:
                assert_cache_is_cold(site, queries)

    def test_rotating_constants_keep_the_cache_within_its_bound(self):
        with repro.open(dataset="lubm", scale=1, sites=3, executor="serial") as session:
            site = session.cluster.site(0)
            dictionary = session.cluster.dictionary
            takes = IRI("http://example.org/univ-bench#takesCourse")
            labels = [dictionary.term_of(code) for code in site.encoded.predicate_ids()]
            terms = list(map(dictionary.term_of, range(len(dictionary))))
            x, y = Variable("x"), Variable("y")
            sizes = []
            for position in range(POOL_CACHE_LIMIT + 200):
                constant, label = terms[position % len(terms)], labels[position // len(terms) % len(labels)]
                query_graph = QueryGraph(BasicGraphPattern([TriplePattern(x, takes, y), TriplePattern(x, label, constant)]))
                site.internal_candidates(query_graph)
                sizes.append(len(cache_of(site)))
                if position % 97 == 0:
                    assert_cache_is_cold(site, [query_graph])
            assert max(sizes) <= POOL_CACHE_LIMIT
            assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))  # it was emptied


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


@pytest.mark.parametrize("limit", [POOL_CACHE_LIMIT, 2], ids=["bound", "emptied-often"])
def test_concurrent_queries_share_the_cache_safely(monkeypatch, limit):
    """Four threads querying one session, switching often: every run counts as
    alone, also when the cache is emptied under them all the time."""
    monkeypatch.setattr(kernel, "POOL_CACHE_LIMIT", limit)
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
