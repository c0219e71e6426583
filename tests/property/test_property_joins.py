"""Property-based equivalence: the coordinator joins vs the nested loop.

``repro.core.joins`` replaced the ``partials x group`` scans of Algorithm 2
(LEC feature pruning) and Algorithm 3 (LEC-based assembly) with a join that
finds each complete combination once, reading the features and LPMs as
their LECSigns and crossing pairs.  The scans survive verbatim in
``tests/core/reference_joins.py``; this suite asserts, on random graphs and
queries and on adversarial partitionings, that

* the pruner keeps exactly the features the nested loop kept, over as many
  groups, and finds each member set the nested loop emits exactly once —
  ``SignGroups.join`` never emits one member set twice, for LPM and for
  feature operands;
* crossing pairs decide LPM joins (Theorem 2): for every ordered pair of
  LPMs with disjoint LECSigns, the check-and-fill over their crossing pairs
  agrees with Definition 9 on their decoded views;
* ``LECAssembler`` returns the nested loop's matches sorted by their
  vertex-slot ids, with no more join attempts or successful joins;
* both agree with ``BasicAssembler`` and with the centralized answers, alone
  and under the engine;
* survivor positions keep exactly the LPMs the old feature echo kept, and
  every message kind — ``candidate_vectors``, ``global_candidate_filter``,
  ``lec_features``, ``surviving_features`` and ``local_partial_matches`` — is
  charged what an independent recount of its wire form gives, site by site
  and on the engine's bus.

The partitionings: uniformly random ones; every vertex in its own fragment
(every edge crossing); a single site (no crossing edge at all); fragments
that own nothing; and two fragments, where a path keeps re-entering the
fragment it left, so one fragment contributes several disconnected internal
regions — several LPMs — to one crossing match.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
from reference_joins import LECAssembler as ReferenceAssembler
from reference_joins import LECFeaturePruner as ReferencePruner
from reference_candidates import hashed_positions, recount_vector, reference_internal_candidates
from reference_joins import echo_filter, echo_survivors, feature_keys, recount_feature_message, recount_lpm_message
from reference_joins import edge_ends, lpms_joinable, pairs_joinable

from repro.core import (
    CandidateBitVector,
    EngineConfig,
    GlobalCandidateFilter,
    GStoreDEngine,
    LECFeaturePruner,
    compute_lec_features,
    prune_features,
)
from repro.core.assembly import BasicAssembler, LECAssembler
from repro.core.joins import SignGroups, fill
from repro.core.partial_eval import evaluate_fragment
from repro.core.site_tasks import run_lec_filter
from repro.distributed.network import estimate_size
from repro.datasets import random_assignment, random_connected_query, random_graph
from repro.distributed import build_cluster
from repro.partition import build_partitioned_graph
from repro.rdf import Namespace, RDFGraph, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph, SelectQuery
from repro.store import evaluate_centralized

seeds = st.integers(min_value=0, max_value=5_000)
query_sizes = st.integers(min_value=2, max_value=4)
constant_probabilities = st.sampled_from([0.0, 0.25])


def uniform(num_fragments):
    def assign(graph, seed):
        return random_assignment(graph, seed + 5, num_fragments), num_fragments

    return assign


def every_edge_crossing(graph, seed):
    vertices = sorted(graph.vertices, key=lambda vertex: vertex.n3())
    return {vertex: position for position, vertex in enumerate(vertices)}, len(vertices)


def single_site(graph, seed):
    return {vertex: 0 for vertex in graph.vertices}, 1


def empty_fragments(graph, seed):
    # Fragments 0, 2 and 4 of five own nothing.
    assignment = random_assignment(graph, seed + 5, 2)
    return {vertex: 1 + 2 * fragment for vertex, fragment in assignment.items()}, 5


partitionings = st.sampled_from(
    [uniform(2), uniform(3), uniform(4), every_edge_crossing, single_site, empty_fragments]
)


def coordinator_inputs(graph, query, assignment, num_fragments):
    """The LEC classes and LPMs the coordinator would receive, site by site."""
    partitioned = build_partitioned_graph(graph, assignment, num_fragments=num_fragments)
    query_graph = QueryGraph(query.bgp)
    classes = {}
    for site in build_cluster(partitioned):
        lpms = evaluate_fragment(site.fragment, query_graph, graph=site.graph).local_partial_matches
        for feature, members in compute_lec_features(lpms).items():
            classes.setdefault(feature, []).extend(members)
    return partitioned, query_graph, classes


def vertex_slots(match):
    """The ids a complete match maps the query vertices to, in vertex order."""
    base = match.query.num_edges
    return tuple(held for slot, held in match.items if slot >= base)


def assert_joins_agree(query_graph, classes):
    """The production joins == the nested loop, on all LPMs and on the pruning survivors."""
    features = list(classes)
    pruned = LECFeaturePruner(query_graph).prune(features)
    oracle = ReferencePruner(query_graph)
    reference = oracle.prune(features)
    assert pruned.surviving == reference.surviving
    assert pruned.complete_combinations == len(set(oracle.emitted))
    assert (pruned.total_features, pruned.groups) == (reference.total_features, reference.groups)
    assert pruned.join_attempts <= reference.join_attempts

    all_lpms = [lpm for members in classes.values() for lpm in members]
    surviving = [lpm for feature in features if pruned.survives(feature) for lpm in classes[feature]]
    assembled = None
    for lpms in (all_lpms, surviving):
        assembled = LECAssembler(query_graph).assemble(lpms)
        expected = ReferenceAssembler(query_graph).assemble(lpms)
        assert assembled.matches == sorted(expected.matches, key=vertex_slots)  # a sequence
        assert assembled.successful_joins <= expected.successful_joins
        assert assembled.groups == expected.groups
        assert assembled.join_attempts <= expected.join_attempts
        basic = BasicAssembler(query_graph).assemble(lpms)
        assert {m.assignment for m in basic.matches} == {m.assignment for m in assembled.matches}
    return assembled


def emitted_member_sets(query_graph, operands):
    """Each member set ``SignGroups.join`` emits over ``(LECSign, crossing pairs)`` operands, in emission order."""
    emitted = []
    SignGroups(query_graph, operands).join(emitted.append)
    return emitted


def assert_theorem_2(query_graph, lpms):
    """Theorem 2 at the LPM level: crossing pairs decide joinability.

    For every ordered pair of LPMs with disjoint LECSigns, the check-and-fill
    over their crossing pairs alone agrees with Definition 9 on their full
    decoded views; an LPM's own pairs never clash.
    """
    ends, empty = edge_ends(query_graph), [None] * (query_graph.num_edges + query_graph.num_vertices)
    assert all(fill(empty, lpm.crossing, ends) is not None for lpm in lpms)
    operands = [(lpm.internal_mask, lpm.crossing) for lpm in lpms]
    for left, left_operand in zip(lpms, operands):
        for right, right_operand in zip(lpms, operands):
            if not left.internal_mask & right.internal_mask:
                assert pairs_joinable(left_operand, right_operand, query_graph) == lpms_joinable(left, right)


def assert_centralized(graph, query, partitioned, crossing):
    """Crossing matches + fragment-local matches are the centralized answers."""
    variables = query.effective_projection
    expected = evaluate_centralized(graph, query).project(variables, distinct=True).as_set()
    found = {binding.project(variables) for binding in crossing.bindings()}
    assert found <= expected
    for fragment in partitioned:
        local = evaluate_centralized(RDFGraph(fragment.all_edges), query)
        found |= local.project(variables, distinct=True).as_set()
    assert found == expected


class TestIndexedJoinsEqualTheNestedLoop:
    @given(seeds, partitionings, query_sizes, constant_probabilities)
    @settings(max_examples=40, deadline=None)
    def test_random_graphs_and_adversarial_partitionings(
        self, seed, partitioning, query_edges, constant_probability
    ):
        graph = random_graph(seed, num_vertices=14, num_edges=30, num_predicates=3)
        query = random_connected_query(
            graph, seed + 17, num_edges=query_edges, constant_probability=constant_probability
        )
        assignment, num_fragments = partitioning(graph, seed)
        partitioned, query_graph, classes = coordinator_inputs(graph, query, assignment, num_fragments)
        crossing = assert_joins_agree(query_graph, classes)
        assert_centralized(graph, query, partitioned, crossing)

    @given(seeds, partitionings, query_sizes, constant_probabilities)
    @settings(max_examples=40, deadline=None)
    def test_no_member_set_is_emitted_twice(self, seed, partitioning, query_edges, constant_probability):
        graph = random_graph(seed, num_vertices=14, num_edges=30, num_predicates=3)
        query = random_connected_query(
            graph, seed + 17, num_edges=query_edges, constant_probability=constant_probability
        )
        _, query_graph, classes = coordinator_inputs(graph, query, *partitioning(graph, seed))
        lpms = [lpm for members in classes.values() for lpm in members]
        features = [(feature.lec_sign, feature.crossing) for feature in classes]
        for operands in (features, [(lpm.internal_mask, lpm.crossing) for lpm in lpms]):
            emitted = emitted_member_sets(query_graph, operands)
            assert all(len(set(members)) == len(members) for members in emitted)
            assert len({frozenset(members) for members in emitted}) == len(emitted)

    @given(seeds, partitionings, query_sizes, constant_probabilities)
    @settings(max_examples=40, deadline=None)
    def test_crossing_pairs_decide_lpm_joins(self, seed, partitioning, query_edges, constant_probability):
        graph = random_graph(seed, num_vertices=14, num_edges=30, num_predicates=3)
        query = random_connected_query(
            graph, seed + 17, num_edges=query_edges, constant_probability=constant_probability
        )
        _, query_graph, classes = coordinator_inputs(graph, query, *partitioning(graph, seed))
        assert_theorem_2(query_graph, [lpm for members in classes.values() for lpm in members])

    @given(seeds, partitionings, query_sizes)
    @settings(max_examples=10, deadline=None)
    def test_engine_answers_and_counters(self, seed, partitioning, query_edges):
        graph = random_graph(seed, num_vertices=14, num_edges=30, num_predicates=3)
        query = random_connected_query(graph, seed + 17, num_edges=query_edges, constant_probability=0.0)
        assignment, num_fragments = partitioning(graph, seed)
        partitioned, query_graph, classes = coordinator_inputs(graph, query, assignment, num_fragments)
        expected = evaluate_centralized(graph, query).project(query.effective_projection, distinct=True)
        config = EngineConfig.full().with_options(star_shortcut=False, use_candidate_exchange=False)
        result = GStoreDEngine(build_cluster(partitioned), config).execute(query)
        assert result.results.same_solutions(expected)
        statistics = result.statistics
        pruned = LECFeaturePruner(query_graph).prune(list(classes))
        assert statistics.counter("lec_pruning", "join_attempts") == pruned.join_attempts
        assert statistics.counter("lec_pruning", "complete_combinations") == pruned.complete_combinations
        assert statistics.counter("lec_pruning", "surviving_features") == len(pruned.surviving)


def site_classes(graph, query, assignment, num_fragments, candidate_filter=None):
    """Each site's LEC classes, as its ``lec_features`` task returns them."""
    partitioned = build_partitioned_graph(graph, assignment, num_fragments=num_fragments)
    query_graph = QueryGraph(query.bgp)
    classes_by_site = {
        site.site_id: compute_lec_features(
            evaluate_fragment(
                site.fragment, query_graph, graph=site.graph, candidate_filter=candidate_filter
            ).local_partial_matches
        )
        for site in build_cluster(partitioned)
    }
    return partitioned, query_graph, classes_by_site


def recount_vectors(cluster, query_graph):
    """Stage 1 from the decoded candidate sets: its bytes per message kind, and the filter it builds."""
    per_site = []
    for site in cluster:
        candidates = reference_internal_candidates(site, query_graph)
        per_site.append({v: hashed_positions(found) for v, found in candidates.items() if isinstance(v, Variable)})
    merged = {}
    for positions in per_site:
        for variable, found in positions.items():
            merged[variable] = merged.get(variable, set()) | found
    union = 4 + sum(recount_vector(found) for found in merged.values())
    sizes = {
        "candidate_vectors": sum(4 + sum(map(recount_vector, positions.values())) for positions in per_site),
        "global_candidate_filter": union * len(per_site),
    }
    vectors = {variable: CandidateBitVector(bits=sum(1 << p for p in found)) for variable, found in merged.items()}
    return sizes, GlobalCandidateFilter(vectors)


def recount_messages(query_graph, classes_by_site):
    """Bytes per message kind of the pruning and assembly stages, recounted.

    A site's survivor LPMs refer to the keys of its own ``lec_features``
    message instead of carrying their text again.
    """
    features_by_site = {site: list(classes) for site, classes in classes_by_site.items()}
    echoed = echo_survivors(query_graph, features_by_site)
    return {
        "lec_features": sum(recount_feature_message(classes) for classes in classes_by_site.values()),
        "surviving_features": sum(4 + 8 * len(survivors) for survivors in echoed.values()),
        "local_partial_matches": sum(
            recount_lpm_message(echo_filter(classes, echoed[site]), feature_keys(classes))
            for site, classes in classes_by_site.items()
        ),
    }


class TestTheWireForm:
    @given(seeds, partitionings, query_sizes, constant_probabilities)
    @settings(max_examples=40, deadline=None)
    def test_positions_keep_what_the_echo_kept(self, seed, partitioning, query_edges, constant_probability):
        graph = random_graph(seed, num_vertices=14, num_edges=30, num_predicates=3)
        query = random_connected_query(
            graph, seed + 17, num_edges=query_edges, constant_probability=constant_probability
        )
        _, query_graph, classes_by_site = site_classes(graph, query, *partitioning(graph, seed))
        features_by_site = {site: list(classes) for site, classes in classes_by_site.items()}
        _, positions = prune_features(query_graph, features_by_site)
        echoed = echo_survivors(query_graph, features_by_site)
        for site, classes in classes_by_site.items():
            kept = run_lec_filter(None, {"classes": classes, "surviving": positions[site]})
            assert kept == echo_filter(classes, echoed[site])
            assert estimate_size(features_by_site[site]) == recount_feature_message(classes)
            assert estimate_size(positions[site]) == 4 + 8 * len(echoed[site])
            assert estimate_size(kept) == recount_lpm_message(kept, feature_keys(classes))

    @pytest.mark.parametrize("candidate_exchange", [False, True])
    @given(seeds, partitionings, query_sizes)
    @settings(max_examples=10, deadline=None)
    def test_engine_ships_the_recounted_bytes_and_the_answers(
        self, candidate_exchange, seed, partitioning, query_edges
    ):
        graph = random_graph(seed, num_vertices=14, num_edges=30, num_predicates=3)
        query = random_connected_query(graph, seed + 17, num_edges=query_edges, constant_probability=0.0)
        assignment, num_fragments = partitioning(graph, seed)
        partitioned = build_partitioned_graph(graph, assignment, num_fragments=num_fragments)
        cluster = build_cluster(partitioned)
        recounted, candidate_filter = {}, None
        if candidate_exchange:
            recounted, candidate_filter = recount_vectors(cluster, QueryGraph(query.bgp))
        _, query_graph, classes_by_site = site_classes(graph, query, assignment, num_fragments, candidate_filter)
        recounted.update(recount_messages(query_graph, classes_by_site))
        config = EngineConfig.full().with_options(star_shortcut=False, use_candidate_exchange=candidate_exchange)
        with cluster.bus.ledger() as ledger:
            result = GStoreDEngine(cluster, config).execute(query)
        expected = evaluate_centralized(graph, query).project(query.effective_projection, distinct=True)
        assert result.results.same_solutions(expected)
        shipped = ledger.snapshot().bytes_by_kind
        assert set(shipped) == set(recounted) | {"local_matches"}
        for kind, size in recounted.items():
            assert shipped[kind] == size, kind


class TestTwoRegionsOfOneFragment:
    """A path that leaves fragment 0 and comes back: 0 -> 1 -> 1 -> 0.

    Fragment 0 overlaps the one crossing match in two disconnected internal
    regions, so it contributes two LPMs (two features) to one combination —
    the case ``fragment_id`` equality must *not* rule out inside the DFS.
    """

    def build(self):
        ns = Namespace("http://example.org/")
        a, b, c, d = (ns.term(name) for name in "abcd")
        p, q, r = (ns.term(name) for name in "pqr")
        graph = RDFGraph([Triple(a, p, b), Triple(b, q, c), Triple(c, r, d)])
        x, y, z, w = (Variable(name) for name in "xyzw")
        bgp = BasicGraphPattern([TriplePattern(x, p, y), TriplePattern(y, q, z), TriplePattern(z, r, w)])
        return graph, SelectQuery(bgp, (x, y, z, w)), {a: 0, b: 1, c: 1, d: 0}

    def test_same_fragment_features_join_into_one_match(self):
        graph, query, assignment = self.build()
        partitioned, query_graph, classes = coordinator_inputs(graph, query, assignment, 2)
        assert sorted(feature.fragment_id for feature in classes) == [0, 0, 1]
        crossing = assert_joins_agree(query_graph, classes)
        assert_centralized(graph, query, partitioned, crossing)
        assert_theorem_2(query_graph, [lpm for members in classes.values() for lpm in members])
        (match,) = crossing.matches
        assert match.fragments == frozenset({0, 1})
        pruned = LECFeaturePruner(query_graph).prune(list(classes))
        assert pruned.surviving == set(classes)
