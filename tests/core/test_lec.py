"""Unit tests for LEC features, joinability and grouping."""

import pytest

from reference_joins import crossing_features_joinable as features_joinable
from reference_joins import group_features_by_sign, lec_feature

from repro.core import EngineConfig, GStoreDEngine, LECFeature, compute_lec_features, lec_feature_of
from repro.core.partial_eval import evaluate_fragment
from repro.core.partial_match import LPMList
from repro.distributed import build_cluster
from repro.distributed.network import estimate_size
from repro.partition import build_partitioned_graph
from repro.rdf import Namespace, RDFGraph, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph, SelectQuery

EX = Namespace("http://example.org/")
A, B, C, D = EX.term("a"), EX.term("b"), EX.term("c"), EX.term("d")
P, Q = EX.term("p"), EX.term("q")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


@pytest.fixture()
def path_setting():
    graph = RDFGraph([Triple(A, P, B), Triple(B, Q, C)])
    partitioned = build_partitioned_graph(graph, {A: 0, B: 0, C: 1}, num_fragments=2)
    query = QueryGraph(BasicGraphPattern([TriplePattern(X, P, Y), TriplePattern(Y, Q, Z)]))
    cluster = build_cluster(partitioned)
    lpms = {
        fid: evaluate_fragment(partitioned.fragment(fid), query, graph=cluster.site(fid).graph).local_partial_matches
        for fid in (0, 1)
    }
    return partitioned, query, lpms


class TestLECFeature:
    def test_feature_of_lpm_matches_definition8(self, path_setting):
        partitioned, query, lpms = path_setting
        feature = lec_feature_of(lpms[0][0])
        assert feature.fragment_id == 0
        assert feature.crossing_edges() == {Triple(B, Q, C)}
        assert feature.query_edges() == {1}
        # x and y are internal in fragment 0.
        assert feature.lec_sign == (1 << query.vertex_index(X)) | (1 << query.vertex_index(Y))

    def test_sign_bits_rendering(self, path_setting):
        partitioned, query, lpms = path_setting
        feature = lec_feature_of(lpms[1][0])
        assert feature.sign_bits(query.num_vertices) == "001"

    def test_shipment_size_scales_with_crossing_edges(self):
        small = lec_feature(0, [(0, Triple(A, P, B))], 0b1)
        large = lec_feature(0, [(0, Triple(A, P, B)), (1, Triple(B, Q, C))], 0b1)
        assert 0 < small.shipment_size() < large.shipment_size()

    def test_a_key_is_charged_to_the_first_feature_that_uses_it(self, path_setting):
        _, _, lpms = path_setting
        first, second = compute_lec_features(lpms[0] + lpms[1])
        assert first.crossing == second.crossing
        keys = len(B.n3()) + len(Q.n3()) + len(C.n3())
        assert first.shipment_size() == 12 + 16 + keys == lec_feature_of(lpms[1][0]).shipment_size()
        assert second.shipment_size() == 12 + 16

    def test_features_are_hashable_and_deduplicated(self, path_setting):
        _, _, lpms = path_setting
        assert len({lec_feature_of(lpm) for lpm in lpms[0]}) == 1


class TestAlgorithm1:
    def test_compute_lec_features_groups_equivalent_lpms(self, path_setting):
        partitioned, query, lpms = path_setting
        classes = compute_lec_features(lpms[0] + lpms[1])
        assert len(classes) == 2
        assert sum(len(members) for members in classes.values()) == 2

    def test_equivalent_lpms_share_class(self):
        # Fragment 0 contains two distinct internal continuations behind the
        # same crossing edge, so two LPMs collapse into one LEC feature.
        graph = RDFGraph([Triple(A, P, B), Triple(A, Q, C), Triple(A, Q, D)])
        partitioned = build_partitioned_graph(graph, {A: 1, B: 0, C: 1, D: 1}, num_fragments=2)
        query = QueryGraph(BasicGraphPattern([TriplePattern(X, P, Y), TriplePattern(X, Q, Z)]))
        outcome = evaluate_fragment(partitioned.fragment(1), query)
        classes = compute_lec_features(outcome.local_partial_matches)
        assert len(outcome.local_partial_matches) == 2
        assert len(classes) == 1
        assert len(next(iter(classes.values()))) == 2

    def test_empty_input(self):
        assert compute_lec_features([]) == {}


class TestDefinition8Compresses:
    """An internal star hanging off one crossing edge: many LPMs, one feature.

    ``a -p-> b`` crosses from fragment 0 into fragment 1, where ``b`` has
    ``LEAVES`` internal ``q`` neighbours.  Each neighbour gives fragment 1 one
    LPM of ``?x p ?y . ?y q ?z``, and all of them share the crossing pair and
    the LECSign: one class, whose feature ships in fewer bytes than its LPMs.
    """

    LEAVES = 8

    def build(self):
        leaves = [EX.term(f"leaf{i}") for i in range(self.LEAVES)]
        graph = RDFGraph([Triple(A, P, B)] + [Triple(B, Q, leaf) for leaf in leaves])
        assignment = {A: 0, B: 1, **{leaf: 1 for leaf in leaves}}
        partitioned = build_partitioned_graph(graph, assignment, num_fragments=2)
        bgp = BasicGraphPattern([TriplePattern(X, P, Y), TriplePattern(Y, Q, Z)])
        return partitioned, bgp

    def test_one_feature_ships_smaller_than_its_class(self):
        partitioned, bgp = self.build()
        lpms = evaluate_fragment(partitioned.fragment(1), QueryGraph(bgp)).local_partial_matches
        classes = compute_lec_features(lpms)
        assert len(lpms) / len(classes) == self.LEAVES > 1
        (members,) = classes.values()
        assert estimate_size(list(classes)) < estimate_size(LPMList(members))

    def test_the_engine_ships_the_feature_and_keeps_the_class(self):
        partitioned, bgp = self.build()
        cluster = build_cluster(partitioned)
        config = EngineConfig.full().with_options(star_shortcut=False)
        with cluster.bus.ledger() as ledger:
            result = GStoreDEngine(cluster, config).execute(SelectQuery(bgp, (X, Y, Z)))
        statistics = result.statistics
        lpms = statistics.counter("partial_evaluation", "local_partial_matches")
        assert lpms / statistics.counter("lec_pruning", "lec_features") > 1
        assert statistics.counter("lec_pruning", "pruned_local_partial_matches") == 0
        assert len(result.results) == self.LEAVES
        shipped = ledger.snapshot().bytes_by_kind
        assert shipped["lec_features"] < shipped["local_partial_matches"]


class TestJoinability:
    def test_joinable_features(self, path_setting):
        partitioned, query, lpms = path_setting
        left = lec_feature_of(lpms[0][0])
        right = lec_feature_of(lpms[1][0])
        assert features_joinable(left, right, query)
        assert features_joinable(right, left, query)

    def test_same_fragment_not_joinable(self, path_setting):
        partitioned, query, lpms = path_setting
        feature = lec_feature_of(lpms[0][0])
        assert not features_joinable(feature, feature, query)

    def test_overlapping_signs_not_joinable(self, path_setting):
        partitioned, query, lpms = path_setting
        left = lec_feature_of(lpms[0][0])
        conflicting = LECFeature(1, left.crossing, left.lec_sign)
        assert not features_joinable(left, conflicting, query)

    def test_no_common_crossing_edge_not_joinable(self, path_setting):
        partitioned, query, lpms = path_setting
        left = lec_feature_of(lpms[0][0])
        other = lec_feature(1, [(0, Triple(A, P, B))], 0b100, left.dictionary)
        assert not features_joinable(left, other, query)

    def test_conflicting_crossing_endpoint_not_joinable(self, path_setting):
        partitioned, query, lpms = path_setting
        left = lec_feature_of(lpms[0][0])
        # The other feature shares query edge 1 (mapped to b-q-c, so ?y→b) but
        # also maps query edge 0 to d-p-d', forcing ?y→d' ≠ b: the vertex-level
        # conflict on ?y must make the features non-joinable.
        other = lec_feature(1, [(1, Triple(B, Q, C)), (0, Triple(D, P, EX.term("d2")))], 0b100, left.dictionary)
        assert not features_joinable(left, other, query)
        assert not features_joinable(other, left, query)


class TestGroupingAndJoinGraph:
    def test_groups_are_sign_homogeneous(self, path_setting):
        partitioned, query, lpms = path_setting
        features = [lec_feature_of(lpm) for lpm in lpms[0] + lpms[1]]
        groups = group_features_by_sign(features)
        for sign, members in groups.items():
            assert all(member.lec_sign == sign for member in members)

    def test_theorem5_same_sign_features_never_joinable(self, example_cluster, example_query_graph):
        features = []
        for site in example_cluster:
            outcome = evaluate_fragment(site.fragment, example_query_graph, graph=site.graph)
            features.extend(lec_feature_of(lpm) for lpm in outcome.local_partial_matches)
        groups = group_features_by_sign(features)
        for members in groups.values():
            for left in members:
                for right in members:
                    if left is not right:
                        assert not features_joinable(left, right, example_query_graph)
