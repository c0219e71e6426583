"""Tests reproducing the paper's worked examples (Fig. 1-7, Examples 4-8).

These tests follow the running example end to end: the eight local partial
matches of Fig. 3, the seven LEC features of Example 6, the five LEC feature
groups of Example 7, the pruning of PM²₃ (Example / Algorithm 2), the four
local partial match groups of Example 8 and the final answers of the query.
"""

import pytest

from repro.core import (
    EngineConfig,
    GStoreDEngine,
    LECFeaturePruner,
    compute_lec_features,
    lec_feature_of,
)
from repro.core.assembly import LECAssembler
from repro.core.partial_eval import PartialEvaluator
from repro.distributed import build_cluster
from repro.core.partial_match import check_local_partial_match
from repro.datasets.paper_example import VERTEX
from repro.rdf import Variable
from repro.store import evaluate_centralized


@pytest.fixture(scope="module")
def per_fragment_lpms(example_partitioning_module, example_query_graph_module):
    lpms = {}
    for site in build_cluster(example_partitioning_module):
        outcome = PartialEvaluator(site.fragment, graph=site.graph, paranoid=True).evaluate(example_query_graph_module)
        lpms[site.site_id] = outcome.local_partial_matches
    return lpms


@pytest.fixture(scope="module")
def example_partitioning_module():
    from repro.datasets.paper_example import build_example_partitioning

    return build_example_partitioning()


@pytest.fixture(scope="module")
def example_query_graph_module():
    from repro.datasets.paper_example import example_query
    from repro.sparql import QueryGraph

    return QueryGraph(example_query().bgp)


class TestFigure3LocalPartialMatches:
    def test_fragment1_has_three_lpms(self, per_fragment_lpms):
        assert len(per_fragment_lpms[0]) == 3

    def test_fragment2_has_three_lpms(self, per_fragment_lpms):
        assert len(per_fragment_lpms[1]) == 3

    def test_fragment3_has_two_lpms(self, per_fragment_lpms):
        assert len(per_fragment_lpms[2]) == 2

    def test_every_lpm_satisfies_definition5(
        self, per_fragment_lpms, example_partitioning_module, example_query_graph_module
    ):
        for fragment in example_partitioning_module:
            for lpm in per_fragment_lpms[fragment.fragment_id]:
                violations = check_local_partial_match(lpm, example_query_graph_module, fragment)
                assert violations == []

    def test_pm11_of_the_paper_is_found(self, per_fragment_lpms):
        """PM¹₁ = [006, NULL, 001, NULL, 003] in fragment F1."""
        serializations = {
            tuple(sorted((v.n3(), val.n3()) for v, val in lpm.assignment))
            for lpm in per_fragment_lpms[0]
        }
        expected = tuple(
            sorted(
                [
                    (Variable("p2").n3(), VERTEX["006"].n3()),
                    (Variable("p1").n3(), VERTEX["001"].n3()),
                    (VERTEX["003"].n3(), VERTEX["003"].n3()),
                ]
            )
        )
        assert expected in serializations

    def test_pm23_of_the_paper_is_found(self, per_fragment_lpms):
        """PM²₃ = [014, 013, NULL, 017, NULL] in fragment F3 — the one later pruned."""
        found = False
        for lpm in per_fragment_lpms[2]:
            mapping = {v.n3(): val.n3() for v, val in lpm.assignment}
            if mapping.get("?p2") == VERTEX["014"].n3() and mapping.get("?t") == VERTEX["013"].n3():
                found = True
        assert found


class TestExample6And7LECFeatures:
    def test_seven_lec_features_in_total(self, per_fragment_lpms):
        features = set()
        for lpms in per_fragment_lpms.values():
            features.update(compute_lec_features(lpms))
        assert len(features) == 7

    def test_pm12_and_pm22_share_a_feature(self, per_fragment_lpms):
        """PM¹₂ and PM²₂ are equivalent, so fragment F2 has 2 distinct features for 3 LPMs."""
        classes = compute_lec_features(per_fragment_lpms[1])
        assert len(classes) == 2
        sizes = sorted(len(members) for members in classes.values())
        assert sizes == [1, 2]

    def test_lec_feature_groups_are_sign_homogeneous(self, per_fragment_lpms):
        """Example 7 of the paper lists 5 groups (it keeps the two features
        whose LECSign is [01010] — LF(PM³₁) from F1 and LF(PM²₃) from F3 — in
        separate groups).  Definition 10 only requires every group to be
        sign-homogeneous, and our implementation merges groups with equal
        LECSign maximally, giving 4 groups for the same 7 features.  What
        matters for Theorem 5 is that no group mixes different LECSigns."""
        from reference_joins import group_features_by_sign

        features = []
        for lpms in per_fragment_lpms.values():
            features.extend(compute_lec_features(lpms))
        groups = group_features_by_sign(features)
        assert len(features) == 7
        assert len(groups) == 4
        for sign, members in groups.items():
            assert all(member.lec_sign == sign for member in members)


class TestAlgorithm2Pruning:
    def test_pm23_feature_is_pruned(self, per_fragment_lpms, example_query_graph_module):
        features = []
        for lpms in per_fragment_lpms.values():
            features.extend(compute_lec_features(lpms))
        outcome = LECFeaturePruner(example_query_graph_module).prune(features)
        assert outcome.total_features == 7
        # The PM²₃ feature (from F3, centred on vertex 014) cannot contribute.
        pruned = [f for f in features if f not in outcome.surviving]
        assert len(pruned) == 1
        assert pruned[0].fragment_id == 2

    def test_surviving_features_cover_the_answers(self, per_fragment_lpms, example_query_graph_module):
        features = []
        for lpms in per_fragment_lpms.values():
            features.extend(compute_lec_features(lpms))
        outcome = LECFeaturePruner(example_query_graph_module).prune(features)
        assert outcome.complete_combinations >= 1


class TestExample8AssemblyGroups:
    def test_four_lpm_groups_after_pruning(self, per_fragment_lpms, example_query_graph_module):
        classes_by_fragment = {
            fragment_id: compute_lec_features(lpms) for fragment_id, lpms in per_fragment_lpms.items()
        }
        every_feature = [feature for classes in classes_by_fragment.values() for feature in classes]
        outcome = LECFeaturePruner(example_query_graph_module).prune(every_feature)
        surviving = []
        for classes in classes_by_fragment.values():
            for feature, members in classes.items():
                if feature in outcome.surviving:
                    surviving.extend(members)
        # Note: pruning one LPM of F3 leaves 7 LPMs in 4 LECSign groups (Example 8).
        assert LECAssembler(example_query_graph_module).assemble(surviving).groups == 4

    def test_assembly_produces_the_crossing_matches(
        self, per_fragment_lpms, example_query_graph_module
    ):
        lpms = [lpm for members in per_fragment_lpms.values() for lpm in members]
        outcome = LECAssembler(example_query_graph_module).assemble(lpms)
        assert outcome.num_matches == 4


class TestEndToEndExample:
    def test_engine_matches_centralized_answer(self, example_graph, example_query_obj, example_cluster):
        central = evaluate_centralized(example_graph, example_query_obj)
        engine = GStoreDEngine(example_cluster, EngineConfig.full())
        result = engine.execute(example_query_obj, query_name="fig2")
        assert result.results.same_solutions(
            central.project(example_query_obj.effective_projection, distinct=True)
        )
        assert len(result.results) == 4
