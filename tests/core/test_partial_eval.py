"""Unit tests for the per-fragment partial evaluation (LPM enumeration)."""

import pytest

from repro.core import CandidateBitVector, EngineConfig, GlobalCandidateFilter, partial_eval
from repro.core.engine import GStoreDEngine
from repro.core.partial_eval import PartialEvaluator, evaluate_fragment
from repro.core.partial_match import check_local_partial_match
from repro.core.site_tasks import TASK_PARTIAL_EVAL
from repro.distributed import build_cluster
from repro.exec import SiteTaskError
from repro.partition import HashPartitioner, build_partitioned_graph
from repro.rdf import Literal, Namespace, RDFGraph, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph, parse_query
from repro.datasets import lubm

EX = Namespace("http://example.org/")
A, B, C, D = EX.term("a"), EX.term("b"), EX.term("c"), EX.term("d")
P, Q = EX.term("p"), EX.term("q")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def path_setting():
    """a -p-> b -q-> c across two fragments, path query."""
    graph = RDFGraph([Triple(A, P, B), Triple(B, Q, C)])
    partitioned = build_partitioned_graph(graph, {A: 0, B: 0, C: 1}, num_fragments=2)
    query = QueryGraph(BasicGraphPattern([TriplePattern(X, P, Y), TriplePattern(Y, Q, Z)]))
    return partitioned, query


class TestEnumeration:
    def test_fragment_with_internal_region_produces_lpm(self):
        partitioned, query = path_setting()
        outcome = evaluate_fragment(partitioned.fragment(0), query)
        assert outcome.count == 1
        lpm = outcome.local_partial_matches[0]
        assert lpm.mapping() == {X: A, Y: B, Z: C}

    def test_fragment_with_extended_only_region(self):
        partitioned, query = path_setting()
        outcome = evaluate_fragment(partitioned.fragment(1), query)
        assert outcome.count == 1
        lpm = outcome.local_partial_matches[0]
        assert lpm.mapping() == {Y: B, Z: C}
        assert lpm.internal_vertex_indexes() == {query.vertex_index(Z)}

    def test_no_lpm_without_crossing_edges(self):
        graph = RDFGraph([Triple(A, P, B), Triple(B, Q, C)])
        partitioned = build_partitioned_graph(graph, {A: 0, B: 0, C: 0}, num_fragments=1)
        query = QueryGraph(BasicGraphPattern([TriplePattern(X, P, Y), TriplePattern(Y, Q, Z)]))
        outcome = evaluate_fragment(partitioned.fragment(0), query)
        assert outcome.count == 0

    def test_condition6_splits_disconnected_internal_regions(self):
        # a -p-> x -q-> b where x lives on another fragment: fragment 0 owns a and b.
        graph = RDFGraph([Triple(A, P, D), Triple(D, Q, B)])
        partitioned = build_partitioned_graph(graph, {A: 0, B: 0, D: 1}, num_fragments=2)
        query = QueryGraph(BasicGraphPattern([TriplePattern(X, P, Y), TriplePattern(Y, Q, Z)]))
        outcome = evaluate_fragment(partitioned.fragment(0), query)
        # Two separate LPMs: {x→a, y→d} and {y→d, z→b}; never one merged LPM.
        assert outcome.count == 2
        for lpm in outcome.local_partial_matches:
            assert len(lpm.internal_vertex_indexes()) == 1

    def test_constants_restrict_seeds(self):
        graph = RDFGraph([Triple(A, P, B), Triple(B, Q, C), Triple(D, P, B)])
        partitioned = build_partitioned_graph(graph, {A: 0, D: 0, B: 0, C: 1}, num_fragments=2)
        query = QueryGraph(BasicGraphPattern([TriplePattern(A, P, Y), TriplePattern(Y, Q, Z)]))
        outcome = evaluate_fragment(partitioned.fragment(0), query)
        assert outcome.count == 1
        assert outcome.local_partial_matches[0].value_of(A) == A

    def test_every_produced_lpm_is_valid(self):
        graph = lubm.generate(scale=1)
        partitioned = HashPartitioner(4).partition(graph)
        query = QueryGraph(lubm.queries()["LQ1"].bgp)
        for fragment in partitioned:
            outcome = evaluate_fragment(fragment, query)
            for lpm in outcome.local_partial_matches:
                assert check_local_partial_match(lpm, query, fragment) == []

    def test_paranoid_mode_matches_normal_mode(self):
        partitioned, query = path_setting()
        normal = evaluate_fragment(partitioned.fragment(0), query, paranoid=False)
        paranoid = evaluate_fragment(partitioned.fragment(0), query, paranoid=True)
        assert {lpm.assignment for lpm in normal.local_partial_matches} == {
            lpm.assignment for lpm in paranoid.local_partial_matches
        }

    def test_duplicate_lpms_are_not_emitted(self):
        graph = lubm.generate(scale=1)
        partitioned = HashPartitioner(3).partition(graph)
        query = QueryGraph(lubm.queries()["LQ6"].bgp)
        for fragment in partitioned:
            outcome = evaluate_fragment(fragment, query)
            keys = [(lpm.assignment, lpm.edge_assignment) for lpm in outcome.local_partial_matches]
            assert len(keys) == len(set(keys))

    def test_seeds_explored_counter(self):
        partitioned, query = path_setting()
        outcome = evaluate_fragment(partitioned.fragment(0), query)
        assert outcome.seeds_explored >= 1


def vector_missing(term):
    """A ``?z`` vector with one bit set, not ``term``'s: it refuses ``term``
    but proves nothing empty."""
    vector = CandidateBitVector()
    vector.add(A)
    assert vector.popcount() == 1 and not vector.might_contain(term)
    return vector


class TestCandidateFilter:
    def test_filter_blocks_extended_candidates(self):
        partitioned, query = path_setting()
        # A filter claiming c is an internal candidate of ?z nowhere blocks
        # the F0 LPM (whose z→c is an extended binding).
        candidate_filter = GlobalCandidateFilter({Z: vector_missing(C)})
        outcome = evaluate_fragment(partitioned.fragment(0), query, candidate_filter=candidate_filter)
        assert outcome.count == 0
        assert outcome.branches_pruned_by_filter >= 1

    def test_filter_allows_listed_candidates(self):
        partitioned, query = path_setting()
        vector = CandidateBitVector()
        vector.add(C)
        candidate_filter = GlobalCandidateFilter({Z: vector})
        outcome = evaluate_fragment(partitioned.fragment(0), query, candidate_filter=candidate_filter)
        assert outcome.count == 1

    def test_filter_never_applies_to_internal_bindings(self):
        partitioned, query = path_setting()
        # Fragment 1 binds ?z internally to c; a ?z vector without c must not block it.
        candidate_filter = GlobalCandidateFilter({Z: vector_missing(C)})
        outcome = evaluate_fragment(partitioned.fragment(1), query, candidate_filter=candidate_filter)
        assert outcome.count == 1


class TestAnAllZeroVectorProvesTheAnswerEmpty:
    """A variable whose union vector has no bit set is an internal candidate
    nowhere: no site enumerates or explores anything."""

    @pytest.mark.parametrize("empty", [X, Y, Z], ids=str)
    @pytest.mark.parametrize("fragment_id", [0, 1])
    def test_any_one_zero_vector_ends_the_search(self, empty, fragment_id):
        partitioned, query = path_setting()
        everything = CandidateBitVector(bits=(1 << CandidateBitVector().width) - 1)
        vectors = {vertex: CandidateBitVector() if vertex == empty else everything for vertex in (X, Y, Z)}
        candidate_filter = GlobalCandidateFilter(vectors)
        assert candidate_filter.proves_empty()
        fragment = partitioned.fragment(fragment_id)
        assert evaluate_fragment(fragment, query).count == 1  # without the filter there is one
        outcome = evaluate_fragment(fragment, query, candidate_filter=candidate_filter)
        assert outcome.count == 0
        assert outcome.seeds_explored == 0
        assert outcome.branches_pruned_by_filter == 0

    def test_a_one_bit_vector_does_not_end_the_search(self):
        partitioned, query = path_setting()
        candidate_filter = GlobalCandidateFilter({Z: vector_missing(C)})
        assert not candidate_filter.proves_empty()
        for fragment_id in (0, 1):
            outcome = evaluate_fragment(partitioned.fragment(fragment_id), query, candidate_filter=candidate_filter)
            assert outcome.seeds_explored >= 1


class TestParanoidMode:
    """``paranoid=True`` raises on an LPM that breaks Definition 5; it never drops one."""

    @staticmethod
    def break_checker(monkeypatch):
        monkeypatch.setattr(partial_eval, "check_local_partial_match", lambda lpm, query, fragment: ["bogus"])

    def test_a_violation_raises_naming_fragment_lpm_and_violations(self, monkeypatch):
        partitioned, query = path_setting()
        fragment = partitioned.fragment(0)
        lpm = evaluate_fragment(fragment, query).local_partial_matches[0]
        self.break_checker(monkeypatch)
        assert evaluate_fragment(fragment, query).local_partial_matches == [lpm]
        with pytest.raises(RuntimeError) as excinfo:
            evaluate_fragment(fragment, query, paranoid=True)
        message = str(excinfo.value)
        assert f"fragment {fragment.name}" in message
        assert repr(lpm) in message
        assert "['bogus']" in message

    def test_the_engine_reports_a_site_task_error(self, monkeypatch):
        partitioned, _ = path_setting()
        # Without the star shortcut a two-edge path runs partial evaluation.
        config = EngineConfig(paranoid_validation=True, star_shortcut=False)
        engine = GStoreDEngine(build_cluster(partitioned), config)
        select = parse_query(
            "PREFIX ex: <http://example.org/> SELECT ?x ?z WHERE { ?x ex:p ?y . ?y ex:q ?z . }"
        )
        assert len(engine.execute(select).rows()) == 1
        self.break_checker(monkeypatch)
        with pytest.raises(SiteTaskError) as excinfo:
            engine.execute(select)
        assert excinfo.value.stage == TASK_PARTIAL_EVAL
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert "breaks Definition 5" in str(excinfo.value.__cause__)
