"""Unit tests for the cardinality estimator."""

from repro.planner import CardinalityEstimator, MIN_CARDINALITY, collect_statistics
from repro.rdf import Namespace, Variable
from repro.sparql import BasicGraphPattern, QueryGraph
from repro.rdf.triples import TriplePattern
from repro.store.encoding import EncodedGraph

EX = Namespace("http://example.org/")


def estimator_for(graph):
    return CardinalityEstimator(collect_statistics(EncodedGraph(graph)))


def single_edge(subject, predicate, object_):
    return QueryGraph(BasicGraphPattern([TriplePattern(subject, predicate, object_)])).edge_at(0)


class TestPatternCardinality:
    def test_unbound_pattern_counts_predicate_triples(self, tiny_graph):
        estimator = estimator_for(tiny_graph)
        edge = single_edge(Variable("x"), EX.term("knows"), Variable("y"))
        assert estimator.pattern_cardinality(edge) == 2.0

    def test_constant_subject_divides_by_distinct_subjects(self, tiny_graph):
        estimator = estimator_for(tiny_graph)
        edge = single_edge(EX.term("a"), EX.term("knows"), Variable("y"))
        assert estimator.pattern_cardinality(edge) == 1.0  # 2 triples / 2 subjects

    def test_variable_predicate_uses_total_triples(self, tiny_graph):
        estimator = estimator_for(tiny_graph)
        edge = single_edge(Variable("x"), Variable("p"), Variable("y"))
        assert estimator.pattern_cardinality(edge) == 4.0

    def test_unknown_predicate_is_minimal(self, tiny_graph):
        estimator = estimator_for(tiny_graph)
        edge = single_edge(Variable("x"), EX.term("unseen"), Variable("y"))
        assert estimator.pattern_cardinality(edge) == MIN_CARDINALITY


class TestVertexCardinality:
    def test_constant_vertex_is_one(self, tiny_graph):
        estimator = estimator_for(tiny_graph)
        query = QueryGraph(
            BasicGraphPattern([TriplePattern(EX.term("a"), EX.term("knows"), Variable("y"))])
        )
        assert estimator.vertex_cardinality(query, EX.term("a")) == 1.0

    def test_selective_edge_tightens_the_bound(self, tiny_graph):
        estimator = estimator_for(tiny_graph)
        # ?x both knows someone and likes c: the "likes" edge (1 subject) is
        # tighter than the "knows" edge (2 subjects).
        query = QueryGraph(
            BasicGraphPattern(
                [
                    TriplePattern(Variable("x"), EX.term("knows"), Variable("y")),
                    TriplePattern(Variable("x"), EX.term("likes"), EX.term("c")),
                ]
            )
        )
        assert estimator.vertex_cardinality(query, Variable("x")) == 1.0

    def test_more_frequent_predicate_means_more_candidates(self, lubm_graph):
        estimator = CardinalityEstimator(collect_statistics(EncodedGraph(lubm_graph)))
        ub = Namespace("http://example.org/univ-bench#")
        frequent = QueryGraph(
            BasicGraphPattern([TriplePattern(Variable("x"), ub.term("takesCourse"), Variable("y"))])
        )
        rare = QueryGraph(
            BasicGraphPattern([TriplePattern(Variable("x"), ub.term("headOf"), Variable("y"))])
        )
        assert estimator.vertex_cardinality(frequent, Variable("x")) > estimator.vertex_cardinality(
            rare, Variable("x")
        )


class TestExpansion:
    def test_expansion_factor_is_average_fanout(self, tiny_graph):
        estimator = estimator_for(tiny_graph)
        edge = single_edge(Variable("x"), EX.term("knows"), Variable("y"))
        # 2 "knows" triples over 2 distinct subjects: one edge per subject.
        assert estimator.expansion_factor(edge, Variable("x")) == 1.0

    def test_join_cardinality_scales_with_left_side(self, tiny_graph):
        estimator = estimator_for(tiny_graph)
        edge = single_edge(Variable("x"), EX.term("knows"), Variable("y"))
        assert estimator.join_cardinality(10.0, edge, Variable("x")) == 10.0
