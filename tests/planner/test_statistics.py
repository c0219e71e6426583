"""Unit tests for the planner's graph statistics collector."""

from repro.distributed import aggregate_graph_statistics, build_cluster
from repro.partition import HashPartitioner
from repro.planner import GraphStatistics, collect_statistics, merge_statistics
from repro.rdf import IRI, Literal, Namespace, RDFGraph, Triple
from repro.store.encoding import EncodedGraph

EX = Namespace("http://example.org/")


class TestCollect:
    def test_counts(self, tiny_graph):
        stats = collect_statistics(EncodedGraph(tiny_graph))
        assert stats.num_triples == 4
        assert stats.num_vertices == len(tiny_graph.vertices)
        assert stats.num_predicates == 3

    def test_per_predicate_counts(self, tiny_graph):
        stats = collect_statistics(EncodedGraph(tiny_graph))
        knows = EX.term("knows")
        assert stats.predicate_count(knows) == 2
        assert stats.distinct_subjects(knows) == 2  # a and b
        assert stats.distinct_objects(knows) == 2  # b and c

    def test_unknown_predicate_is_zero(self, tiny_graph):
        stats = collect_statistics(EncodedGraph(tiny_graph))
        assert stats.predicate_count(EX.term("nope")) == 0
        assert stats.distinct_subjects(EX.term("nope")) == 0

    def test_empty_graph(self):
        stats = collect_statistics(EncodedGraph(RDFGraph()))
        assert stats.is_empty
        assert stats.num_vertices == 0
        assert stats.summary().endswith("avg degree 0.0")

    def test_summary_prints_the_exact_average_degree(self, tiny_graph):
        stats = collect_statistics(EncodedGraph(tiny_graph))
        average = 2 * stats.num_triples / stats.num_vertices
        assert stats.summary() == (
            f"4 triples, {stats.num_vertices} vertices, 3 predicates, avg degree {average:.1f}"
        )


class TestSerialization:
    def test_roundtrip(self, tiny_graph):
        stats = collect_statistics(EncodedGraph(tiny_graph))
        restored = GraphStatistics.from_dict(stats.as_dict())
        assert restored == stats

    def test_a_stored_degree_histogram_is_ignored(self, tiny_graph):
        stats = collect_statistics(EncodedGraph(tiny_graph))
        stored = dict(stats.as_dict(), degree_histogram={"1": 2, "2": 1})
        assert GraphStatistics.from_dict(stored) == stats

    def test_as_dict_is_jsonable(self, tiny_graph):
        import json

        encoded = json.dumps(collect_statistics(EncodedGraph(tiny_graph)).as_dict())
        restored = GraphStatistics.from_dict(json.loads(encoded))
        assert restored.num_triples == 4


class TestMerge:
    def test_merge_totals(self, tiny_graph):
        stats = collect_statistics(EncodedGraph(tiny_graph))
        merged = merge_statistics([stats, stats])
        assert merged.num_triples == 2 * stats.num_triples
        knows = EX.term("knows")
        assert merged.predicate_count(knows) == 2 * stats.predicate_count(knows)
        assert merged.distinct_subjects(knows) == 2 * stats.distinct_subjects(knows)

    def test_merge_empty(self):
        assert merge_statistics([]).is_empty

    def test_cluster_aggregation_matches_fragment_sums(self, tiny_graph):
        cluster = build_cluster(HashPartitioner(2).partition(tiny_graph))
        merged = cluster.graph_statistics()
        per_site = [site.graph_statistics() for site in cluster]
        assert merged.num_triples == sum(s.num_triples for s in per_site)
        assert aggregate_graph_statistics(per_site).num_triples == merged.num_triples
        # Crossing edges are replicated, so fragments together hold at least
        # every triple of the original graph.
        assert merged.num_triples >= len(tiny_graph)
