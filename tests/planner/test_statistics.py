"""Unit tests for the planner's graph statistics: a view over encodings' columns."""

from mirror import statistics_values
from repro.distributed import build_cluster
from repro.partition import HashPartitioner
from repro.planner import GraphStatistics, collect_statistics
from repro.rdf import IRI, Literal, Namespace, RDFGraph, Triple
from repro.store.encoding import EncodedGraph, TermDictionary

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

    def test_a_vertex_that_labels_no_triple_reads_none(self, tiny_graph):
        encoded = EncodedGraph(tiny_graph)
        a = EX.term("a")
        assert encoded.dictionary.get(a) is not None
        for stats in (collect_statistics(encoded), GraphStatistics([encoded, encoded])):
            assert stats.read(a) is None
            assert stats.read(Literal("Carol")) is None
            assert (stats.predicate_count(a), stats.distinct_subjects(a), stats.distinct_objects(a)) == (0, 0, 0)

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


class TestSums:
    def test_every_count_sums_over_the_encodings(self, tiny_graph):
        encoded = EncodedGraph(tiny_graph)
        stats = collect_statistics(encoded)
        merged = GraphStatistics([encoded, encoded])
        assert merged.num_triples == 2 * stats.num_triples
        assert merged.num_vertices == 2 * stats.num_vertices
        assert merged.num_predicates == stats.num_predicates
        knows = EX.term("knows")
        assert merged.predicate_count(knows) == 2 * stats.predicate_count(knows)
        assert merged.distinct_subjects(knows) == 2 * stats.distinct_subjects(knows)

    def test_a_site_view_reads_what_the_general_view_reads(self, tiny_graph):
        a, b, c, knows = EX.term("a"), EX.term("b"), EX.term("c"), EX.term("knows")
        encoded = EncodedGraph(RDFGraph([*tiny_graph, Triple(a, knows, c)]))
        terms = [encoded.dictionary.term_of(term_id) for term_id in range(len(encoded.dictionary))]
        assert statistics_values(collect_statistics(encoded), terms) == statistics_values(
            GraphStatistics([encoded]), terms
        )
        assert collect_statistics(encoded).read(knows) == (3, 2, 2)
        assert collect_statistics(EncodedGraph(RDFGraph([Triple(a, knows, c), Triple(b, knows, c)]))).read(knows) == (2, 2, 1)

    def test_a_predicate_one_encoding_lacks_sums_the_others(self, tiny_graph):
        knows, likes = EX.term("knows"), EX.term("likes")
        dictionary = TermDictionary(term for triple in tiny_graph for term in triple.as_tuple())
        with_knows = EncodedGraph([t for t in tiny_graph if t.predicate == knows], dictionary)
        without = EncodedGraph([t for t in tiny_graph if t.predicate != knows], dictionary)
        for stats in (GraphStatistics([with_knows, without]), GraphStatistics([without, with_knows])):
            assert stats.read(knows) == (2, 2, 2)
            assert stats.read(likes) == (1, 1, 1)
            assert stats.num_triples == 4
            assert stats.num_predicates == 3
        assert collect_statistics(without).read(knows) is None
        assert GraphStatistics([without, without]).read(knows) is None

    def test_no_encodings_is_empty(self):
        stats = GraphStatistics()
        assert stats.is_empty
        assert stats.read(EX.term("knows")) is None
        assert stats.predicate_count(EX.term("knows")) == 0

    def test_cluster_view_matches_fragment_sums(self, tiny_graph):
        cluster = build_cluster(HashPartitioner(2).partition(tiny_graph))
        merged = cluster.graph_statistics()
        per_site = [site.graph_statistics() for site in cluster]
        assert merged.num_triples == sum(s.num_triples for s in per_site)
        assert merged.num_vertices == sum(s.num_vertices for s in per_site)
        knows = EX.term("knows")
        assert merged.read(knows) == tuple(map(sum, zip(*(s.read(knows) or (0, 0, 0) for s in per_site))))
        # Crossing edges are replicated, so fragments together hold at least
        # every triple of the original graph.
        assert merged.num_triples >= len(tiny_graph)


class TestTheViewReadsTheColumns:
    def test_a_patch_is_what_the_view_reads_next(self, tiny_graph):
        encoded = EncodedGraph(tiny_graph)
        stats = collect_statistics(encoded)
        knows = EX.term("knows")
        added = Triple(EX.term("d"), knows, EX.term("e"))
        encoded.apply_ops([("+", encoded.dictionary.ensure_triple(added))])
        assert stats.predicate_count(knows) == 3
        assert stats.num_triples == 5
        mirrored = RDFGraph([*tiny_graph, added])
        terms = [*mirrored.predicates, *mirrored.vertices]
        assert statistics_values(stats, terms) == statistics_values(collect_statistics(EncodedGraph(mirrored)), terms)

    def test_an_emptied_predicate_reads_none(self, tiny_graph):
        encoded = EncodedGraph(tiny_graph)
        stats = collect_statistics(encoded)
        knows = EX.term("knows")
        gone = [triple for triple in tiny_graph if triple.predicate == knows]
        encoded.apply_ops([("-", encoded.dictionary.ensure_triple(triple)) for triple in gone])
        assert stats.read(knows) is None
        assert stats.num_predicates == 2

    def test_the_summary_reads_the_patched_columns(self, tiny_graph):
        encoded = EncodedGraph(tiny_graph)
        stats = collect_statistics(encoded)
        coordinator = GraphStatistics([encoded])
        removed = Triple(EX.term("c"), EX.term("name"), Literal("Carol"))
        encoded.apply_ops([("-", encoded.dictionary.ensure_triple(removed))])
        fresh = collect_statistics(EncodedGraph(RDFGraph([t for t in tiny_graph if t != removed])))
        assert stats.summary() == coordinator.summary() == fresh.summary()
        assert stats.summary().startswith("3 triples, 3 vertices, 2 predicates")

    def test_an_emptied_encoding_is_empty(self, tiny_graph):
        encoded = EncodedGraph(tiny_graph)
        stats = collect_statistics(encoded)
        coordinator = GraphStatistics([encoded, encoded])
        assert not stats.is_empty and not coordinator.is_empty
        encoded.apply_ops([("-", encoded.dictionary.ensure_triple(triple)) for triple in tiny_graph])
        for view in (stats, coordinator):
            assert view.is_empty
            assert (view.num_triples, view.num_vertices, view.num_predicates) == (0, 0, 0)
            assert view.summary() == "0 triples, 0 vertices, 0 predicates, avg degree 0.0"
