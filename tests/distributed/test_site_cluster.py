"""Unit tests for sites and clusters."""

import pytest

from mirror import Mirror, assert_mirrors
from repro.datasets import lubm
from repro.distributed import Cluster, build_cluster
from repro.partition import HashPartitioner
from repro.rdf import IRI, RDFGraph, Triple, Variable
from repro.sparql import QueryGraph, parse_query
from repro.store.encoding import EncodedGraph, encoded_rebuilds


class TestSite:
    def test_site_graph_matches_fragment(self, example_cluster, example_partitioning):
        for site in example_cluster:
            fragment = example_partitioning.fragment(site.site_id)
            assert len(site.store) == site.encoded.num_triples == fragment.num_edges
            assert site.fragment is site.graph and site.fragment.fragment_id == site.site_id
            assert site.graph.encoded is site.encoded is site.store.encoded
            assert site.name == f"S{site.site_id}"

    def test_internal_and_extended_vertices(self, example_cluster, example_partitioning):
        for site in example_cluster:
            decode = example_cluster.dictionary.decode_ids
            fragment = example_partitioning.fragment(site.site_id)
            assert decode(site.fragment.internal) == fragment.internal_vertices
            assert decode(site.fragment.extended) == fragment.extended_vertices
            assert site.fragment.decoded() == fragment

    def test_local_evaluate_star_query(self, lubm_cluster):
        query = parse_query(
            "PREFIX ub: <http://example.org/univ-bench#> "
            "SELECT ?x WHERE { ?x ub:name ?n . ?x ub:emailAddress ?e . }"
        )
        total = sum(len(site.local_evaluate(query)) for site in lubm_cluster)
        assert total > 0

    def test_internal_candidates_are_internal(self, lubm_cluster):
        query = parse_query(
            "PREFIX ub: <http://example.org/univ-bench#> "
            "SELECT ?x ?y WHERE { ?x ub:advisor ?y . }"
        )
        graph = QueryGraph(query.bgp)
        for site in lubm_cluster.sites[:2]:
            candidates = site.internal_candidates(graph)
            for values in candidates.values():
                assert values <= site.fragment.internal

    def test_site_stats(self, example_cluster):
        stats = example_cluster.site(0).stats()
        assert stats["crossing_edges"] == 3


class TestCluster:
    def test_one_site_per_fragment(self, example_partitioning, example_cluster):
        assert example_cluster.num_sites == example_partitioning.num_fragments
        assert len(example_cluster) == 3
        assert example_cluster.site_ids == [0, 1, 2]

    def test_site_of_vertex(self, example_cluster, example_partitioning):
        vertex = next(iter(example_partitioning.fragment(1).internal_vertices))
        assert example_cluster.site_of_vertex(vertex).site_id == 1

    def test_graph_accessor_returns_full_graph(self, example_cluster, example_graph):
        assert example_cluster.graph == example_graph

    def test_stats_include_partitioning_info(self, example_cluster):
        stats = example_cluster.stats()
        assert stats["sites"] == 3
        assert stats["strategy"] == "figure1"

    def test_build_cluster_helper(self):
        graph = lubm.generate(scale=1)
        partitioned = HashPartitioner(3).partition(graph)
        cluster = build_cluster(partitioned)
        assert isinstance(cluster, Cluster)
        assert cluster.num_sites == 3


class TestOneEncodingPerSite:
    """A site stores its fragment and one encoding of it: no per-site ``RDFGraph``."""

    @pytest.fixture(scope="class")
    def partitioned(self):
        return HashPartitioner(3).partition(lubm.generate(scale=1))

    def test_build_cluster_constructs_no_graph(self, partitioned, monkeypatch):
        constructed = []
        original = RDFGraph.__init__

        def counting(self, *args, **kwargs):
            constructed.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(RDFGraph, "__init__", counting)
        build_cluster(partitioned)
        assert constructed == []

    def test_an_update_constructs_no_graph_and_no_encoding(self, partitioned, monkeypatch):
        cluster = build_cluster(partitioned)
        mirror = Mirror(partitioned)
        edge = sorted(partitioned.graph, key=lambda triple: triple.n3())[0]
        added = Triple(edge.subject, edge.predicate, IRI("http://example.org/new"))
        cluster.graph_statistics()
        cluster.encoded  # the master encoding: built on first use, then patched
        structures = [(site.encoded, site.graph, site.graph_statistics()) for site in cluster]
        constructed = []
        original = RDFGraph.__init__

        def counting(self, *args, **kwargs):
            constructed.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(RDFGraph, "__init__", counting)
        encodings = encoded_rebuilds()
        cluster.apply(remove=[edge])
        cluster.apply(add=[edge, added])
        assert constructed == []
        assert encoded_rebuilds() == encodings
        assert [(site.encoded, site.graph, site.graph_statistics()) for site in cluster] == structures
        monkeypatch.undo()
        mirror.apply(remove=[edge])
        mirror.apply(add=[edge, added])
        assert_mirrors(cluster, mirror)

    def test_the_site_encoding_is_the_encoding_of_its_edges(self, partitioned):
        cluster = build_cluster(partitioned)
        for site in cluster:
            encoded = site.graph.encoded
            assert encoded is site.encoded is site.store.encoded
            assert encoded.dictionary is cluster.dictionary
            fragment = partitioned.fragment(site.site_id)
            reference = EncodedGraph(RDFGraph(fragment.internal_edges | fragment.crossing_edges), cluster.dictionary)
            assert encoded.predicate_ids() == reference.predicate_ids()
            for predicate in reference.predicate_ids():
                for ours, theirs in (
                    (encoded.out_column(predicate), reference.out_column(predicate)),
                    (encoded.in_column(predicate), reference.in_column(predicate)),
                ):
                    assert (ours.keys, ours.offsets, ours.values) == (theirs.keys, theirs.offsets, theirs.values)
