"""Unit tests for sites and clusters."""

from repro.datasets import lubm
from repro.distributed import Cluster, build_cluster
from repro.partition import HashPartitioner
from repro.rdf import Variable
from repro.sparql import QueryGraph, parse_query


class TestSite:
    def test_site_graph_matches_fragment(self, example_cluster):
        for site in example_cluster:
            assert len(site.graph) == site.fragment.num_edges
            assert site.name == f"S{site.site_id}"

    def test_internal_and_extended_vertices(self, example_cluster):
        site = example_cluster.site(0)
        assert site.internal_vertices == site.fragment.internal_vertices
        assert site.extended_vertices == site.fragment.extended_vertices
        some_internal = next(iter(site.internal_vertices))
        assert site.is_internal(some_internal)

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
                assert candidates.encoded.dictionary.decode_ids(values) <= site.internal_vertices

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

    def test_reset_network(self, example_cluster):
        example_cluster.bus.send(0, 1, "x", "payload")
        example_cluster.reset_network()
        assert example_cluster.bus.total_messages == 0

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
