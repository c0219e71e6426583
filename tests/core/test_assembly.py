"""Unit tests for the assembly stage (Algorithm 3 and the basic join)."""

import pickle

import pytest

from repro.core import compute_lec_features, prune_features
from repro.core.assembly import BasicAssembler, LECAssembler, assemble_matches
from repro.core.partial_match import LPMList
from repro.core.partial_eval import evaluate_fragment
from repro.distributed import build_cluster
from repro.partition import HashPartitioner, SemanticHashPartitioner, build_partitioned_graph
from repro.rdf import Triple
from repro.sparql import QueryGraph, parse_query
from repro.datasets import btc, lubm, random_assignment, random_graph, yago


def collect_lpms(partitioned, query_graph):
    """Every site's LPMs, over the cluster's one dictionary."""
    lpms = []
    for site in build_cluster(partitioned):
        lpms.extend(evaluate_fragment(site.fragment, query_graph, graph=site.graph).local_partial_matches)
    return lpms


class TestAssemblersAgree:
    """Both strategies must produce exactly the same complete matches."""

    @pytest.mark.parametrize(
        "dataset, query_name",
        [
            (lubm, "LQ1"),
            (lubm, "LQ6"),
            (lubm, "LQ7"),
            (yago, "YQ1"),
            (yago, "YQ4"),
            (btc, "BQ4"),
            (btc, "BQ5"),
        ],
    )
    def test_basic_and_lec_assembler_same_matches(self, dataset, query_name):
        graph = dataset.generate(scale=1)
        query = dataset.queries()[query_name]
        query_graph = QueryGraph(query.bgp)
        partitioned = HashPartitioner(4).partition(graph)
        lpms = collect_lpms(partitioned, query_graph)
        basic = BasicAssembler(query_graph).assemble(lpms)
        lec = LECAssembler(query_graph).assemble(lpms)
        assert {m.assignment for m in basic.matches} == {m.assignment for m in lec.matches}

    def test_lec_assembler_attempts_no_more_joins_than_basic(self):
        graph = lubm.generate(scale=1)
        query_graph = QueryGraph(lubm.queries()["LQ7"].bgp)
        partitioned = HashPartitioner(4).partition(graph)
        lpms = collect_lpms(partitioned, query_graph)
        basic = BasicAssembler(query_graph).assemble(lpms)
        lec = LECAssembler(query_graph).assemble(lpms)
        assert lec.join_attempts <= basic.join_attempts


class TestAssemblyDetails:
    def test_assemble_matches_dispatches_on_flag(self, example_partitioning, example_query_graph):
        lpms = collect_lpms(example_partitioning, example_query_graph)
        lec_outcome = assemble_matches(example_query_graph, lpms, use_lec_grouping=True)
        basic_outcome = assemble_matches(example_query_graph, lpms, use_lec_grouping=False)
        assert lec_outcome.num_matches == basic_outcome.num_matches == 4

    def test_empty_input_produces_no_matches(self, example_query_graph):
        outcome = LECAssembler(example_query_graph).assemble([])
        assert outcome.num_matches == 0
        assert outcome.groups == 0

    def test_matches_are_complete_and_distinct(self, example_partitioning, example_query_graph):
        lpms = collect_lpms(example_partitioning, example_query_graph)
        outcome = LECAssembler(example_query_graph).assemble(lpms)
        assignments = [m.assignment for m in outcome.matches]
        assert len(assignments) == len(set(assignments))
        for match in outcome.matches:
            assert match.is_complete(example_query_graph)

    def test_bindings_project_variables_only(self, example_partitioning, example_query_graph):
        lpms = collect_lpms(example_partitioning, example_query_graph)
        outcome = LECAssembler(example_query_graph).assemble(lpms)
        for binding in outcome.bindings():
            assert all(variable.is_variable for variable in binding.variables)

    @pytest.mark.parametrize("use_lec_grouping", [True, False], ids=["lec", "basic"])
    def test_a_predicate_variable_binds_one_label_in_rows_and_bindings(self, use_lec_grouping):
        """Crossing matches of ``?a ?p ?b . ?b ?p ?c`` give ``?p`` a cell, the
        label both edges carry; partial evaluation labels each edge alone."""
        graph = random_graph(1050, 10, 22, 2)
        query = parse_query("PREFIX ex: <http://example.org/random/> SELECT ?a ?p ?c WHERE { ?a ?p ?b . ?b ?p ?c }")
        query_graph = QueryGraph(query.bgp)
        lpms = collect_lpms(build_partitioned_graph(graph, random_assignment(graph, 7, 3), 3), query_graph)
        outcome = assemble_matches(query_graph, lpms, use_lec_grouping=use_lec_grouping)
        projection = query.effective_projection
        rows = [tuple(map(binding.get, projection)) for binding in outcome.bindings()]
        assert rows == outcome.rows(projection) and rows
        for binding in outcome.bindings():
            a, p, b, c = (binding.get(variable) for variable in query.variables)
            assert Triple(a, p, b) in graph and Triple(b, p, c) in graph

    def test_same_fragment_lpms_can_participate_in_one_match(self):
        """A crossing match may need two LPMs of the same fragment (two
        disconnected internal regions) — the BQ4 regression scenario."""
        graph = btc.generate(scale=1)
        query_graph = QueryGraph(btc.queries()["BQ4"].bgp)
        partitioned = HashPartitioner(4).partition(graph)
        lpms = collect_lpms(partitioned, query_graph)
        outcome = LECAssembler(query_graph).assemble(lpms)
        multi_region = [m for m in outcome.matches if len(m.fragments) < 4 and len(m.fragments) >= 2]
        assert outcome.num_matches > 0
        assert multi_region or all(len(m.fragments) >= 1 for m in outcome.matches)

    def test_group_count_reported(self, example_partitioning, example_query_graph):
        lpms = collect_lpms(example_partitioning, example_query_graph)
        outcome = LECAssembler(example_query_graph).assemble(lpms)
        assert outcome.groups >= 4


class TestOneIdSpace:
    """The joins compare ids, so every operand must come from one dictionary."""

    def test_lpms_of_two_dictionaries_raise(self, example_partitioning, example_query_graph):
        # Without a site's index, each fragment is encoded over its own dictionary.
        lpms_by_fragment = {
            fragment.fragment_id: evaluate_fragment(fragment, example_query_graph).local_partial_matches
            for fragment in example_partitioning
        }
        lpms = [lpm for found in lpms_by_fragment.values() for lpm in found]
        with pytest.raises(ValueError, match="two dictionaries"):
            assemble_matches(example_query_graph, lpms)
        features = {site: list(compute_lec_features(found)) for site, found in lpms_by_fragment.items()}
        with pytest.raises(ValueError, match="two dictionaries"):
            prune_features(example_query_graph, features)

    def test_received_messages_keep_their_cluster_space(self, example_partitioning, example_query_graph):
        cluster = build_cluster(example_partitioning)
        sent = [
            LPMList(evaluate_fragment(site.fragment, example_query_graph, graph=site.graph).local_partial_matches)
            for site in cluster
        ]
        received = [lpm for lpms in sent for lpm in pickle.loads(pickle.dumps(lpms))]
        assert {lpm.dictionary.space for lpm in received} == {cluster.dictionary.space}
        expected = LECAssembler(example_query_graph).assemble([lpm for lpms in sent for lpm in lpms])
        assert LECAssembler(example_query_graph).assemble(received).matches == expected.matches
        assert expected.num_matches == 4
