"""Unit and integration tests for the gStoreD engine pipeline."""

import pytest

from repro.core import (
    ABLATION_CONFIGS,
    EngineConfig,
    GStoreDEngine,
    STAGE_ASSEMBLY,
    STAGE_CANDIDATES,
    STAGE_PARTIAL_EVAL,
    STAGE_PLANNING,
    STAGE_PRUNING,
)
from repro.datasets import lubm
from repro.distributed import build_cluster
from repro.obs import Trace
from repro.partition import HashPartitioner
from repro.rdf import Triple
from repro.store import evaluate_centralized
from repro.sparql import parse_query

UB = "PREFIX ub: <http://example.org/univ-bench#> "


@pytest.fixture(scope="module")
def lubm_setup():
    graph = lubm.generate(scale=1)
    cluster = build_cluster(HashPartitioner(4).partition(graph))
    return graph, cluster, lubm.queries()


class TestPipelineStages:
    def test_all_stages_present_for_complex_query(self, lubm_setup):
        graph, cluster, queries = lubm_setup
        result = GStoreDEngine(cluster, EngineConfig.full()).execute(queries["LQ1"], query_name="LQ1")
        names = [stage.name for stage in result.statistics.stages]
        assert names == [
            STAGE_PLANNING,
            STAGE_CANDIDATES,
            STAGE_PARTIAL_EVAL,
            STAGE_PRUNING,
            STAGE_ASSEMBLY,
        ]

    def test_star_query_skips_optimizations(self, lubm_setup):
        graph, cluster, queries = lubm_setup
        result = GStoreDEngine(cluster, EngineConfig.full()).execute(queries["LQ2"], query_name="LQ2")
        stats = result.statistics
        assert stats.counter(STAGE_PARTIAL_EVAL, "local_partial_matches") == 0
        assert stats.find_stage(STAGE_CANDIDATES).parallel_time_ms == 0
        assert stats.find_stage(STAGE_PRUNING).shipped_bytes == 0
        assert stats.extra["query_shape"] == "star"

    def test_star_shortcut_can_be_disabled(self, lubm_setup):
        graph, cluster, queries = lubm_setup
        central = evaluate_centralized(graph, queries["LQ4"])
        config = EngineConfig.full().with_options(star_shortcut=False)
        result = GStoreDEngine(cluster, config).execute(queries["LQ4"], query_name="LQ4")
        assert result.results.same_solutions(
            central.project(queries["LQ4"].effective_projection, distinct=True)
        )

    def test_basic_config_has_no_pruning_or_candidate_stage_costs(self, lubm_setup):
        graph, cluster, queries = lubm_setup
        result = GStoreDEngine(cluster, EngineConfig.basic()).execute(queries["LQ1"], query_name="LQ1")
        stats = result.statistics
        assert stats.find_stage(STAGE_PRUNING) is None or stats.find_stage(STAGE_PRUNING).shipped_bytes == 0
        assert stats.counter(STAGE_PRUNING, "lec_features", default=0) == 0
        assert stats.counter(STAGE_CANDIDATES, "variables", default=0) == 0

    def test_pruning_reports_feature_counts(self, lubm_setup):
        graph, cluster, queries = lubm_setup
        result = GStoreDEngine(cluster, EngineConfig.lec_optimized()).execute(queries["LQ1"], query_name="LQ1")
        stats = result.statistics
        assert stats.counter(STAGE_PRUNING, "lec_features") > 0
        assert stats.counter(STAGE_PRUNING, "surviving_features") <= stats.counter(STAGE_PRUNING, "lec_features")

    def test_data_shipment_recorded_for_each_stage(self, lubm_setup):
        graph, cluster, queries = lubm_setup
        with cluster.bus.ledger() as ledger:
            result = GStoreDEngine(cluster, EngineConfig.full()).execute(queries["LQ1"], query_name="LQ1")
        stats = result.statistics
        assert stats.find_stage(STAGE_CANDIDATES).shipped_bytes > 0
        assert stats.find_stage(STAGE_PRUNING).shipped_bytes > 0
        assert stats.find_stage(STAGE_ASSEMBLY).shipped_bytes > 0
        assert stats.total_shipment_bytes == ledger.total_bytes

    def test_metadata_recorded(self, lubm_setup):
        graph, cluster, queries = lubm_setup
        result = GStoreDEngine(cluster).execute(queries["LQ6"], query_name="LQ6", dataset="LUBM")
        stats = result.statistics
        assert stats.query_name == "LQ6"
        assert stats.dataset == "LUBM"
        assert stats.engine == "gStoreD"
        assert stats.partitioning == "hash"
        assert stats.extra["selective"] is True


    def test_a_disconnected_query_adds_up_its_components(self, lubm_setup):
        """Each component enters partial evaluation once; the stage keeps the
        site time, bytes and messages of both."""
        graph, cluster, queries = lubm_setup
        query = parse_query(
            UB + "PREFIX u: <http://example.org/university/> SELECT * WHERE { "
            "?s ub:memberOf ?d . ?d ub:subOrganizationOf u:University0 . "
            "?s ub:undergraduateDegreeFrom u:University0 . "
            "?h ub:headOf <http://example.org/university/University0/Department0> . }"
        )
        trace = Trace("query")
        with cluster.bus.ledger() as ledger:
            result = GStoreDEngine(cluster).execute(query, trace=trace)
        trace.finish()
        expected = evaluate_centralized(graph, query).project(query.effective_projection, distinct=True)
        assert len(result) > 1 and result.results.same_solutions(expected)
        spans = trace.find_spans(name=f"stage:{STAGE_PARTIAL_EVAL}")
        assert [span.attrs.get("star_shortcut", False) for span in spans] == [False, True]
        stage = result.statistics.find_stage(STAGE_PARTIAL_EVAL)
        for site_id, seconds in stage.site_times_s.items():
            tasks = [t for span in spans for t in trace.children(span) if t.attrs["site_id"] == site_id]
            assert len(tasks) == 2 and seconds == pytest.approx(sum(t.duration_s for t in tasks))
        assert sorted(stage.site_times_s) == sorted(cluster.site_ids)
        assert stage.messages == 2 * cluster.num_sites
        assert stage.shipped_bytes == sum(span.attrs["shipped_bytes"] for span in spans)
        assert all(span.attrs["messages"] == cluster.num_sites for span in spans)
        assert ledger.snapshot().bytes_by_stage[STAGE_PARTIAL_EVAL] == stage.shipped_bytes


class TestCorrectness:
    @pytest.mark.parametrize("query_name", ["LQ1", "LQ2", "LQ3", "LQ4", "LQ5", "LQ6", "LQ7"])
    def test_every_config_matches_centralized(self, lubm_setup, query_name):
        graph, cluster, queries = lubm_setup
        query = queries[query_name]
        central = evaluate_centralized(graph, query).project(query.effective_projection, distinct=True)
        odd_width = EngineConfig.full().with_options(bit_vector_bits=100)
        for config in (*ABLATION_CONFIGS, odd_width):
            result = GStoreDEngine(cluster, config).execute(query, query_name=query_name)
            assert result.results.same_solutions(central), f"{config} differs on {query_name}"

    def test_result_is_iterable_and_sized(self, lubm_setup):
        graph, cluster, queries = lubm_setup
        result = GStoreDEngine(cluster).execute(queries["LQ6"], query_name="LQ6")
        assert len(result) == len(list(result))

    def test_limit_is_applied(self, lubm_setup):
        graph, cluster, queries = lubm_setup
        query = parse_query(
            "PREFIX ub: <http://example.org/univ-bench#> "
            "SELECT ?s WHERE { ?s ub:advisor ?p . ?p ub:teacherOf ?c . } LIMIT 3"
        )
        result = GStoreDEngine(cluster).execute(query)
        assert len(result.results) == 3


#: Self-loop queries over :func:`looped_lubm`: alone, in a star, on a path
#: of crossing edges, in a cycle, and with a variable predicate.
LOOP_QUERIES = {
    "loop": "SELECT ?s WHERE { ?s ub:advisor ?s . }",
    "loop_in_a_star": "SELECT ?s ?c WHERE { ?s ub:advisor ?s . ?s ub:takesCourse ?c . }",
    "loop_on_a_path": "SELECT ?s ?p ?c WHERE { ?s ub:advisor ?s . ?s ub:advisor ?p . ?p ub:teacherOf ?c . }",
    "loop_in_a_cycle": "SELECT ?s ?c WHERE { ?s ub:advisor ?s . ?s ub:takesCourse ?c . ?p ub:teacherOf ?c . ?s ub:advisor ?p . }",
    "variable_predicate_loop": "SELECT ?s ?q WHERE { ?s ?q ?s . }",
}


@pytest.fixture(scope="module", params=[2, 4], ids=["2_sites", "4_sites"])
def looped_lubm(request):
    """LUBM 1 plus an ``advisor`` loop on every fourth advised student.

    The looped students keep their real advisor, so a loop vertex also has a
    non-loop outgoing edge of the same predicate, often a crossing one.
    """
    graph = lubm.generate(scale=1)
    advisor = lubm.UB.term("advisor")
    for student in sorted({t.subject for t in graph.triples(None, advisor, None)}, key=lambda term: term.n3())[::4]:
        graph.add(Triple(student, advisor, student))
    return graph, build_cluster(HashPartitioner(request.param).partition(graph))


class TestSelfLoops:
    @pytest.mark.parametrize("name", list(LOOP_QUERIES))
    def test_every_config_matches_centralized(self, looped_lubm, name):
        graph, cluster = looped_lubm
        query = parse_query(UB + LOOP_QUERIES[name])
        central = evaluate_centralized(graph, query).project(query.effective_projection, distinct=True)
        assert len(central) > 0
        for config in ABLATION_CONFIGS:
            result = GStoreDEngine(cluster, config).execute(query, query_name=name)
            assert result.results.same_solutions(central), f"{config} differs on {name}"
