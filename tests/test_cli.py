"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.rdf import load as load_ntriples


@pytest.fixture()
def dataset_file(tmp_path):
    path = tmp_path / "lubm.nt"
    exit_code = main(["generate", "LUBM", "--scale", "1", "--output", str(path)])
    assert exit_code == 0
    return path


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_arguments(self):
        args = build_parser().parse_args(["generate", "YAGO2", "--output", "x.nt", "--scale", "2"])
        assert args.dataset == "YAGO2"
        assert args.scale == 2

    def test_query_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--query", "SELECT * WHERE { ?s ?p ?o }"])


class TestGenerate:
    def test_generate_writes_ntriples(self, dataset_file):
        graph = load_ntriples(dataset_file)
        assert len(graph) > 500

    def test_generate_respects_seed(self, tmp_path):
        a, b = tmp_path / "a.nt", tmp_path / "b.nt"
        main(["generate", "BTC", "--seed", "5", "--output", str(a)])
        main(["generate", "BTC", "--seed", "5", "--output", str(b)])
        assert a.read_text() == b.read_text()


class TestPartition:
    def test_partition_prints_cost(self, dataset_file, capsys):
        exit_code = main(["partition", str(dataset_file), "--strategy", "hash", "--sites", "3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "cost" in output
        assert "crossing_edges" in output

    def test_partition_saves_workspace(self, dataset_file, tmp_path, capsys):
        workspace = tmp_path / "ws"
        exit_code = main(
            ["partition", str(dataset_file), "--sites", "3", "--workspace", str(workspace)]
        )
        assert exit_code == 0
        assert (workspace / "graph.nt").exists()
        assert (workspace / "partitioning.json").exists()

    @pytest.mark.slow
    def test_partition_with_refinement(self, dataset_file, capsys):
        exit_code = main(["partition", str(dataset_file), "--sites", "3", "--refine"])
        assert exit_code == 0
        assert "refinement:" in capsys.readouterr().out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        exit_code = main(["partition", str(tmp_path / "missing.nt")])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err


class TestQuery:
    QUERY = (
        "PREFIX ub: <http://example.org/univ-bench#> "
        "SELECT ?s ?d WHERE { ?s ub:memberOf ?d . ?d ub:subOrganizationOf ?u . }"
    )

    def test_query_over_adhoc_partitioning(self, dataset_file, capsys):
        exit_code = main(
            ["query", "--data", str(dataset_file), "--sites", "3", "--query", self.QUERY]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "solutions" in output

    def test_query_over_saved_workspace(self, dataset_file, tmp_path, capsys):
        workspace = tmp_path / "ws"
        main(["partition", str(dataset_file), "--sites", "3", "--workspace", str(workspace)])
        capsys.readouterr()
        exit_code = main(["query", "--workspace", str(workspace), "--query", self.QUERY, "--show-stats"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "solutions" in output
        assert "stage" in output

    def test_query_from_file_with_baseline_engine(self, dataset_file, tmp_path, capsys):
        query_file = tmp_path / "query.rq"
        query_file.write_text(self.QUERY, encoding="utf-8")
        exit_code = main(
            [
                "query",
                "--data",
                str(dataset_file),
                "--sites",
                "3",
                "--engine",
                "dream",
                "--query-file",
                str(query_file),
            ]
        )
        assert exit_code == 0
        assert "DREAM" in capsys.readouterr().out

    def test_all_engine_aliases_accepted(self, dataset_file, capsys):
        for engine in ("basic", "la", "lo"):
            exit_code = main(
                ["query", "--data", str(dataset_file), "--sites", "2", "--engine", engine, "--query", self.QUERY]
            )
            assert exit_code == 0


class TestQueryEngineRegistry:
    """`repro query --engine` accepts every repro.api registry entry."""

    QUERY = TestQuery.QUERY

    @pytest.mark.parametrize(
        "engine", ("gstored", "dream", "decomp", "cloud", "s2x", "centralized")
    )
    def test_every_registry_engine_runs(self, dataset_file, capsys, engine):
        exit_code = main(
            ["query", "--data", str(dataset_file), "--sites", "2", "--engine", engine, "--query", self.QUERY]
        )
        assert exit_code == 0
        assert "solutions" in capsys.readouterr().out

    @pytest.mark.parametrize("alias", ("s2rdf", "cliquesquare", "DREAM", "central", "gstore-d"))
    def test_legacy_report_names_still_work(self, dataset_file, capsys, alias):
        exit_code = main(
            ["query", "--data", str(dataset_file), "--sites", "2", "--engine", alias, "--query", self.QUERY]
        )
        assert exit_code == 0

    def test_registry_engines_agree_on_solutions(self, dataset_file, capsys):
        outputs = {}
        for engine in ("gstored", "centralized", "dream"):
            main(
                ["query", "--data", str(dataset_file), "--sites", "2", "--engine", engine,
                 "--query", self.QUERY, "--limit", "100"]
            )
            # Drop the banner line; solution lines must be identical.
            outputs[engine] = sorted(capsys.readouterr().out.splitlines()[1:])
        assert outputs["gstored"] == outputs["centralized"] == outputs["dream"]

    def test_newly_registered_engines_are_reachable(self, dataset_file, capsys):
        """The CLI reads the live registry, not an import-time snapshot."""
        from repro.api import EngineSpec, make_engine, register_engine
        from repro.api.engines import _ALIASES, _REGISTRY

        register_engine(
            EngineSpec(
                name="cli-custom",
                summary="test double",
                factory=lambda cluster, config: make_engine("centralized", cluster),
            )
        )
        try:
            exit_code = main(
                ["query", "--data", str(dataset_file), "--sites", "2", "--engine", "cli-custom",
                 "--query", self.QUERY]
            )
            assert exit_code == 0
            assert "solutions" in capsys.readouterr().out
        finally:
            _REGISTRY.pop("cli-custom", None)
            _ALIASES.pop("cli-custom", None)

    def test_unknown_engine_names_every_choice(self, dataset_file, capsys):
        exit_code = main(
            ["query", "--data", str(dataset_file), "--engine", "sparkle", "--query", self.QUERY]
        )
        assert exit_code == 2
        message = capsys.readouterr().err
        assert "unknown engine 'sparkle'" in message
        for choice in ("gstored", "basic", "la", "lo", "dream", "decomp", "cloud", "s2x", "centralized"):
            assert choice in message


def exit_code_of(argv):
    """``main(argv)``, or the code of the ``SystemExit`` argparse raised."""
    try:
        return main(argv)
    except SystemExit as exit:
        return exit.code


class TestQueryExecutor:
    QUERY = TestQuery.QUERY

    def test_explicit_serial_executor_keeps_reference_banner(self, dataset_file, capsys):
        exit_code = main(
            [
                "query",
                "--data",
                str(dataset_file),
                "--sites",
                "3",
                "--executor",
                "serial",
                "--query",
                self.QUERY,
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "solutions" in output
        assert "executor=" not in output

    @pytest.mark.parametrize(
        "flags", [("--workers", "2"), ("--executor", "processes")], ids=["workers", "processes"]
    )
    def test_removed_fan_out_flags_exit_2(self, dataset_file, capsys, flags):
        argv = ["query", "--data", str(dataset_file), "--sites", "2", *flags, "--query", self.QUERY]
        assert exit_code_of(argv) == 2
        assert flags[0] in capsys.readouterr().err

    def test_unknown_executor_names_the_only_choice(self, dataset_file, capsys):
        exit_code = main(
            ["query", "--data", str(dataset_file), "--executor", "mpi", "--query", self.QUERY]
        )
        assert exit_code == 2
        message = capsys.readouterr().err
        assert "unknown executor 'mpi'" in message
        assert "'serial'" in message

    def test_executor_rejected_for_baseline_engines(self, dataset_file, capsys):
        exit_code = main(
            [
                "query",
                "--data",
                str(dataset_file),
                "--sites",
                "2",
                "--engine",
                "dream",
                "--executor",
                "serial",
                "--query",
                self.QUERY,
            ]
        )
        assert exit_code == 2
        assert "--executor" in capsys.readouterr().err


class TestQueryFaults:
    QUERY = TestQuery.QUERY

    def run(self, dataset_file, *extra):
        return main(
            ["query", "--data", str(dataset_file), "--sites", "3", "--query", self.QUERY, *extra]
        )

    def test_recovered_plan_prints_its_summary(self, dataset_file, capsys):
        plan = "kill:1@partial_evaluation;flaky:0@partial_evaluation:2"
        assert self.run(dataset_file, "--inject-faults", plan) == 0
        lines = capsys.readouterr().out.splitlines()
        assert (
            "faults: plan [kill:1@partial_evaluation; flaky:0@partial_evaluation:2] -> "
            "retries=2, site_failures=1, recoveries=1"
        ) in lines
        assert not any(line.startswith("WARNING") for line in lines)

    def test_unrecoverable_loss_warns(self, dataset_file, capsys):
        plan = "kill:1@partial_evaluation:unrecoverable"
        assert self.run(dataset_file, "--inject-faults", plan) == 0
        output = capsys.readouterr().out
        assert "WARNING: partial results — site(s) 1 lost unrecoverably" in output

    def test_inject_faults_rejected_for_baseline_engines(self, dataset_file, capsys):
        exit_code = self.run(
            dataset_file, "--engine", "dream", "--inject-faults", "kill:1@partial_evaluation"
        )
        assert exit_code == 2
        message = capsys.readouterr().err
        assert "--inject-faults" in message
        assert "fault injection" in message


class TestQueryObservability:
    QUERY = TestQuery.QUERY

    def test_trace_writes_a_valid_chrome_trace(self, dataset_file, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        exit_code = main(
            ["query", "--data", str(dataset_file), "--sites", "3", "--query", self.QUERY,
             "--trace", str(trace_path)]
        )
        assert exit_code == 0
        assert f"trace: wrote" in capsys.readouterr().out
        payload = json.loads(trace_path.read_text(encoding="utf-8"))
        events = validate_chrome_trace(payload)
        assert any(event["name"].startswith("stage:") for event in events)

    def test_trace_works_for_baseline_engines(self, dataset_file, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace_path = tmp_path / "t.json"
        exit_code = main(
            ["query", "--data", str(dataset_file), "--sites", "2", "--engine", "dream",
             "--query", self.QUERY, "--trace", str(trace_path)]
        )
        assert exit_code == 0
        assert "trace: wrote" in capsys.readouterr().out
        events = validate_chrome_trace(json.loads(trace_path.read_text(encoding="utf-8")))
        assert any(event["name"].startswith("stage:") for event in events)

    def test_metrics_prints_a_prometheus_exposition(self, dataset_file, capsys):
        exit_code = main(
            ["query", "--data", str(dataset_file), "--sites", "3", "--query", self.QUERY,
             "--metrics"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "# TYPE repro_queries_total counter" in output
        assert "# TYPE repro_stage_seconds histogram" in output
        assert "repro_stage_seconds_bucket" in output
        assert "repro_plan_cache_hits_total" in output

    def test_metrics_works_with_baseline_engines(self, dataset_file, capsys):
        exit_code = main(
            ["query", "--data", str(dataset_file), "--sites", "2", "--engine", "dream",
             "--query", self.QUERY, "--metrics"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert 'repro_queries_total{engine="DREAM"} 1' in output

    def test_tracing_does_not_change_the_solution_lines(self, dataset_file, tmp_path, capsys):
        main(["query", "--data", str(dataset_file), "--sites", "3", "--query", self.QUERY,
              "--limit", "100"])
        plain = capsys.readouterr().out.splitlines()
        main(["query", "--data", str(dataset_file), "--sites", "3", "--query", self.QUERY,
              "--limit", "100", "--trace", str(tmp_path / "t.json")])
        traced = capsys.readouterr().out.splitlines()
        # Identical banner + solutions; the traced run only appends its footer.
        assert traced[: len(plain)] == plain
        assert traced[len(plain)].startswith("trace: wrote")


class TestExplainObservability:
    QUERY = TestQuery.QUERY

    def test_explain_trace_covers_statistics_and_planning(self, dataset_file, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace_path = tmp_path / "explain.json"
        exit_code = main(
            ["explain", "--data", str(dataset_file), "--sites", "3", "--query", self.QUERY,
             "--trace", str(trace_path)]
        )
        assert exit_code == 0
        events = validate_chrome_trace(json.loads(trace_path.read_text(encoding="utf-8")))
        names = {event["name"] for event in events}
        assert "collect_statistics" in names
        assert "plan" in names

    def test_explain_metrics_reports_phase_timings(self, dataset_file, capsys):
        exit_code = main(
            ["explain", "--data", str(dataset_file), "--sites", "3", "--query", self.QUERY,
             "--metrics"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert 'repro_stage_seconds_bucket{stage="planning"' in output
        assert 'repro_stage_seconds_bucket{stage="statistics"' in output


class TestExplain:
    QUERY = (
        "PREFIX ub: <http://example.org/univ-bench#> "
        "SELECT ?s ?d WHERE { ?s ub:memberOf ?d . ?d ub:subOrganizationOf ?u . }"
    )

    def test_explain_prints_plan(self, dataset_file, capsys):
        exit_code = main(
            ["explain", "--data", str(dataset_file), "--sites", "3", "--query", self.QUERY]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "statistics:" in output
        assert "vertex order:" in output
        assert "plan source: statistics" in output
        assert "static (seed) order:" in output

    def test_explain_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "--query", "SELECT * WHERE { ?s ?p ?o }"])

    def test_explain_from_query_file(self, dataset_file, tmp_path, capsys):
        query_file = tmp_path / "query.rq"
        query_file.write_text(self.QUERY, encoding="utf-8")
        exit_code = main(
            ["explain", "--data", str(dataset_file), "--sites", "2", "--query-file", str(query_file)]
        )
        assert exit_code == 0
        assert "edge order:" in capsys.readouterr().out

    def test_explain_rejects_other_executors(self, dataset_file, capsys):
        exit_code = main(
            ["explain", "--data", str(dataset_file), "--sites", "3", "--executor", "threads",
             "--query", self.QUERY]
        )
        assert exit_code == 2
        assert "--executor threads" in capsys.readouterr().err


class TestExperiment:
    def test_table4_experiment(self, capsys):
        exit_code = main(["experiment", "table4", "--sites", "3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "semantic_hash" in output

    def test_table2_experiment(self, capsys):
        exit_code = main(["experiment", "table2", "--sites", "3"])
        assert exit_code == 0
        assert "YQ3" in capsys.readouterr().out


class TestServe:
    def test_serve_argument_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.dataset == "paper"
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.max_inflight == 4
        assert args.max_queue == 16
        assert args.result_cache == 0

    def test_serve_accepts_the_full_option_set(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--dataset", "lubm",
                "--scale", "1",
                "--sites", "3",
                "--partitioner", "metis",
                "--engine", "gstored",
                "--executor", "serial",
                "--host", "0.0.0.0",
                "--port", "0",
                "--max-inflight", "2",
                "--max-queue", "1",
                "--result-cache", "8",
            ]
        )
        assert (args.dataset, args.scale, args.sites) == ("lubm", 1, 3)
        assert (args.max_inflight, args.max_queue, args.result_cache) == (2, 1, 8)

    def test_serve_rejects_a_negative_result_cache(self, capsys):
        exit_code = main(["serve", "--result-cache", "-1"])
        assert exit_code == 2
        assert "--result-cache" in capsys.readouterr().err

    def test_serve_rejects_other_executors(self, capsys):
        exit_code = main(["serve", "--executor", "processes"])
        assert exit_code == 2
        assert "--executor processes" in capsys.readouterr().err

    def test_serve_answers_http_queries(self, capsys):
        """End to end: bind port 0, query over HTTP, shut down cleanly."""
        import json
        import threading
        import time
        import urllib.request

        import repro.cli as cli_module
        from repro.api.serving import QueryServer

        started = {}
        hold = threading.Event()
        real_serve_forever = QueryServer.serve_forever

        def capturing_serve_forever(self):
            started["server"] = self
            hold.set()
            real_serve_forever(self)

        QueryServer.serve_forever = capturing_serve_forever
        try:
            thread = threading.Thread(
                target=cli_module.main,
                args=(["serve", "--port", "0", "--result-cache", "4"],),
                daemon=True,
            )
            thread.start()
            assert hold.wait(timeout=60)
            server = started["server"]
            host, port = server.address
            request = urllib.request.Request(
                f"http://{host}:{port}/query",
                data=json.dumps({"query": "example"}).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                body = json.loads(response.read())
            assert body["num_rows"] == 4
            server.shutdown()
            thread.join(timeout=30)
            assert not thread.is_alive()
        finally:
            QueryServer.serve_forever = real_serve_forever


class TestStore:
    def test_store_build_writes_a_store_file(self, tmp_path, capsys):
        path = tmp_path / "paper.store"
        exit_code = main(["store", "build", "--output", str(path)])
        assert exit_code == 0
        assert path.exists()
        output = capsys.readouterr().out
        assert "built" in output
        assert "file_bytes:" in output

    def test_store_build_refuses_to_clobber_without_force(self, tmp_path, capsys):
        path = tmp_path / "paper.store"
        assert main(["store", "build", "--output", str(path)]) == 0
        capsys.readouterr()
        exit_code = main(["store", "build", "--output", str(path)])
        assert exit_code == 2
        message = capsys.readouterr().err
        assert "error" in message
        assert "--force" in message

    def test_store_build_force_rebuilds(self, tmp_path, capsys):
        path = tmp_path / "paper.store"
        assert main(["store", "build", "--output", str(path)]) == 0
        assert main(["store", "build", "--output", str(path), "--force"]) == 0

    def test_store_info_prints_the_manifest(self, tmp_path, capsys):
        path = tmp_path / "paper.store"
        main(["store", "build", "--output", str(path)])
        capsys.readouterr()
        exit_code = main(["store", "info", str(path)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "dataset: paper-example" in output
        assert "pending_deltas: 0" in output

    def test_store_info_missing_file_is_exit_two(self, tmp_path, capsys):
        exit_code = main(["store", "info", str(tmp_path / "missing.store")])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_store_compact_folds_the_journal(self, tmp_path, capsys):
        from repro.persist import ClusterStore
        from repro.rdf import IRI, Triple

        path = tmp_path / "paper.store"
        main(["store", "build", "--output", str(path)])
        with ClusterStore.open(str(path)) as store:
            cluster = store.load_cluster()
            cluster.apply(add=[Triple(
                IRI("http://example.org/cli-s"),
                IRI("http://example.org/cli-p"),
                IRI("http://example.org/cli-o"),
            )])
            cluster.attach_store(None)
        capsys.readouterr()
        exit_code = main(["store", "compact", str(path)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "folded 1 delta" in output

    def test_queries_over_a_built_store_match_the_example(self, tmp_path, capsys):
        import repro

        path = tmp_path / "paper.store"
        main(["store", "build", "--output", str(path)])
        with repro.open(dataset="paper") as baseline:
            expected = baseline.query("example")
            with repro.open(path=str(path)) as warm:
                observed = warm.query("example")
                assert observed.same_solutions(expected)
