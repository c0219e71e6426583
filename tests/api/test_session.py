"""Tests for the :class:`repro.api.Session` facade and ``repro.open``."""

import threading

import pytest

import repro
from repro import EngineConfig, Session
from repro.exec import OptionError
from repro.api import QueryBatch, Result
from repro.datasets.paper_example import build_example_partitioning, example_query

EXAMPLE_SPARQL = (
    "PREFIX ex: <http://example.org/> "
    'SELECT ?p2 ?l WHERE { ?t ex:label ?l . ?p1 ex:influencedBy ?p2 . '
    '?p2 ex:mainInterest ?t . ?p1 ex:name "Crispin Wright"@en . }'
)


class TestOpen:
    def test_open_defaults_to_the_paper_example(self):
        with repro.open() as session:
            assert session.dataset == "paper-example"
            assert session.num_sites == 3
            assert set(session.queries) == {"example"}

    def test_open_named_dataset_prepares_cluster_and_queries(self):
        with repro.open(dataset="yago2", sites=3) as session:
            assert session.dataset == "YAGO2"
            assert session.num_sites == 3
            assert set(session.queries) == {"YQ1", "YQ2", "YQ3", "YQ4"}
            assert session.partitioned.strategy == "hash"

    def test_open_is_case_insensitive_and_accepts_partitioner(self):
        with repro.open(dataset="LUBM", sites=2, partitioner="metis") as session:
            assert session.partitioned.strategy == "metis"

    def test_unknown_dataset_error_enumerates_choices(self):
        with pytest.raises(ValueError) as excinfo:
            repro.open(dataset="wikidata")
        message = str(excinfo.value)
        for choice in ("BTC", "LUBM", "YAGO2", "paper"):
            assert choice in message

    def test_unknown_engine_fails_before_first_query(self):
        with pytest.raises(ValueError, match="unknown engine"):
            repro.open(dataset="paper", engine="sparkle")

    def test_paper_partitioner_reproduces_figure1(self):
        with repro.open(dataset="paper", partitioner="paper") as session:
            assert session.partitioned.strategy == "figure1"
            assert session.num_sites == 3

    def test_paper_partitioner_rejects_other_site_counts(self):
        with pytest.raises(ValueError, match="3 fragments"):
            repro.open(dataset="paper", partitioner="paper", sites=5)

    def test_paper_partitioner_matching_is_case_insensitive(self):
        with repro.open(dataset="paper", partitioner=" Paper ") as session:
            assert session.partitioned.strategy == "figure1"

    def test_paper_partitioner_on_a_named_dataset_is_explained(self):
        with pytest.raises(ValueError, match="dataset='paper'"):
            repro.open(dataset="lubm", partitioner="paper")

    def test_unknown_partitioner_error_enumerates_choices(self):
        with pytest.raises(ValueError) as excinfo:
            repro.open(dataset="lubm", partitioner="round_robin")
        message = str(excinfo.value)
        for choice in ("hash", "metis", "semantic_hash", "paper"):
            assert choice in message

    def test_config_options_flow_into_the_engine_config(self):
        with repro.open(dataset="paper", use_lec_pruning=False) as session:
            assert session.config.use_lec_pruning is False
            assert session.engine("gstored").config.use_lec_pruning is False

    def test_explicit_config_object_is_honored(self):
        with repro.open(dataset="paper", config=EngineConfig.basic()) as session:
            assert session.config.use_candidate_exchange is False


class TestQuery:
    def test_query_accepts_text_name_and_parsed_query(self):
        with repro.open(dataset="paper") as session:
            by_text = session.query(EXAMPLE_SPARQL)
            by_name = session.query("example")
            by_object = session.query(example_query())
            assert isinstance(by_text, Result)
            assert by_text.sorted_rows() == by_name.sorted_rows() == by_object.sorted_rows()
            # Named benchmark queries stamp their name into the statistics.
            assert by_name.statistics.query_name == "example"
            assert by_name.statistics.dataset == "paper-example"

    def test_query_engine_override_and_caching(self):
        with repro.open(dataset="paper") as session:
            assert session._engines == {}  # engines are created lazily
            session.query("example")  # materializes the default engine
            session.query("example", engine="dream")
            session.query("example", engine="DREAM")  # alias hits the same cache slot
            assert set(session._engines) == {"gstored", "dream"}
            assert session.engine("dream") is session.engine("DREAM")

    def test_each_query_gets_fresh_network_accounting(self):
        with repro.open(dataset="paper") as session:
            first = session.query("example")
            second = session.query("example")
            assert (
                first.statistics.total_shipment_bytes
                == second.statistics.total_shipment_bytes
            )

    @pytest.mark.parametrize("count", ["-1", "-3"])
    def test_a_negative_limit_is_a_syntax_error(self, count):
        """``LIMIT -1`` used to slice ``[:-1]`` and drop rows silently."""
        from repro.sparql import SparqlSyntaxError, format_query

        text = format_query(example_query())
        with repro.open(dataset="paper") as session:
            assert len(session.query(text)) == 4
            assert len(session.query(f"{text}\nLIMIT 2")) == 2
            with pytest.raises(SparqlSyntaxError, match="non-negative integer"):
                session.query(f"{text}\nLIMIT {count}")

    def test_the_serial_fan_out_is_the_default(self):
        with repro.open(dataset="paper", executor="serial") as session:
            assert session.backend.name == "serial"
            result = session.query("example")
            assert "executor" not in result.statistics.extra

    @pytest.mark.parametrize(
        "options",
        [dict(executor="threads"), dict(executor="processes"), dict(workers=2)],
        ids=["threads", "processes", "workers"],
    )
    def test_removed_fan_out_options_are_rejected_by_name(self, options, example_cluster):
        (name,) = options
        with pytest.raises(OptionError, match=name) as excinfo:
            repro.open(dataset="paper", **options)
        assert excinfo.value.options == options
        with pytest.raises(OptionError) as excinfo:
            Session.from_cluster(example_cluster, **options)
        assert excinfo.value.options == options

    @pytest.mark.parametrize(
        "options, message",
        [
            (dict(executor="mpi"), "unknown executor 'mpi'"),
            (dict(result_cache=-1), "result_cache must be >= 0"),
            (dict(bit_vector_width=8), "unknown option"),
        ],
        ids=["unknown-executor", "negative-result-cache", "unknown-config-option"],
    )
    def test_rejected_options_fail_at_open(self, options, message):
        with pytest.raises(OptionError, match=message):
            repro.open(dataset="paper", **options)

    def test_explain_shows_the_plan(self):
        with repro.open(dataset="paper") as session:
            text = session.explain("example")
            assert "query shape" in text
            assert "vertex order" in text

    def test_planner_cache_is_shared_across_queries(self):
        with repro.open(dataset="paper") as session:
            session.query("example")
            hits_before = session.planner.cache.hits
            session.query("example")
            assert session.planner.cache.hits > hits_before


class TestEngineConstructionRace:
    def test_concurrent_engine_calls_build_exactly_once(self, monkeypatch):
        """Regression: the old unlocked check-then-insert could build the
        same engine twice, leaking the loser unclosed."""
        import repro.api.session as session_module

        real_make_engine = session_module.make_engine
        builds = []
        build_gate = threading.Barrier(8, timeout=30)

        def counting_make_engine(name, *args, **kwargs):
            builds.append(name)
            return real_make_engine(name, *args, **kwargs)

        monkeypatch.setattr(session_module, "make_engine", counting_make_engine)
        with repro.open(dataset="paper") as session:
            engines = []

            def grab():
                build_gate.wait()  # maximize the overlap window
                engines.append(session.engine("dream"))

            threads = [threading.Thread(target=grab) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert builds.count("dream") == 1
            assert len({id(engine) for engine in engines}) == 1


class TestFailureFinalization:
    class _ExplodingEngine:
        name = "exploding"

        def execute(self, *args, **kwargs):
            raise RuntimeError("boom in the engine")

        def close(self):
            pass

    def test_failed_query_finishes_the_trace_and_counts_the_failure(self):
        with repro.open(dataset="paper", trace=True) as session:
            session._engines["gstored"] = self._ExplodingEngine()
            with pytest.raises(RuntimeError, match="boom in the engine"):
                session.query("example")
            trace = session.tracer.last
            assert trace is not None
            assert "RuntimeError: boom in the engine" in trace.root.attrs["error"]
            assert trace.duration_s >= 0.0  # root span is closed, not leaked
            failures = session.metrics.snapshot()["repro_query_failures_total"]
            assert sum(failures["series"].values()) == 1
            assert "engine=exploding" in str(list(failures["series"]))

    def test_failure_metrics_work_without_tracing(self):
        with repro.open(dataset="paper") as session:
            session._engines["gstored"] = self._ExplodingEngine()
            with pytest.raises(RuntimeError, match="boom"):
                session.query("example")
            assert "repro_query_failures_total" in session.metrics.prometheus_text()

    def test_close_finishes_even_when_an_engine_close_raises(self):
        class _BadCloseEngine:
            name = "bad-close"

            def close(self):
                raise RuntimeError("close failed")

        session = repro.open(dataset="paper")
        session.query("example")
        session._engines["bad-close"] = _BadCloseEngine()
        with pytest.raises(RuntimeError, match="close failed"):
            session.close()
        assert session.closed
        assert session._engines == {}


class TestEncodedRebuildsDelta:
    def test_record_query_reports_rebuilds_since_open(self):
        """Regression: the gauge used to absorb the whole process history."""

        def gauge_after_one_query():
            with repro.open(dataset="paper") as session:
                session.query("example")
                snapshot = session.metrics.snapshot()["repro_encoded_graph_rebuilds"]
                (value,) = snapshot["series"].values()
                return value

        first = gauge_after_one_query()
        second = gauge_after_one_query()
        # Each session reports only its own builds (one per site fragment of
        # its fresh graph), so the value is identical run after run instead
        # of climbing with the process-global counter.
        assert first == second


class TestQueryMany:
    def test_batch_preserves_order_and_reports_per_query(self):
        with repro.open(dataset="paper") as session:
            batch = session.query_many(["example", EXAMPLE_SPARQL])
            assert isinstance(batch, QueryBatch)
            assert len(batch) == 2
            assert batch[0].sorted_rows() == batch[1].sorted_rows()
            assert [entry["query_name"] for entry in batch.report] == ["example", "(inline)"]
            for entry in batch.report:
                assert entry["engine"] == "gStoreD"
                assert entry["backend"] == "serial"
                assert entry["rows"] == 4
                assert entry["shipped_bytes"] > 0
                assert entry["cache_hit"] is False

    def test_batch_warms_the_plan_cache_once(self):
        with repro.open(dataset="paper") as session:
            batch = session.query_many(["example", "example", "example"])
            assert len(batch) == 3
            # The warmup plus the first execution prime the cache; the later
            # identical queries plan from it.
            assert session.planner.cache.hits >= 2

    def test_batch_engine_override_applies_to_every_query(self):
        with repro.open(dataset="paper") as session:
            batch = session.query_many(["example"], engine="centralized")
            assert batch.report[0]["engine"] == "Centralized"

    def test_batch_reports_cache_hits(self):
        with repro.open(dataset="paper", result_cache=4) as session:
            batch = session.query_many(["example", "example"])
            assert [entry["cache_hit"] for entry in batch.report] == [False, True]


class TestLifecycle:
    def test_close_shuts_engines_down(self):
        session = repro.open(dataset="paper")
        session.query("example")
        session.close()
        assert session.closed
        assert session._engines == {}

    def test_close_is_idempotent(self):
        session = repro.open(dataset="paper")
        session.close()
        session.close()

    def test_closed_session_rejects_work(self):
        session = repro.open(dataset="paper")
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.query("example")
        with pytest.raises(RuntimeError, match="closed"):
            session.explain("example")
        with pytest.raises(RuntimeError, match="closed"):
            session.engine("dream")

    def test_context_manager_closes_on_exception(self):
        with pytest.raises(KeyError):
            with repro.open(dataset="paper") as session:
                raise KeyError("boom")
        assert session.closed


class TestAlternativeConstructors:
    def test_from_partitioned_wraps_a_custom_partitioning(self):
        partitioned = build_example_partitioning()
        with Session.from_partitioned(partitioned, dataset="custom") as session:
            assert session.partitioned is partitioned
            result = session.query(EXAMPLE_SPARQL)
            assert len(result) == 4

    def test_from_cluster_shares_the_caller_cluster(self):
        from repro.distributed import build_cluster

        cluster = build_cluster(build_example_partitioning())
        with Session.from_cluster(cluster) as session:
            assert session.cluster is cluster
            assert len(session.query(EXAMPLE_SPARQL)) == 4


class TestCustomRegisteredEngines:
    def test_accepts_config_engines_get_the_session_config(self):
        """Sessions dispatch on EngineSpec.accepts_config, not on the name."""
        from repro.api import EngineSpec, register_engine
        from repro.api.engines import _ALIASES, _REGISTRY

        captured = {}

        def factory(cluster, config):
            captured["config"] = config
            return repro.make_engine("gstored", cluster, config=config)

        register_engine(
            EngineSpec(
                name="custom-gstored",
                summary="test double",
                factory=factory,
                accepts_config=True,
            )
        )
        try:
            with repro.open(dataset="paper", engine="custom-gstored") as session:
                result = session.query("example")
                assert len(result) == 4
                assert captured["config"] is session.config
        finally:
            _REGISTRY.pop("custom-gstored", None)
            _ALIASES.pop("custom-gstored", None)
