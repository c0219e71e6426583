"""Unit tests for the execution backends and the per-site fan-out helper."""

import threading
import time

import pytest

from repro.exec import (
    EXECUTOR_ENV_VAR,
    MAX_WORKERS_ENV_VAR,
    OptionError,
    SerialBackend,
    ThreadPoolBackend,
    default_max_workers,
    make_backend,
    run_per_site,
)


class TestSerialBackend:
    def test_maps_in_order(self):
        backend = SerialBackend()
        assert backend.map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]
        assert backend.name == "serial"
        assert backend.max_workers == 1

    def test_propagates_exceptions(self):
        def boom(x):
            raise RuntimeError(f"task {x}")

        with pytest.raises(RuntimeError, match="task 1"):
            SerialBackend().map(boom, [1, 2])

    def test_empty_batch(self):
        assert SerialBackend().map(lambda x: x, []) == []


class TestThreadPoolBackend:
    def test_results_come_back_in_submission_order(self):
        # Later items finish *first* (shorter sleeps), yet the results must
        # come back in submission order — the determinism contract.
        items = list(range(6))

        def staggered(i):
            time.sleep((len(items) - i) * 0.005)
            return i * 10

        with ThreadPoolBackend(max_workers=6) as backend:
            assert backend.map(staggered, items) == [i * 10 for i in items]

    def test_actually_uses_multiple_threads(self):
        seen = set()
        barrier = threading.Barrier(3, timeout=5)

        def task(i):
            barrier.wait()  # deadlocks unless 3 tasks run concurrently
            seen.add(threading.current_thread().name)
            return i

        with ThreadPoolBackend(max_workers=3) as backend:
            assert backend.map(task, [0, 1, 2]) == [0, 1, 2]
        assert len(seen) >= 2

    def test_single_item_runs_inline(self):
        with ThreadPoolBackend(max_workers=4) as backend:
            thread_names = backend.map(lambda _: threading.current_thread().name, ["x"])
        assert thread_names == [threading.current_thread().name]

    def test_propagates_exceptions(self):
        def boom(x):
            if x == 1:
                raise ValueError("boom")
            return x

        with ThreadPoolBackend(max_workers=2) as backend:
            with pytest.raises(ValueError, match="boom"):
                backend.map(boom, [0, 1, 2])

    def test_usable_after_close(self):
        backend = ThreadPoolBackend(max_workers=2)
        assert backend.map(str, [1, 2]) == ["1", "2"]
        backend.close()
        backend.close()  # idempotent
        assert backend.map(str, [3, 4]) == ["3", "4"]
        backend.close()

    def test_rejects_invalid_worker_counts(self):
        with pytest.raises(ValueError):
            ThreadPoolBackend(max_workers=0)
        with pytest.raises(ValueError):
            ThreadPoolBackend(max_workers=-2)


class TestMakeBackend:
    def test_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        assert isinstance(make_backend(), SerialBackend)

    def test_environment_selects_threads(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "threads")
        monkeypatch.setenv(MAX_WORKERS_ENV_VAR, "3")
        backend = make_backend()
        assert isinstance(backend, ThreadPoolBackend)
        assert backend.max_workers == 3
        backend.close()

    def test_explicit_choice_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "threads")
        assert isinstance(make_backend("serial"), SerialBackend)

    def test_explicit_workers_override_environment(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV_VAR, "3")
        backend = make_backend("threads", 2)
        assert backend.max_workers == 2
        backend.close()

    @pytest.mark.parametrize("environment", [None, "processes"])
    def test_workers_alone_means_threads(self, monkeypatch, environment):
        if environment is None:
            monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(EXECUTOR_ENV_VAR, environment)
        with make_backend(workers=2) as backend:
            assert isinstance(backend, ThreadPoolBackend)
            assert backend.max_workers == 2

    @pytest.mark.parametrize(
        "executor, workers, message, options",
        [
            (None, 0, "workers must be >= 1", {"workers": 0}),
            ("threads", -1, "workers must be >= 1", {"workers": -1}),
            ("serial", 2, "executor 'serial' has none", {"executor": "serial", "workers": 2}),
            ("mpi", None, "unknown executor 'mpi'", {"executor": "mpi"}),
        ],
        ids=["zero-workers", "negative-workers", "serial-with-workers", "unknown-executor"],
    )
    def test_rejected_choices_name_the_option(self, executor, workers, message, options):
        with pytest.raises(OptionError, match=message) as excinfo:
            make_backend(executor, workers)
        assert isinstance(excinfo.value, ValueError)
        assert excinfo.value.options == options

    def test_unknown_executor_error_enumerates_choices(self):
        with pytest.raises(ValueError, match="unknown executor") as excinfo:
            make_backend("mpi")
        message = str(excinfo.value)
        for choice in ("serial", "threads", "processes"):
            assert choice in message

    def test_default_max_workers_floor(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV_VAR, raising=False)
        assert default_max_workers() >= 1
        monkeypatch.setenv(MAX_WORKERS_ENV_VAR, "0")
        with pytest.raises(ValueError):
            default_max_workers()

    @pytest.mark.parametrize("junk", ["four", "", "2.5", " 8x"])
    def test_default_max_workers_rejects_non_integers_by_name(self, monkeypatch, junk):
        # A bare int() traceback would not tell the user *which* variable is
        # malformed; the error must name $REPRO_MAX_WORKERS and echo the value.
        monkeypatch.setenv(MAX_WORKERS_ENV_VAR, junk)
        with pytest.raises(ValueError, match=MAX_WORKERS_ENV_VAR) as excinfo:
            default_max_workers()
        assert repr(junk) in str(excinfo.value)


class TestRunPerSite:
    def test_merges_in_site_id_order(self, example_cluster):
        with ThreadPoolBackend(max_workers=4) as backend:

            def staggered(site):
                time.sleep((example_cluster.num_sites - site.site_id) * 0.005)
                return site.site_id

            pairs = run_per_site(example_cluster, staggered, backend)
        assert [site.site_id for site, _ in pairs] == sorted(example_cluster.site_ids)
        assert [result for _, result in pairs] == sorted(example_cluster.site_ids)

    def test_defaults_to_serial(self, example_cluster):
        pairs = run_per_site(example_cluster, lambda site: site.name)
        assert [result for _, result in pairs] == [f"S{i}" for i in example_cluster.site_ids]
