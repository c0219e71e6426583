"""Regression tests for failure paths the concurrency PR left half-covered.

Three contracts from ``docs/serving.md`` that only had happy-path coverage:

* ``Session.query_many`` hitting an engine exception mid-batch must
  propagate it, leave a failure-metric footprint, and leave the session —
  including the message bus's per-thread ledger stacks — clean enough that
  the next query works;
* cancelling an ``AsyncSession`` query mid-flight must not poison the shared
  session or its thread pool;
* failed queries must never populate the opt-in
  :class:`~repro.api.ResultCache`.
"""

import asyncio

import pytest

import repro


@pytest.fixture()
def session():
    with repro.open(dataset="paper", partitioner="paper") as open_session:
        yield open_session


# ----------------------------------------------------------------------
# query_many: engine exception mid-batch
# ----------------------------------------------------------------------
def test_query_many_propagates_a_mid_batch_failure_and_stays_usable(session, monkeypatch):
    engine = session.engine()
    real_execute = engine.execute
    calls = {"n": 0}

    def failing_execute(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("injected engine failure on query 2")
        return real_execute(*args, **kwargs)

    monkeypatch.setattr(engine, "execute", failing_execute)
    with pytest.raises(RuntimeError, match="injected engine failure"):
        session.query_many(["example", "example", "example"])

    # The failure left a metrics footprint...
    failures = session.metrics.snapshot()["repro_query_failures_total"]["series"]
    assert sum(failures.values()) == 1
    # ...no leaked per-thread ledger on the bus...
    assert all(not stack for stack in session.cluster.bus._ledgers.values())
    # ...and the session still answers (batch and single-query paths).
    monkeypatch.setattr(engine, "execute", real_execute)
    batch = session.query_many(["example", "example"])
    assert len(batch) == 2 and all(len(result) == 4 for result in batch)


def test_query_many_failure_returns_no_partial_batch(session, monkeypatch):
    """The batch is all-or-nothing: a mid-batch raise yields no QueryBatch."""
    engine = session.engine()
    monkeypatch.setattr(
        engine, "execute", lambda *a, **k: (_ for _ in ()).throw(RuntimeError("down"))
    )
    with pytest.raises(RuntimeError):
        session.query_many(["example"])
    assert not session.closed


# ----------------------------------------------------------------------
# AsyncSession: cancellation mid-query
# ----------------------------------------------------------------------
def test_async_session_survives_cancellation_mid_query():
    async def scenario():
        async with repro.AsyncSession.open(
            dataset="paper", partitioner="paper"
        ) as async_session:
            task = asyncio.ensure_future(async_session.query("example"))
            # Cancel as early as possible — whether the underlying thread had
            # started the query or not, the facade must stay usable.
            await asyncio.sleep(0)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            follow_up = await async_session.query("example")
            assert len(follow_up) == 4
            # The shared session is still healthy for concurrent callers too.
            results = await asyncio.gather(
                async_session.query("example"), async_session.query("example")
            )
            assert [len(result) for result in results] == [4, 4]

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# ResultCache: failed results never populate it
# ----------------------------------------------------------------------
def test_failed_queries_never_reach_the_cache(monkeypatch):
    with repro.open(
        dataset="paper", partitioner="paper", result_cache=8
    ) as caching_session:
        engine = caching_session.engine()
        monkeypatch.setattr(
            engine, "execute", lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        with pytest.raises(RuntimeError):
            caching_session.query("example")
        assert len(caching_session.result_cache) == 0
        assert caching_session.result_cache.misses == 1
