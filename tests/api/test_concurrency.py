"""Determinism of one shared :class:`~repro.api.Session` under parallel queries.

The serving layer's contract (``docs/serving.md``) is that a query returns
the same answers, the same deterministic statistics and the same shipment
breakdown whether it ran alone or next to other queries on other threads.
These tests pin that contract: a serial re-run of every workload query is
fingerprinted first, then a thread storm re-runs them concurrently on the
same session — and every concurrent result
must match its serial fingerprint bit for bit.

Timing fields are deliberately *outside* the fingerprint (wall-clock time is
scheduling-dependent by nature); everything else — rows, work counters,
per-stage shipment and message counts, the per-query ledger snapshot — is in.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import repro

EXAMPLE_SPARQL = (
    "PREFIX ex: <http://example.org/> "
    'SELECT ?p2 ?l WHERE { ?t ex:label ?l . ?p1 ex:influencedBy ?p2 . '
    '?p2 ex:mainInterest ?t . ?p1 ex:name "Crispin Wright"@en . }'
)
STAR_SPARQL = (
    "PREFIX ex: <http://example.org/> "
    "SELECT ?p ?t WHERE { ?p ex:mainInterest ?t . ?p ex:bornIn ?c . }"
)
QUERIES = {"example": EXAMPLE_SPARQL, "star": STAR_SPARQL}

def fingerprint(result):
    """Every deterministic field of a result — no wall-clock anywhere."""
    stats = result.statistics
    stages = tuple(
        (
            stage.name,
            stage.shipped_bytes,
            stage.messages,
            tuple(sorted(stage.counters.items())),
        )
        for stage in stats.stages
    )
    shipment = result.shipment
    ledger = (
        shipment.total_bytes,
        shipment.total_messages,
        tuple(sorted(shipment.bytes_by_stage.items())),
        tuple(sorted(shipment.messages_by_stage.items())),
        tuple(sorted(shipment.bytes_by_kind.items())),
    )
    return (
        tuple(result.sorted_rows()),
        stats.num_results,
        tuple(sorted(stats.work.items())),
        stages,
        ledger,
    )


def test_concurrent_results_match_the_serial_rerun():
    with repro.open(dataset="paper") as session:
        # Warm-up: the first execution of each query populates the plan
        # cache, so plan_cache counters are identical for every later run.
        for text in QUERIES.values():
            session.query(text)
        serial = {name: fingerprint(session.query(text)) for name, text in QUERIES.items()}

        def storm(thread_index):
            name = list(QUERIES)[thread_index % len(QUERIES)]
            return name, fingerprint(session.query(QUERIES[name]))

        with ThreadPoolExecutor(max_workers=8, thread_name_prefix="storm") as pool:
            outcomes = list(pool.map(storm, range(16)))
    for name, concurrent_fingerprint in outcomes:
        assert concurrent_fingerprint == serial[name]


def test_concurrent_mixed_engines_match_their_serial_reruns():
    """gStoreD, the centralized matcher and a baseline share one session."""
    engines = ("gstored", "centralized", "dream")
    with repro.open(dataset="paper") as session:
        for engine in engines:
            session.query("example", engine=engine)  # warm plan + engine caches
        serial = {
            engine: fingerprint(session.query("example", engine=engine))
            for engine in engines
        }

        def storm(thread_index):
            engine = engines[thread_index % len(engines)]
            return engine, fingerprint(session.query("example", engine=engine))

        with ThreadPoolExecutor(max_workers=6, thread_name_prefix="mixed") as pool:
            outcomes = list(pool.map(storm, range(18)))
    answers = {engine: print_rows for engine, (print_rows, *_rest) in serial.items()}
    assert len(set(answers.values())) == 1  # all three engines agree on the query
    for engine, concurrent_fingerprint in outcomes:
        assert concurrent_fingerprint == serial[engine]


def test_shipment_ledger_isolates_overlapping_queries():
    """Two in-flight queries never see each other's messages.

    A barrier forces both threads to be inside ``session.query`` at the same
    time; each result's ledger snapshot must equal the single-query shipment.
    """
    with repro.open(dataset="paper") as session:
        session.query("example")
        alone = session.query("example")
        barrier = threading.Barrier(2, timeout=30)
        results = {}

        def run(slot):
            barrier.wait()
            results[slot] = session.query("example")

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    for result in results.values():
        assert result.shipment.total_bytes == alone.shipment.total_bytes
        assert result.shipment.total_messages == alone.shipment.total_messages
        assert result.statistics.total_shipment_bytes == alone.statistics.total_shipment_bytes


class TestUpdateSerialization:
    """``Session.update`` holds an exclusive writer gate against queries.

    PR 7 made one session safe under parallel queries; a mutation must
    therefore wait for every in-flight query to drain (and hold new ones
    back) instead of patching encodings and fragments under their feet.
    """

    def test_update_waits_for_inflight_queries(self):
        from repro.rdf import IRI, Triple

        with repro.open(dataset="paper", executor="serial") as session:
            engine = session.engine()
            query_entered = threading.Event()
            release_query = threading.Event()
            update_done = threading.Event()
            real_execute = engine.execute

            def slow_execute(*args, **kwargs):
                query_entered.set()
                assert release_query.wait(10)
                return real_execute(*args, **kwargs)

            engine.execute = slow_execute
            ex = "http://example.org/"
            added = Triple(IRI(ex + "Gated"), IRI(ex + "name"), IRI(ex + "GatedName"))

            def run_query():
                session.query("example")

            def run_update():
                assert query_entered.wait(10)
                session.update(add=[added])
                update_done.set()

            query_thread = threading.Thread(target=run_query)
            update_thread = threading.Thread(target=run_update)
            query_thread.start()
            update_thread.start()
            assert query_entered.wait(10)
            # The query is parked inside execute() holding the read side of
            # the gate: the update must not complete until it finishes.
            assert not update_done.wait(0.3)
            release_query.set()
            query_thread.join(10)
            update_thread.join(10)
            assert update_done.is_set()
            assert added in set(session.graph)

    def test_queries_issued_during_an_update_see_the_mutated_state(self):
        from repro.distributed.cluster import Cluster
        from repro.rdf import IRI, Triple

        with repro.open(dataset="paper", executor="serial") as session:
            ex = "http://example.org/"
            added = Triple(IRI(ex + "Held"), IRI(ex + "name"), IRI(ex + "HeldName"))
            update_entered = threading.Event()
            release_update = threading.Event()
            real_apply = Cluster.apply

            def slow_apply(cluster, *args, **kwargs):
                update_entered.set()
                assert release_update.wait(10)
                return real_apply(cluster, *args, **kwargs)

            rows = []

            def run_update():
                session.update(add=[added])

            def run_query():
                assert update_entered.wait(10)
                # Issued mid-update: must block until the writer releases,
                # then observe the fully-applied mutation.
                result = session.query(
                    "PREFIX ex: <http://example.org/> "
                    "SELECT ?n WHERE { ex:Held ex:name ?n . }"
                )
                rows.append(result.sorted_rows())

            import unittest.mock

            with unittest.mock.patch.object(Cluster, "apply", slow_apply):
                update_thread = threading.Thread(target=run_update)
                query_thread = threading.Thread(target=run_query)
                update_thread.start()
                query_thread.start()
                assert update_entered.wait(10)
                assert not rows  # the query is gated behind the writer
                release_update.set()
                update_thread.join(10)
                query_thread.join(10)
            assert len(rows) == 1 and len(rows[0]) == 1

    def test_close_waits_for_an_inflight_update(self, tmp_path):
        """Regression: ``close()`` returned at once and closed the store under a
        running update, whose journal write then failed after the cluster had
        applied the delta in memory."""
        import unittest.mock

        from repro.persist import ClusterStore
        from repro.rdf import IRI, Triple

        path = str(tmp_path / "paper.store")
        session = repro.open(dataset="paper", path=path)
        ex = "http://example.org/"
        added = Triple(IRI(ex + "Journaled"), IRI(ex + "name"), IRI(ex + "JournaledName"))
        journaling = threading.Event()
        release_journal = threading.Event()
        closed = threading.Event()
        errors = []
        real_append_ops = ClusterStore.append_ops

        def slow_append_ops(store, ops):
            journaling.set()
            assert release_journal.wait(10)
            return real_append_ops(store, ops)

        def run_update():
            try:
                session.update(add=[added])
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        def run_close():
            session.close()
            closed.set()

        with unittest.mock.patch.object(ClusterStore, "append_ops", slow_append_ops):
            update_thread = threading.Thread(target=run_update)
            update_thread.start()
            assert journaling.wait(10)
            close_thread = threading.Thread(target=run_close)
            close_thread.start()
            assert not closed.wait(0.3)  # the close waits for the journal write
            release_journal.set()
            update_thread.join(10)
            close_thread.join(10)
        assert not update_thread.is_alive() and closed.is_set() and errors == []
        with repro.open(path=path) as reopened:
            assert added in set(reopened.graph)

    def test_an_update_queued_behind_close_raises_and_changes_nothing(self):
        from repro.rdf import IRI, Triple

        session = repro.open(dataset="paper")
        engine = session.engine()
        closing = threading.Event()
        release_close = threading.Event()
        real_close = engine.close

        def slow_close():
            closing.set()
            assert release_close.wait(10)
            real_close()

        engine.close = slow_close
        ex = "http://example.org/"
        added = Triple(IRI(ex + "Late"), IRI(ex + "name"), IRI(ex + "LateName"))
        before = set(session.graph)
        outcome = []

        def run_update():
            try:
                session.update(add=[added])
                outcome.append("applied")
            except RuntimeError as error:
                outcome.append(error)

        close_thread = threading.Thread(target=session.close)
        close_thread.start()
        assert closing.wait(10)
        update_thread = threading.Thread(target=run_update)
        update_thread.start()
        update_thread.join(0.3)
        assert update_thread.is_alive()  # queued behind the close
        release_close.set()
        close_thread.join(10)
        update_thread.join(10)
        assert not close_thread.is_alive() and not update_thread.is_alive()
        (error,) = outcome
        assert isinstance(error, RuntimeError) and "closed" in str(error)
        assert set(session.graph) == before

    def test_close_waits_for_an_inflight_query(self):
        session = repro.open(dataset="paper")
        engine = session.engine()
        query_entered = threading.Event()
        release_query = threading.Event()
        closed = threading.Event()
        rows = []
        real_execute = engine.execute

        def slow_execute(*args, **kwargs):
            query_entered.set()
            assert release_query.wait(10)
            return real_execute(*args, **kwargs)

        def run_close():
            session.close()
            closed.set()

        engine.execute = slow_execute
        query_thread = threading.Thread(target=lambda: rows.append(len(session.query("example"))))
        query_thread.start()
        assert query_entered.wait(10)
        close_thread = threading.Thread(target=run_close)
        close_thread.start()
        assert not closed.wait(0.3)  # the engines stay open under the query
        release_query.set()
        query_thread.join(10)
        close_thread.join(10)
        assert not query_thread.is_alive() and rows == [4] and closed.is_set()

    def test_a_query_queued_behind_close_raises(self):
        session = repro.open(dataset="paper")
        engine = session.engine()
        closing = threading.Event()
        release_close = threading.Event()
        outcome = []
        real_close = engine.close

        def slow_close():
            closing.set()
            assert release_close.wait(10)
            real_close()

        def run_query():
            try:
                outcome.append(len(session.query("example")))
            except RuntimeError as error:
                outcome.append(error)

        engine.close = slow_close
        close_thread = threading.Thread(target=session.close)
        close_thread.start()
        assert closing.wait(10)
        query_thread = threading.Thread(target=run_query)
        query_thread.start()
        query_thread.join(0.3)
        assert query_thread.is_alive()  # queued behind the close
        release_close.set()
        close_thread.join(10)
        query_thread.join(10)
        assert not close_thread.is_alive() and not query_thread.is_alive()
        (error,) = outcome
        assert isinstance(error, RuntimeError) and "closed" in str(error)
