"""One query graph per query, shared by the coordinator and every site.

The coordinator builds a query's :class:`~repro.sparql.QueryGraph` once
(:meth:`QueryGraph.of`) and holds it for the execution; each site's matcher
asks for the graph of the same BGP and gets that one.  The BGP refers to it
weakly, and every site's candidate pools are keyed by int signatures, not by
the graph, so the graph dies by refcount when the execution drops it.
Sharing must change nothing a caller can see: rows, LPM sequences, work
counters and shipment are those of a run where every site builds its own
graph.

The graph is compiled once too (:func:`repro.store.kernel.compile_query`):
one slot-and-id form of ints serves the pools, the search and partial
evaluation at every site; the coordinator's joins and the answer rows read
only its slots (:func:`repro.store.kernel.query_layout`).  Both are held
beside the graph, never in it, so a task pickles to the same bytes; the ids
are rebuilt when the dictionary grows, since a new term may be a constant
the query named.
"""

import gc
import pickle
import weakref
from contextlib import contextmanager

import pytest

import repro
from repro.core import STAGE_CANDIDATES, site_tasks
from repro.rdf import IRI, Triple
from repro.sparql import QueryGraph, parse_query
from repro.store import kernel
from repro.store.encoding import SIGNATURE_POOLS

PREFIX = (
    "PREFIX ub: <http://example.org/univ-bench#> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
)
#: A star query (the star shortcut: local evaluation at every site) and a
#: triangle (the full pipeline: stage 1, partial evaluation, pruning, assembly).
STAR = PREFIX + "SELECT ?x ?y ?z WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:memberOf ?y . ?x ub:undergraduateDegreeFrom ?z . }"
TRIANGLE = PREFIX + "SELECT ?x ?y ?z WHERE { ?x ub:advisor ?y . ?y ub:teacherOf ?z . ?x ub:takesCourse ?z . }"


@pytest.fixture(scope="module")
def session():
    with repro.open(dataset="lubm", scale=1, sites=6, partitioner="hash", executor="serial") as opened:
        yield opened


@contextmanager
def counting_constructions(monkeypatch):
    built = []
    original = QueryGraph.__init__

    def counting(self, bgp):
        built.append(bgp)
        original(self, bgp)

    monkeypatch.setattr(QueryGraph, "__init__", counting)
    yield built
    monkeypatch.setattr(QueryGraph, "__init__", original)


def signature_caches(session):
    return [site.encoded.memo.get(SIGNATURE_POOLS, {}) for site in session.cluster]


def holds_only_ints(cache):
    """Keys are tuples of int triples; pools are lists, and internal pools sets, of ints."""
    for signature, entry in cache.items():
        assert all(type(item) is int for entry_key in signature for item in entry_key)
        assert all(type(item) is int for item in entry.pool)
        assert entry.internal is None or all(type(item) is int for item in entry.internal)
    return True


def cached_signatures(session, graph):
    """The variables' signatures of ``graph`` each site's cache holds."""
    signatures = set(kernel.compile_query(graph, session.cluster.dictionary).signatures) - {None}
    return [signatures & set(cache) for cache in signature_caches(session)], signatures


class TestOneGraphPerQuery:
    @pytest.mark.parametrize("text", [STAR, TRIANGLE], ids=["star", "triangle"])
    def test_a_six_site_query_builds_one_graph(self, session, monkeypatch, text):
        query = parse_query(text)
        with counting_constructions(monkeypatch) as built:
            result = session.query(query)
        assert len(result) > 0
        assert len(built) == 1 and built[0] is query.bgp

    @pytest.mark.parametrize("name", ["LQ2", "LQ1", "LQ7"])
    def test_named_queries_build_one_graph_per_execution(self, session, monkeypatch, name):
        with counting_constructions(monkeypatch) as built:
            session.query(name)
            session.query(name)
        assert len(built) == 2

    def test_of_returns_the_live_graph_and_holds_it_weakly(self):
        bgp = parse_query(TRIANGLE).bgp
        enabled = gc.isenabled()
        gc.disable()
        try:
            graph = QueryGraph.of(bgp)
            assert QueryGraph.of(bgp) is graph
            assert graph.shape_key is graph.shape_key
            dead = weakref.ref(graph)
            del graph
            assert dead() is None
            assert QueryGraph.of(bgp) is not None
        finally:
            if enabled:
                gc.enable()


class TestNoReferenceCycle:
    @pytest.mark.parametrize("text", [STAR, TRIANGLE], ids=["star", "triangle"])
    def test_the_cache_holds_no_graph_so_the_query_dies_by_refcount(self, session, text):
        enabled = gc.isenabled()
        gc.disable()
        try:
            query = parse_query(text)
            graph = QueryGraph.of(query.bgp)
            session.cluster.site(0).internal_candidates(graph)
            result = session.query(query)
            held, signatures = cached_signatures(session, graph)
            assert held[0] == signatures
            assert all(holds_only_ints(cache) for cache in signature_caches(session))
            alive = weakref.ref(graph)
            del query, graph, result
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    def test_a_pipeline_run_computes_each_signature_once(self, session, monkeypatch):
        seen, graphs = [], []
        original = site_tasks.run_candidate_vectors

        def recording(site, payload):
            output = original(site, payload)
            graphs.append(weakref.ref(payload["query_graph"]))
            held, signatures = cached_signatures(session, payload["query_graph"])
            seen.append(held[site.site_id] == signatures)
            return output

        monkeypatch.setattr(site_tasks, "run_candidate_vectors", recording)
        enabled = gc.isenabled()
        gc.disable()
        try:
            session.query(parse_query(TRIANGLE))
            assert seen == [True] * 6  # stage 1 cached the pools at every site
            assert all(graph() is None for graph in graphs)  # the run is over: its graph is gone
            computed = []
            compute = kernel.ArrayRunner.vertex_pool
            monkeypatch.setattr(
                kernel.ArrayRunner, "vertex_pool", lambda runner, *args: computed.append(args) or compute(runner, *args)
            )
            session.query(parse_query(TRIANGLE))
            assert computed == []  # a recurring query reads every pool from the cache
        finally:
            if enabled:
                gc.enable()


def observed(session, query, monkeypatch):
    """Rows, per-site LPM sequences, work, counters and shipment of one run."""
    lpms = []
    original = site_tasks.run_partial_eval

    def recording(site, payload):
        output = original(site, payload)
        graph = payload["query_graph"]
        lpms.append((site.site_id, [lpm.serialization(graph) for lpm in output.local_partial_matches]))
        return output

    monkeypatch.setattr(site_tasks, "run_partial_eval", recording)
    result = session.query(query)
    monkeypatch.setattr(site_tasks, "run_partial_eval", original)
    statistics = result.statistics
    return {
        "rows": list(result.rows()),
        "lpms": lpms,
        "work": dict(statistics.work),
        "counters": {stage.name: dict(stage.counters) for stage in statistics.stages},
        "bytes_by_kind": result.shipment.bytes_by_kind,
        "messages": result.shipment.messages_by_stage,
    }


#: One component whose patterns the component split reorders (the third
#: joins the first two): each site's matcher builds its own graph of it.
REORDERED = PREFIX + (
    "SELECT ?x ?y ?z WHERE { ?x ub:advisor ?y . ?z ub:name ?n . ?y ub:teacherOf ?z . }"
)


class TestSharingChangesNothing:
    @pytest.mark.parametrize("name", ["LQ1", "LQ2", "LQ3", "LQ4", "LQ5", "LQ6", "LQ7", "reordered"])
    def test_every_site_building_its_own_graph_gives_the_same_run(self, session, monkeypatch, name):
        query = session.queries[name] if name in session.queries else parse_query(REORDERED)
        session.query(query)  # plan it, so both runs hit the plan cache
        shared = observed(session, query, monkeypatch)
        monkeypatch.setattr(QueryGraph, "of", classmethod(lambda cls, bgp: cls(bgp)))
        own = observed(session, query, monkeypatch)
        assert shared == own
        # Both runs did work: rows, LPMs, or (LQ3, which stage 1 proves empty)
        # the internal candidates stage 1 found.
        assert (
            shared["rows"]
            or any(sequence for _, sequence in shared["lpms"])
            or shared["counters"][STAGE_CANDIDATES].get("internal_candidates")
        )


@contextmanager
def counting_compilations(monkeypatch):
    built = []
    original = kernel.CompiledQuery.__init__

    def counting(self, query, dictionary):
        built.append(query)
        original(self, query, dictionary)

    monkeypatch.setattr(kernel.CompiledQuery, "__init__", counting)
    yield built
    monkeypatch.setattr(kernel.CompiledQuery, "__init__", original)


def ints_only(value):
    """``value`` is an int, ``None``, or a tuple, list or frozenset of such."""
    if isinstance(value, (tuple, list, frozenset)):
        return all(ints_only(item) for item in value)
    return value is None or type(value) is int


class TestOneCompiledQuery:
    @pytest.mark.parametrize("text", [STAR, TRIANGLE], ids=["star", "triangle"])
    def test_a_six_site_query_compiles_once(self, session, monkeypatch, text):
        query = parse_query(text)
        with counting_compilations(monkeypatch) as built:
            result = session.query(query)
        assert len(result) > 0
        assert len(built) == 1 and built[0].bgp is query.bgp

    @pytest.mark.parametrize("text", [STAR, TRIANGLE], ids=["star", "triangle"])
    def test_it_holds_ints_beside_the_graph_and_pickles_with_no_task(self, session, text):
        query = parse_query(text)
        graph = QueryGraph.of(query.bgp)
        tasks = site_tasks.partial_eval_tasks([0, 1], query, graph, (2, 0, 1), None, False)
        session.query(query)  # the graph's own lazy caches are filled, and it is compiled
        dictionary = session.cluster.dictionary
        compiled = kernel.compile_query(graph, dictionary)
        assert compiled is kernel.compile_query(graph, dictionary)
        pickled = [pickle.dumps(task) for task in tasks + [graph]]
        assert compiled.layout is kernel.query_layout(graph)
        assert not any(b"CompiledQuery" in data or b"QueryLayout" in data for data in pickled)
        del kernel._COMPILED[graph], kernel._LAYOUTS[graph]
        assert [pickle.dumps(task) for task in tasks + [graph]] == pickled
        assert compiled.state == (dictionary.space, len(dictionary))  # the key it was built under
        assert all(ints_only(ranked) for ranked in compiled._ranked.values())
        layout = compiled.layout
        # Keyed by the graph's own terms.
        assert set(layout.slot_of) <= set(graph.vertices) | set(query.bgp.variables)
        assert ints_only(tuple(layout.slot_of.values()))
        for form in (compiled, layout):
            for name, value in vars(form).items():
                if name not in ("layout", "state", "_ranked", "slot_of"):
                    assert ints_only(value), name

    def test_a_grown_dictionary_recompiles_a_live_query(self):
        """A constant the query named but no store held binds once an update adds it."""
        newcomer = IRI("http://example.org/university/NewProfessor")
        text = PREFIX + (
            "SELECT ?x ?c WHERE { ?x ub:advisor <http://example.org/university/NewProfessor> . "
            "?x ub:takesCourse ?c . <http://example.org/university/NewProfessor> ub:teacherOf ?c . }"
        )
        with repro.open(dataset="lubm", scale=1, sites=6, partitioner="hash", result_cache=0) as fresh:
            query = parse_query(text)
            graph = QueryGraph.of(query.bgp)  # held, so every run below shares it and its compiled form
            assert len(fresh.query(query)) == 0
            assert kernel.compile_query(graph, fresh.cluster.dictionary).constants.count(kernel._UNKNOWN) == 1
            student = parse_query(PREFIX + "SELECT ?x ?c WHERE { ?x ub:takesCourse ?c . }")
            x, c = fresh.query(student, engine="centralized").results.rows[0]
            advisor, teacher = (IRI("http://example.org/univ-bench#" + name) for name in ("advisor", "teacherOf"))
            fresh.update(add=[Triple(x, advisor, newcomer), Triple(newcomer, teacher, c)])
            assert QueryGraph.of(query.bgp) is graph
            for engine in ("gstored", "centralized"):
                assert fresh.query(query, engine=engine).results.rows == [(x, c)], engine
            assert kernel._UNKNOWN not in kernel.compile_query(graph, fresh.cluster.dictionary).constants
