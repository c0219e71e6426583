"""One query graph per query, shared by the coordinator and every site.

The coordinator builds a query's :class:`~repro.sparql.QueryGraph` once
(:meth:`QueryGraph.of`) and holds it for the execution; each site's matcher
asks for the graph of the same BGP and gets that one.  The BGP refers to it
weakly, and every site's candidate pools are keyed by int signatures, not by
the graph, so the graph dies by refcount when the execution drops it.
Sharing must change nothing a caller can see: rows, LPM sequences, work
counters and shipment are those of a run where every site builds its own
graph.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

import repro
from repro.core import site_tasks
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
    signatures = set(kernel.pool_signatures(session.cluster.site(0).encoded, graph).values())
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
        assert shared["rows"] or any(sequence for _, sequence in shared["lpms"])
