"""Metamorphic relations of the distributed pipeline.

Three relations that must hold whatever the engine does inside:

* **partitioning invariance** — gStoreD's answers equal the centralized
  matcher's under every registered partitioner (and the paper's own Fig. 1
  assignment);
* **variable renaming** — permuting the names of a query's variables renames
  the answer columns and changes nothing else, the plan-cache shape key
  included;
* **triple-pattern permutation** — reordering the BGP's triple patterns
  leaves the answers unchanged;
* **update round trip** — ``session.update(add=X)`` followed by
  ``session.update(remove=X)`` returns every query's rows, work counters and
  per-stage shipment to their values before the pair.

The default tier covers the paper example and LUBM 1 on a few sites; more
site counts, every rotation of the patterns and the YAGO2/BTC workloads run
under ``-m slow``.
"""

from dataclasses import replace

import pytest

from repro.api import Session
from repro.bench import stage_shipment_snapshot
from repro.core import EngineConfig, GStoreDEngine
from repro.datasets import btc, lubm, yago
from repro.datasets.paper_example import (
    build_example_graph,
    build_example_partitioning,
    example_query,
)
from repro.distributed import build_cluster
from repro.partition import PARTITIONER_REGISTRY, make_partitioner
from repro.planner import shape_key
from repro.rdf import IRI, Variable
from repro.rdf.triples import Triple, TriplePattern
from repro.sparql import parse_query
from repro.sparql.algebra import BasicGraphPattern
from repro.sparql.query_graph import QueryGraph
from repro.store import LocalMatcher, evaluate_centralized

PARTITIONERS = sorted(PARTITIONER_REGISTRY)

#: A star next to the paper's non-star example, so both engine paths run.
PAPER_STAR = parse_query(
    "PREFIX ex: <http://example.org/> "
    "SELECT ?p ?t WHERE { ?p ex:mainInterest ?t . ?p ex:bornIn ?c . }"
)
PAPER_QUERIES = {"example": example_query(), "star": PAPER_STAR}


def answers(result_set):
    """A result set as a set of rows (order-free, variable names kept)."""
    return {tuple(sorted(row.items())) for row in result_set.to_table()}


def centralized(graph, query):
    return answers(
        evaluate_centralized(graph, query).project(query.effective_projection, distinct=True)
    )


def distributed(cluster, query):
    cluster.reset_network()
    return answers(GStoreDEngine(cluster, EngineConfig.full()).execute(query).results)


def rename_variables(query):
    """``query`` with its variable names rotated (?a→?b, ?b→?c, ..., ?z→?a).

    Returns the renamed query and the map from new names back to old ones.
    Rotating existing names (instead of adding a suffix) makes every name
    denote a different variable than before.
    """
    variables = list(query.variables)
    names = [variable.name for variable in variables]
    renamed = {
        variable: Variable(names[(position + 1) % len(names)])
        for position, variable in enumerate(variables)
    }

    def swap(term):
        return renamed.get(term, term)

    patterns = [TriplePattern(*(swap(term) for term in pattern)) for pattern in query.bgp]
    rewritten = replace(
        query,
        bgp=BasicGraphPattern(patterns),
        projection=tuple(swap(variable) for variable in query.projection),
    )
    back = {new.name: old.name for old, new in renamed.items()}
    return rewritten, back


def rename_rows(rows, back):
    return {tuple(sorted((back[name], value) for name, value in row)) for row in rows}


def permute_patterns(query, order):
    return replace(query, bgp=BasicGraphPattern([query.bgp[index] for index in order]))


def reorders(size, every_rotation=False):
    """Pattern orders to try: reversed and one rotation, or every rotation."""
    if every_rotation:
        orders = [list(range(shift, size)) + list(range(shift)) for shift in range(1, size)]
    else:
        orders = [list(range(1, size)) + [0]]
    orders.append(list(reversed(range(size))))
    return [order for order in orders if order != list(range(size))]


def check_relations(graph, cluster, query, relations, every_rotation=False):
    """The named relations for one query on one cluster."""
    assert query.limit is None, "LIMIT picks rows, so pattern order could matter"
    expected = centralized(graph, query)
    if "partitioned" in relations:
        assert distributed(cluster, query) == expected
    if "renamed" in relations:
        renamed, back = rename_variables(query)
        assert rename_rows(distributed(cluster, renamed), back) == expected
        assert shape_key(QueryGraph(renamed.bgp)) == shape_key(QueryGraph(query.bgp))
    if "permuted" in relations:
        for order in reorders(len(query.bgp), every_rotation):
            permuted = permute_patterns(query, order)
            assert distributed(cluster, permuted) == expected, f"pattern order {order}"


def paper_workloads():
    """name -> partitioned paper example: every partitioner, plus Fig. 1's own."""
    graph = build_example_graph()
    workloads = {
        strategy: make_partitioner(strategy, 3).partition(graph) for strategy in PARTITIONERS
    }
    workloads["figure1"] = build_example_partitioning()
    return workloads


@pytest.fixture(scope="module")
def paper_clusters():
    return {name: build_cluster(partitioned) for name, partitioned in paper_workloads().items()}


@pytest.fixture(scope="module")
def lubm_graph_1():
    return lubm.generate(scale=1)


@pytest.fixture(scope="module")
def lubm_clusters(lubm_graph_1):
    return {
        strategy: build_cluster(make_partitioner(strategy, 4).partition(lubm_graph_1))
        for strategy in PARTITIONERS
    }


RELATIONS = ("partitioned", "renamed", "permuted")
PAPER_CASES = [
    (strategy, name) for strategy in (*PARTITIONERS, "figure1") for name in PAPER_QUERIES
]
LUBM_CASES = [(strategy, name) for strategy in PARTITIONERS for name in lubm.queries()]


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("strategy, name", PAPER_CASES)
def test_paper_example(paper_clusters, strategy, name, relation):
    cluster = paper_clusters[strategy]
    check_relations(cluster.graph, cluster, PAPER_QUERIES[name], {relation})


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("strategy, name", LUBM_CASES)
def test_lubm(lubm_graph_1, lubm_clusters, strategy, name, relation):
    check_relations(lubm_graph_1, lubm_clusters[strategy], lubm.queries()[name], {relation})


def test_renaming_really_renames():
    renamed, back = rename_variables(example_query())
    assert set(back) == {variable.name for variable in example_query().variables}
    assert any(new != old for new, old in back.items())
    assert renamed.bgp != example_query().bgp


def cloned_matches(graph, queries):
    """Triples that give each query one more answer, around a fresh vertex.

    For every query with an answer, its first match is copied with the first
    projected variable bound to a new IRI instead: the copy's triples join
    that new vertex to the match's existing vertices.  Triples already in
    the graph are dropped, so removing the delta again restores the graph.
    """
    delta = []
    matcher = LocalMatcher(graph)
    for name, query in queries.items():
        match = next(iter(matcher.find_matches(QueryGraph(query.bgp))), None)
        if match is None:
            continue
        match[query.effective_projection[0]] = IRI(f"http://example.org/fresh/{name}")
        for pattern in query.bgp:
            triple = Triple(*(match.get(term, term) for term in pattern))
            if triple not in graph and triple not in delta:
                delta.append(triple)
    return delta


def fingerprint(result):
    return result.sorted_rows(), dict(result.statistics.work), stage_shipment_snapshot(result)


def update_round_trip(partitioned, queries):
    """The delta, the graph's vertices, and every query's fingerprint before
    an add/remove pair, after the add and after the remove."""
    with Session.from_partitioned(partitioned) as session:
        delta = cloned_matches(session.graph, queries)
        known = {term for triple in session.graph for term in (triple.subject, triple.object)}
        states = []
        for change in ({}, {"add": delta}, {"remove": delta}):
            session.update(**change)
            states.append({name: fingerprint(session.query(q)) for name, q in queries.items()})
    return delta, known, states


@pytest.fixture(scope="module")
def round_trips():
    """(workload, strategy) -> :func:`update_round_trip`, computed on first use."""
    workloads = {"paper": (build_example_graph(), PAPER_QUERIES), "lubm": (None, lubm.queries())}
    computed = {}

    def get(workload, strategy):
        if (workload, strategy) not in computed:
            graph, queries = workloads[workload]
            graph = graph if graph is not None else lubm.generate(scale=1)
            sites = 3 if workload == "paper" else 4
            partitioned = make_partitioner(strategy, sites).partition(graph)
            computed[workload, strategy] = update_round_trip(partitioned, queries)
        return computed[workload, strategy]

    return get


ROUND_TRIP_CASES = [
    (workload, strategy, name)
    for workload, names in (("paper", PAPER_QUERIES), ("lubm", lubm.queries()))
    for strategy in PARTITIONERS
    for name in names
]


@pytest.mark.parametrize("workload, strategy, name", ROUND_TRIP_CASES)
def test_update_round_trip(round_trips, workload, strategy, name):
    _, _, (before, _, after) = round_trips(workload, strategy)
    rows, work, shipment = after[name]
    assert rows == before[name][0]
    assert work == before[name][1]
    assert shipment == before[name][2]


@pytest.mark.parametrize("workload", ["paper", "lubm"])
@pytest.mark.parametrize("strategy", PARTITIONERS)
def test_the_round_trip_delta_mixes_vertices_and_moves_answers(round_trips, workload, strategy):
    delta, known, (before, added, _) = round_trips(workload, strategy)
    endpoints = {term for triple in delta for term in (triple.subject, triple.object)}
    assert endpoints & known and endpoints - known
    assert any(added[name][0] != before[name][0] for name in before)


@pytest.mark.slow
class TestDeeper:
    @pytest.mark.parametrize("sites", [2, 6, 8])
    @pytest.mark.parametrize("strategy", PARTITIONERS)
    def test_lubm_at_other_site_counts(self, lubm_graph_1, strategy, sites):
        cluster = build_cluster(make_partitioner(strategy, sites).partition(lubm_graph_1))
        for query in lubm.queries().values():
            check_relations(lubm_graph_1, cluster, query, RELATIONS, every_rotation=True)

    @pytest.mark.parametrize("module", [yago, btc], ids=["YAGO2", "BTC"])
    @pytest.mark.parametrize("strategy", PARTITIONERS)
    def test_other_workloads(self, module, strategy):
        graph = module.generate(scale=1)
        cluster = build_cluster(make_partitioner(strategy, 4).partition(graph))
        for query in module.queries().values():
            check_relations(graph, cluster, query, RELATIONS, every_rotation=True)
