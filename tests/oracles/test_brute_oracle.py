"""Every engine against the brute-force oracle, on free BGPs.

``brute.py`` evaluates a BGP by nested loops over the graph's triples.  The
queries here are the ones the other suites' generators, which sample a
subgraph of the data, never make: 1–4 patterns, each anchored at an earlier
subject or object, and often a second component of 1–2 patterns over other
variables; constants the graph holds and constants it lacks;
predicate variables, projected or not, often on two edges and shared
between components; self-loops; empty answers; ``SELECT *``, ``DISTINCT``
and ``LIMIT``.  Each runs over
four partitionings (random, every edge crossing, a single site, an empty
fragment) through all six engines, and must give the oracle's solution set
(an engine's answer is a set of rows); under ``LIMIT``, as many rows as the
limit leaves of that set, all of them in it.

Fixed cases a stage-1 filter proves empty (a variable that is an internal
candidate nowhere, so its union vector is all zero) end partial evaluation
at every site before it finds anything; every engine still answers nothing.
"""

import dataclasses
import random

import pytest
from brute import evaluate
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import engine_names, make_engine
from repro.core import GStoreDEngine, site_tasks
from repro.core.candidate_exchange import build_site_vectors, union_site_vectors
from repro.datasets import lubm, random_assignment, random_graph
from repro.distributed import build_cluster
from repro.partition import HashPartitioner, build_partitioned_graph
from repro.rdf import IRI, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph, SelectQuery, parse_query
from repro.sparql.bindings import ResultSet
from repro.store import evaluate_centralized

EX = "http://example.org/random/"
VERTICES = [IRI(f"{EX}v{i}") for i in range(8)] + [IRI(f"{EX}nowhere")]
PREDICATES = [IRI(f"{EX}p{i}") for i in range(2)] + [IRI(f"{EX}p9")]
VARIABLES = [Variable(name) for name in "abcd"]
#: The variables of a second component, which shares no vertex with the first.
SECOND_VARIABLES = [Variable(name) for name in "efg"]
PREDICATE_VARIABLES = [Variable("p"), Variable("q")]


def data(seed):
    """A random graph over ``v0``–``v7`` and two labels, with two self-loops."""
    graph = random_graph(seed, num_vertices=8, num_edges=18, num_predicates=2)
    rng = random.Random(seed)
    for vertex in rng.sample(VERTICES[:8], 2):
        graph.add(Triple(vertex, rng.choice(PREDICATES[:2]), vertex))
    return graph


def uniform(graph, seed):
    return random_assignment(graph, seed, 3), 3


def every_edge_crossing(graph, seed):
    return {vertex: position for position, vertex in enumerate(sorted(graph.vertices, key=str))}, 8


def single_site(graph, seed):
    return dict.fromkeys(graph.vertices, 0), 1


def empty_fragment(graph, seed):
    return {vertex: 2 * site + 1 for vertex, site in random_assignment(graph, seed, 2).items()}, 4


PARTITIONINGS = (uniform, every_edge_crossing, single_site, empty_fragment)


def component(draw, variables, size):
    """``size`` patterns over ``variables``, each anchored at an earlier term."""
    terms = [draw(st.sampled_from(variables))]
    patterns = []
    for _ in range(size):
        anchor = draw(st.sampled_from(terms))
        other = draw(st.sampled_from(variables + VERTICES + [anchor]))
        subject, obj = (anchor, other) if draw(st.booleans()) else (other, anchor)
        predicate = draw(st.sampled_from(PREDICATES + PREDICATE_VARIABLES))
        patterns.append(TriplePattern(subject, predicate, obj))
        terms += [term for term in (subject, obj) if term not in terms]
    return patterns


@st.composite
def queries(draw):
    """A BGP of 1–4 patterns, often beside a second component of 1–2, and its
    projection, DISTINCT and LIMIT (a shared constant may join the two)."""
    patterns = component(draw, VARIABLES, draw(st.integers(min_value=1, max_value=4)))
    patterns += component(draw, SECOND_VARIABLES, draw(st.integers(min_value=0, max_value=2)))
    bgp = BasicGraphPattern(patterns)
    subsets = st.lists(st.sampled_from(bgp.variables), min_size=1, max_size=3, unique=True)
    projection = draw(st.just(()) | subsets.map(tuple))
    limit = draw(st.none() | st.none() | st.integers(min_value=0, max_value=4))
    return SelectQuery(bgp=bgp, projection=projection, distinct=draw(st.booleans()), limit=limit)


def assert_engines_agree(graph, assignment, num_fragments, query):
    """Every engine's answer against the oracle's over one partitioning."""
    cluster = build_cluster(build_partitioned_graph(graph, assignment, num_fragments=num_fragments))
    expected = ResultSet(variables=query.effective_projection, rows=evaluate(graph, query))
    every = set(evaluate(graph, dataclasses.replace(query, limit=None)))
    for name in engine_names():
        answer = make_engine(name, cluster).execute(query).results
        if query.limit is None:
            assert answer.same_solutions(expected), name
        else:
            assert len(answer.rows) == min(query.limit, len(every)) and set(answer.rows) <= every, name


def assert_every_partitioning(seed, query):
    graph = data(seed)
    for partitioning in PARTITIONINGS:
        assert_engines_agree(graph, *partitioning(graph, seed), query)


seeds = st.integers(min_value=0, max_value=10_000)


class TestFreeBGPs:
    @given(seeds, queries())
    @settings(max_examples=12, deadline=None)
    def test_every_engine_gives_the_oracles_answer(self, seed, query):
        assert_every_partitioning(seed, query)

    @pytest.mark.slow
    @given(seeds, queries())
    @settings(max_examples=300, deadline=None)
    def test_every_engine_gives_the_oracles_answer_deeply(self, seed, query):
        assert_every_partitioning(seed, query)


#: Two answers that were wrong in ``centralized``, ``dream`` and ``gstored``:
#: a projected predicate variable had no cell, and the two edges of one
#: predicate variable could take different labels.
PREFIX = f"PREFIX ex: <{EX}> "
FIXED = {
    "projected-predicate": PREFIX + "SELECT ?p ?x0 WHERE { ex:v1 ?p ?x0 }",
    "repeated-predicate": PREFIX + "SELECT ?a ?b ?c WHERE { ?a ?p ?b . ?b ?p ?c }",
}


@pytest.mark.parametrize("case", FIXED)
def test_fixed_predicate_variable_cases(case):
    graph = random_graph(1050, 10, 22, 2)
    query = parse_query(FIXED[case])
    assert_engines_agree(graph, random_assignment(graph, 7, 3), 3, query)


def test_a_disconnected_bgp_is_the_cross_product_of_its_components():
    """gStoreD gave 43, 50 or 55 of these 70 rows, by ``PYTHONHASHSEED``,
    before it evaluated each component on its own."""
    graph = random_graph(6835, 10, 22, 2)
    query = parse_query(PREFIX + "SELECT * WHERE { ?x2 ex:p0 ?x3 . ?x1 ex:p1 ?x0 . ?x0 ex:p0 ex:v3 }")
    assert len(evaluate(graph, query)) == 70
    assert_engines_agree(graph, random_assignment(graph, 7, 3), 3, query)


def shared_cluster(graph):
    return build_cluster(build_partitioned_graph(graph, random_assignment(graph, 7, 3), num_fragments=3))


@pytest.mark.parametrize("name", engine_names())
def test_components_that_share_a_predicate_variable_agree_on_it(name):
    """The two components of this BGP share no vertex, only ``?p``: a row's
    two edges carry one label."""
    graph = random_graph(1050, 10, 22, 2)
    query = parse_query("SELECT ?a ?p ?c WHERE { ?a ?p ?b . ?c ?p ?d }")
    expected = ResultSet(variables=query.effective_projection, rows=evaluate(graph, query))
    assert make_engine(name, shared_cluster(graph)).execute(query).results.same_solutions(expected)
    if name == "centralized":
        assert sorted(map(repr, evaluate_centralized(graph, query).rows)) == sorted(map(repr, expected.rows))


def test_a_limit_past_the_answer_returns_the_whole_answer():
    """``evaluate_centralized`` gives SPARQL's bag, and an engine its distinct
    rows; a LIMIT that cuts nothing changes neither."""
    graph = random_graph(1050, 10, 22, 2)
    query = parse_query("SELECT ?a WHERE { ?a ?p ?b . ?b ?p ?c }")
    bag = evaluate_centralized(graph, query).rows
    assert len(set(bag)) < len(bag) == len(evaluate(graph, query))
    limited = dataclasses.replace(query, limit=len(bag))
    assert evaluate_centralized(graph, limited).rows == bag
    cluster = shared_cluster(graph)
    for name in engine_names():
        engine = make_engine(name, cluster)
        assert engine.execute(limited).results.rows == engine.execute(query).results.rows, name


def test_a_limit_counts_distinct_rows():
    """A site that cut its bag of rows before the coordinator dropped repeats
    answered this with 1 row of 2: the repeat took the second row's place."""
    graph = data(2)
    query = parse_query(PREFIX + "SELECT ?b WHERE { ?b ex:p0 ?a . ?c ex:p0 ?a } LIMIT 2")
    assert_engines_agree(graph, *single_site(graph, 2), query)


def union_filter(cluster, query):
    """The union vectors stage 1 broadcasts for ``query`` over ``cluster``."""
    query_graph = QueryGraph(query.bgp)
    return union_site_vectors(build_site_vectors(site.internal_candidates(query_graph)) for site in cluster)


#: A path whose ``?c`` needs a ``p1`` edge into ``v0``: the data has ``p1``
#: edges and edges into ``v0``, but none that is both.
NO_CANDIDATE = PREFIX + "SELECT * WHERE { ?a ex:p0 ?b . ?b ex:p1 ?c . ?c ex:p1 ex:v0 }"


@pytest.mark.parametrize("partitioning", PARTITIONINGS, ids=lambda partitioning: partitioning.__name__)
def test_a_variable_that_is_an_internal_candidate_nowhere_empties_the_answer(partitioning):
    graph = data(0)
    v0, p1 = IRI(f"{EX}v0"), IRI(f"{EX}p1")
    assert any(triple.object == v0 for triple in graph) and any(triple.predicate == p1 for triple in graph)
    assert not any(triple.predicate == p1 and triple.object == v0 for triple in graph)
    query = parse_query(NO_CANDIDATE)
    assignment, num_fragments = partitioning(graph, 0)
    cluster = build_cluster(build_partitioned_graph(graph, assignment, num_fragments=num_fragments))
    assert union_filter(cluster, query).proves_empty()
    assert evaluate(graph, query) == []
    assert_engines_agree(graph, assignment, num_fragments, query)


def test_lq6_with_a_university_absent_from_the_dictionary(lubm_graph, monkeypatch):
    """The absent constant leaves ``?department`` and ``?student`` no
    candidate: stage 1 proves the answer empty, and no site finds an LPM."""
    university, absent = IRI(f"{lubm.UNIV.base}University0"), IRI(f"{lubm.UNIV.base}University999")
    query = lubm.queries()["LQ6"]
    assert university in query.bgp.terms
    swap = {university: absent}
    bgp = BasicGraphPattern(
        [TriplePattern(swap.get(p.subject, p.subject), p.predicate, swap.get(p.object, p.object)) for p in query.bgp]
    )
    query = dataclasses.replace(query, bgp=bgp)
    cluster = build_cluster(HashPartitioner(3).partition(lubm_graph))
    assert absent not in cluster.dictionary
    assert union_filter(cluster, query).proves_empty()
    found = []
    original = site_tasks.run_partial_eval

    def recording(site, payload):
        output = original(site, payload)
        found.append((site.site_id, len(output.local_partial_matches)))
        return output

    monkeypatch.setattr(site_tasks, "run_partial_eval", recording)
    GStoreDEngine(cluster).execute(query)
    assert found == [(site_id, 0) for site_id in sorted(cluster.site_ids)]
    for name in engine_names():
        assert make_engine(name, cluster).execute(query).results.rows == [], name
