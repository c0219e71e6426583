"""Implied pools: a bound vertex's frontier is its neighbours' rows alone.

``ArrayRunner.compile`` marks a variable *implied* when it has no self-loop
and every neighbour comes earlier in the visit order and is a variable or an
IRI/literal constant.  Its frontier then intersects the neighbours' rows
without the pool.  This suite holds that to a reference runner that always
intersects the pool, on random graphs with self-loops and blank nodes and on
random queries with constants visited after their neighbours, self-loops,
variable predicates, parallel edges and blank-node vertices, in the
planner's order and in explicit orders:

* every frontier's survivors and ``tried`` count equal the reference's, so
  the match sequence and ``search_steps`` do too;
* the production matcher, which reads the pools from the signature cache,
  gives that match sequence and ``search_steps``.

A runner that skipped the pool of a constant, of a loop vertex or of a
vertex next to a blank node would fail the first property.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planner import QueryPlanner
from repro.rdf import IRI, BlankNode, RDFGraph, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph
from repro.store import EncodedGraph, LocalMatcher
from repro.store.kernel import ArrayRunner

EX = "http://example.org/"
PREDICATES = [IRI(f"{EX}p{i}") for i in range(3)]
VARIABLES = [Variable(name) for name in ("a", "b", "c", "d")]
PREDICATE_VARIABLES = [Variable("p"), Variable("q")]

seeds = st.integers(min_value=0, max_value=100_000)
pattern_counts = st.integers(min_value=1, max_value=5)


def random_data(rng):
    """Eight IRIs and two blank nodes, dense edges over three labels, some self-loops."""
    vertices = [IRI(f"{EX}v{i}") for i in range(8)] + [BlankNode(f"b{i}") for i in range(2)]
    graph = RDFGraph()
    for _ in range(40):
        graph.add(Triple(rng.choice(vertices), rng.choice(PREDICATES), rng.choice(vertices)))
    for vertex in rng.sample(vertices, 4):
        graph.add(Triple(vertex, rng.choice(PREDICATES[:2]), vertex))
    return graph, vertices


def random_bgp(rng, vertices, num_patterns):
    """Patterns over four variables and the graph's vertices: each new pattern
    touches an earlier term, and may be a loop, repeat an earlier pattern's
    endpoints (a parallel edge) or carry a variable predicate."""
    terms = [rng.choice(VARIABLES)]
    patterns = []
    for _ in range(num_patterns):
        kind = rng.random()
        if patterns and kind < 0.2:
            earlier = rng.choice(patterns)
            subject, obj = earlier.subject, earlier.object
        elif kind < 0.35:
            subject = obj = rng.choice(terms)
        else:
            anchor = rng.choice(terms)
            fresh = rng.choice(vertices) if rng.random() < 0.3 else rng.choice(VARIABLES)
            subject, obj = (anchor, fresh) if rng.random() < 0.5 else (fresh, anchor)
        predicate = rng.choice(PREDICATE_VARIABLES) if rng.random() < 0.2 else rng.choice(PREDICATES)
        patterns.append(TriplePattern(subject, predicate, obj))
        terms += [term for term in (subject, obj) if term not in terms]
    return BasicGraphPattern(patterns)


def recording_runner(log, keep_pools):
    """An :class:`ArrayRunner` that logs every frontier; ``keep_pools`` makes
    it the reference, which intersects every vertex's pool."""

    class Recording(ArrayRunner):
        def compile(self, query, order, pools):
            compiled = super().compile(query, order, pools)
            if keep_pools:
                for vertex in compiled:
                    vertex.implied = False
            return compiled

        def frontier(self, vertex, assignment):
            survivors, tried = super().frontier(vertex, assignment)
            log.append((vertex.index, tuple(assignment), list(survivors), tried))
            return survivors, tried

    return Recording


def run(encoded, query, order, planner, runner_class):
    matcher = LocalMatcher(encoded, planner=planner)
    if runner_class is not None:
        matcher.runner_class = runner_class
    matches = list(matcher.find_matches(query, order=order))
    return matches, matcher.search_steps


def assert_implied_frontiers_exact(encoded, query, order, planner):
    implied_log, reference_log = [], []
    implied = run(encoded, query, order, planner, recording_runner(implied_log, keep_pools=False))
    reference = run(encoded, query, order, planner, recording_runner(reference_log, keep_pools=True))
    assert implied_log == reference_log
    assert implied == reference
    assert run(encoded, query, order, planner, None) == reference


class TestImpliedPoolsAreExact:
    @given(seeds, pattern_counts)
    @settings(max_examples=120, deadline=None)
    def test_planner_static_and_explicit_orders(self, seed, num_patterns):
        rng = random.Random(seed)
        graph, vertices = random_data(rng)
        query = QueryGraph(random_bgp(rng, vertices, num_patterns))
        encoded = EncodedGraph(graph)
        assert_implied_frontiers_exact(encoded, query, None, None)
        assert_implied_frontiers_exact(encoded, query, None, QueryPlanner.from_graph(encoded))
        for _ in range(3):
            order = list(query.vertices)
            rng.shuffle(order)
            assert_implied_frontiers_exact(encoded, query, order, None)


class TestWhichVerticesAreImplied:
    """The marks themselves, on one triangle with a constant and a loop."""

    def compiled(self, patterns, order):
        graph = RDFGraph([Triple(IRI(f"{EX}v0"), PREDICATES[0], IRI(f"{EX}v1"))])
        encoded = EncodedGraph(graph)
        query = QueryGraph(BasicGraphPattern(patterns))
        runner = ArrayRunner(encoded)
        marks = runner.compile(query, order, runner.compute_pools(query))
        return [vertex.implied for vertex in marks]

    def test_a_variable_whose_neighbours_come_first_is_implied(self):
        a, b, c = VARIABLES[:3]
        p = PREDICATES[0]
        triangle = [TriplePattern(a, p, b), TriplePattern(b, p, c), TriplePattern(a, p, c)]
        assert self.compiled(triangle, [a, b, c]) == [False, False, True]
        assert self.compiled(triangle, [c, a, b]) == [False, False, True]

    def test_constants_loops_and_blank_node_neighbours_keep_their_pools(self):
        a, b = VARIABLES[:2]
        p = PREDICATES[0]
        constant = IRI(f"{EX}v1")
        assert self.compiled([TriplePattern(a, p, constant)], [a, constant]) == [False, False]
        assert self.compiled([TriplePattern(constant, p, a)], [constant, a]) == [False, True]
        looped = [TriplePattern(a, p, b), TriplePattern(b, p, b)]
        assert self.compiled(looped, [a, b]) == [False, False]
        blank = BlankNode("b0")
        assert self.compiled([TriplePattern(blank, p, a)], [blank, a]) == [False, False]
