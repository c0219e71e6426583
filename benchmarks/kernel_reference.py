"""The seed's object-path matcher, preserved as an A/B baseline.

This is the pre-encoding implementation of candidate computation and the
backtracking search — candidate pools of ``Node`` objects, a vertex
signature prefilter, per-step ``n3()`` sorts, generator-scan edge checks —
kept alive as the reference both for the Hypothesis equivalence suite
(``tests/property/test_property_kernel.py``) and the kernel benchmark
(``benchmarks/bench_kernel.py``).  One copy, two importers: if the baseline
ever needs a fix, the property suite and the bench gate stay in lockstep.

Not part of the installed package on purpose: production code must never
fall back to the object path.

The prefilter follows gStore's vertex signatures (Zou et al., PVLDB 2011),
unhashed: a vertex's signature is the set of ``(direction, predicate)`` and
``(direction, predicate, neighbour)`` keys of its edges, and a candidate
must hold every key its query vertex's constants ask for.  Edge support
already implies every key but one — the incoming side of a self-loop
``?x p ?x`` — which is why the production kernel needs no signatures, only
that loop rule.
"""

from collections import defaultdict

from repro.rdf.terms import IRI, Literal, Variable
from repro.sparql.query_graph import traversal_order


def _sort_key(node):
    return (type(node).__name__, node.n3())


def reference_edge_supported(graph, vertex, query, query_vertex, edge_index):
    """Seed ``edge_supported``: generator scans over ``graph.triples``."""
    edge = query.edge_at(edge_index)
    predicate = None if isinstance(edge.predicate, Variable) else edge.predicate
    if edge.subject == query_vertex:
        other = edge.object
        other_bound = None if isinstance(other, Variable) else other
        return any(True for _ in graph.triples(vertex, predicate, other_bound))
    other = edge.subject
    other_bound = None if isinstance(other, Variable) else other
    return any(True for _ in graph.triples(other_bound, predicate, vertex))


def node_signatures(graph):
    """Per vertex, the signature keys of its edges (see the module docstring)."""
    signatures = defaultdict(set)
    for triple in graph:
        signatures[triple.subject].update((("out", triple.predicate), ("out", triple.predicate, triple.object)))
        signatures[triple.object].update((("in", triple.predicate), ("in", triple.predicate, triple.subject)))
    return signatures


def _query_signature(query, query_vertex):
    """The keys a data vertex must hold to match ``query_vertex``: constants only."""
    needed = set()
    for edge in query.edges_of(query_vertex):
        if isinstance(edge.predicate, Variable):
            continue
        if edge.subject == query_vertex:
            needed.add(("out", edge.predicate))
            if not isinstance(edge.object, Variable):
                needed.add(("out", edge.predicate, edge.object))
        if edge.object == query_vertex:
            needed.add(("in", edge.predicate))
            if not isinstance(edge.subject, Variable):
                needed.add(("in", edge.predicate, edge.subject))
    return needed


def _reference_variable_candidates(graph, query, query_vertex, signatures):
    required_edges = list(query.edges_of(query_vertex))
    if not required_edges:
        return set(graph.vertices)
    seed = None
    for edge in required_edges:
        predicate = None if isinstance(edge.predicate, Variable) else edge.predicate
        if edge.subject == query_vertex:
            other = edge.object
            other_bound = None if isinstance(other, Variable) else other
            matching = {t.subject for t in graph.triples(None, predicate, other_bound)}
        else:
            other = edge.subject
            other_bound = None if isinstance(other, Variable) else other
            matching = {t.object for t in graph.triples(other_bound, predicate, None)}
        if seed is None or len(matching) < len(seed):
            seed = matching
        if seed is not None and not seed:
            return set()
    needed = _query_signature(query, query_vertex)
    survivors = set()
    for vertex in seed:
        if not needed <= signatures[vertex]:
            continue
        if all(
            reference_edge_supported(graph, vertex, query, query_vertex, edge.index)
            for edge in required_edges
        ):
            survivors.add(vertex)
    return survivors


def reference_candidates(graph, query, signatures):
    """Seed ``compute_candidates`` (no relaxed edges, no restriction)."""
    vertices_universe = graph.vertices
    candidates = {}
    for query_vertex in query.vertices:
        if isinstance(query_vertex, (IRI, Literal)):
            found = {query_vertex} if query_vertex in vertices_universe else set()
        else:
            found = _reference_variable_candidates(graph, query, query_vertex, signatures)
        candidates[query_vertex] = found
    return candidates


class ReferenceObjectMatcher:
    """The seed's backtracking search over Node/Triple objects."""

    def __init__(self, graph):
        self._graph = graph
        self._signatures = node_signatures(graph)
        self.search_steps = 0

    def find_matches(self, query):
        self.search_steps = 0
        candidates = reference_candidates(self._graph, query, self._signatures)
        if any(not candidates[vertex] for vertex in query.vertices):
            return
        order = traversal_order(query)
        yield from self._extend({}, order, 0, query, candidates)

    def _extend(self, assignment, order, depth, query, candidates):
        if depth == len(order):
            yield dict(assignment)
            return
        vertex = order[depth]
        for candidate in self._ordered_candidates(vertex, assignment, query, candidates):
            self.search_steps += 1
            if not self._consistent(vertex, candidate, assignment, query):
                continue
            assignment[vertex] = candidate
            yield from self._extend(assignment, order, depth + 1, query, candidates)
            del assignment[vertex]

    def _ordered_candidates(self, vertex, assignment, query, candidates):
        pool = candidates[vertex]
        narrowed = None
        for edge in query.edges_of(vertex):
            other = edge.other_endpoint(vertex) if vertex in edge.endpoints else None
            if other is None or other not in assignment or other == vertex:
                continue
            other_value = assignment[other]
            predicate = None if isinstance(edge.predicate, Variable) else edge.predicate
            if edge.subject == vertex:
                reachable = {t.subject for t in self._graph.triples(None, predicate, other_value)}
            else:
                reachable = {t.object for t in self._graph.triples(other_value, predicate, None)}
            narrowed = reachable if narrowed is None else narrowed & reachable
            if not narrowed:
                return iter(())
        if narrowed is None:
            return iter(sorted(pool, key=_sort_key))
        return iter(sorted(narrowed & pool, key=_sort_key))

    def _consistent(self, vertex, candidate, assignment, query):
        for edge in query.edges_of(vertex):
            subject_value = candidate if edge.subject == vertex else assignment.get(edge.subject)
            object_value = candidate if edge.object == vertex else assignment.get(edge.object)
            if edge.subject == vertex and edge.object == vertex:
                subject_value = object_value = candidate
            if subject_value is None or object_value is None:
                continue
            if not self._edge_exists(subject_value, edge, object_value):
                return False
        return True

    def _edge_exists(self, subject_value, edge, object_value):
        if isinstance(edge.predicate, Variable):
            return any(True for _ in self._graph.triples(subject_value, None, object_value))
        if not isinstance(edge.predicate, IRI):
            return False
        return any(True for _ in self._graph.triples(subject_value, edge.predicate, object_value))
