"""Random RDF graphs and BGP queries for property-based testing.

The hypothesis test-suite checks the central invariant of the whole system —
*the distributed engines return exactly the centralized answer, for every
partitioning* — on randomly generated graphs and queries.  This module keeps
those generators deterministic (driven by an externally supplied seed) and
biased toward interesting cases: connected queries with a mix of variables
and constants, drawn from patterns that actually occur in the graph so
results are frequently non-empty.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..rdf.graph import RDFGraph
from ..rdf.namespaces import Namespace
from ..rdf.terms import IRI, Node, PatternTerm, Variable
from ..rdf.triples import Triple, TriplePattern
from ..sparql.algebra import BasicGraphPattern, SelectQuery

RAND = Namespace("http://example.org/random/")


def random_graph(
    seed: int,
    num_vertices: int = 30,
    num_edges: int = 60,
    num_predicates: int = 5,
) -> RDFGraph:
    """A random directed labelled multigraph rendered as an RDF graph."""
    rng = random.Random(seed)
    vertices = [RAND.term(f"v{i}") for i in range(max(2, num_vertices))]
    predicates = [RAND.term(f"p{i}") for i in range(max(1, num_predicates))]
    graph = RDFGraph(name=f"random-{seed}")
    # A random spanning chain keeps the graph mostly connected, which makes
    # multi-edge queries more likely to have answers.
    for i in range(1, len(vertices)):
        source = vertices[rng.randrange(i)]
        graph.add(Triple(source, rng.choice(predicates), vertices[i]))
    # Only V*(V-1)*P distinct non-loop triples exist; without this clamp a
    # small-vertex / large-edge request would reject-sample forever.
    target = min(num_edges, len(vertices) * (len(vertices) - 1) * len(predicates))
    attempts_left = 200 * max(target, 1)
    while len(graph) < target and attempts_left > 0:
        attempts_left -= 1
        subject = rng.choice(vertices)
        obj = rng.choice(vertices)
        if subject == obj:
            continue
        graph.add(Triple(subject, rng.choice(predicates), obj))
    return graph


def random_connected_query(
    graph: RDFGraph,
    seed: int,
    num_edges: int = 3,
    constant_probability: float = 0.3,
) -> Optional[SelectQuery]:
    """A connected BGP query sampled from the graph's own structure.

    A random connected set of data edges is picked by a walk, then each data
    vertex is replaced by a fresh variable (or kept as a constant with
    probability ``constant_probability``).  The resulting query has at least
    one match (the sampled subgraph itself).  Returns ``None`` when the graph
    is too small to sample from.  Triples and vertices are drawn in N3 order,
    so the query depends on ``seed`` alone, not on the hash seed.
    """
    rng = random.Random(seed)
    triples = sorted(graph, key=Triple.n3)
    if not triples:
        return None
    start = triples[rng.randrange(len(triples))]
    chosen: List[Triple] = [start]
    touched = {start.subject, start.object}
    for _ in range(num_edges - 1):
        adjacent = [
            triple
            for vertex in sorted(touched, key=_n3)
            for triple in sorted(graph.edges_of(vertex), key=Triple.n3)
            if triple not in chosen
        ]
        if not adjacent:
            break
        nxt = adjacent[rng.randrange(len(adjacent))]
        chosen.append(nxt)
        touched.update((nxt.subject, nxt.object))

    vertex_terms: Dict[Node, PatternTerm] = {}
    counter = 0
    for vertex in sorted(touched, key=_n3):
        if rng.random() < constant_probability:
            vertex_terms[vertex] = vertex
        else:
            vertex_terms[vertex] = Variable(f"x{counter}")
            counter += 1
    if not any(isinstance(term, Variable) for term in vertex_terms.values()):
        # Ensure at least one variable so the query projects something.
        first = min(touched, key=_n3)
        vertex_terms[first] = Variable("x0")

    patterns = [
        TriplePattern(vertex_terms[triple.subject], triple.predicate, vertex_terms[triple.object])
        for triple in chosen
    ]
    return SelectQuery(bgp=BasicGraphPattern(patterns), projection=())


def random_assignment(graph: RDFGraph, seed: int, num_fragments: int) -> Dict[Node, int]:
    """A uniformly random vertex → fragment assignment (for partition tests),
    drawn over the vertices in N3 order, so it depends on ``seed`` alone."""
    rng = random.Random(seed)
    return {vertex: rng.randrange(num_fragments) for vertex in sorted(graph.vertices, key=_n3)}


def _n3(term: Node) -> str:
    return term.n3()
