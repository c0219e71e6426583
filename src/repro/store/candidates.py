"""Per-variable candidate computation.

Existing RDF stores (the paper names gStore's filter-and-evaluate design)
first compute a candidate set for every query variable, then run subgraph
matching over those candidates.  The candidate sets are also the raw
material of the paper's third optimization (Section VI): each site computes
the *internal* candidates of every variable, compresses them into a bit
vector, and the coordinator ORs the vectors so sites can discard extended
candidates that are internal nowhere.

The computation runs on the graph's dictionary-encoded view
(:mod:`repro.store.encoding`): a pool is the intersection of the sorted
adjacency columns of its vertex's query edges, all on integer ids, and the
resulting id sets are decoded to :class:`~repro.rdf.terms.Node` sets only at
this module's public boundary.  :func:`compute_candidate_ids` is the id-domain entry point,
skipping the decode/re-encode round trip.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..rdf.graph import RDFGraph
from ..rdf.terms import Node, PatternTerm, Variable
from ..sparql.query_graph import QueryEdge, QueryGraph
from .encoding import EncodedGraph, encoded_view, predicate_code
from .kernel import ArrayRunner

__all__ = [
    "predicate_code",
    "edge_supported",
    "compute_candidate_ids",
    "compute_candidates",
]


def edge_supported(
    graph: RDFGraph,
    vertex: Node,
    query: QueryGraph,
    query_vertex: PatternTerm,
    edge_index: int,
) -> bool:
    """Does ``vertex`` have at least one incident data edge matching query edge ``edge_index``?

    Only the direction and (constant) predicate are checked, plus the other
    endpoint when it is a constant; the other endpoint being a variable means
    any neighbour will do.
    """
    encoded = encoded_view(graph)
    vertex_id = encoded.dictionary.get(vertex)
    if vertex_id is None:
        return False
    edge = query.edge_at(edge_index)
    if query_vertex not in (edge.subject, edge.object):
        raise ValueError("query vertex is not an endpoint of the given edge")
    return _edge_supported_id(encoded, vertex_id, edge, query_vertex)


def _edge_supported_id(
    encoded: EncodedGraph,
    vertex_id: int,
    edge: QueryEdge,
    query_vertex: PatternTerm,
) -> bool:
    """Integer-kernel edge-support probe (see :func:`edge_supported`)."""
    code = predicate_code(encoded, edge.predicate)
    if edge.subject == query_vertex:
        other = edge.object
        if isinstance(other, Variable):
            return encoded.has_out_edge(vertex_id, code)
        other_id = encoded.dictionary.get(other)
        return other_id is not None and encoded.has_edge(vertex_id, code, other_id)
    other = edge.subject
    if isinstance(other, Variable):
        return encoded.has_in_edge(vertex_id, code)
    other_id = encoded.dictionary.get(other)
    return other_id is not None and encoded.has_edge(other_id, code, vertex_id)


def compute_candidate_ids(
    encoded: EncodedGraph,
    query: QueryGraph,
    relaxed_edges: Optional[Dict[PatternTerm, Set[int]]] = None,
) -> Dict[PatternTerm, Set[int]]:
    """Candidate *ids* for every query vertex — the matcher's fast path.

    Same semantics as :func:`compute_candidates`, but input and output stay
    in the integer domain of ``encoded``.  The pools come from the
    sorted-column kernel (:mod:`repro.store.kernel`): edge support as
    sorted-column membership.
    """
    pools = ArrayRunner(encoded).compute_pools(query, relaxed_edges)
    return {vertex: set(pool) for vertex, pool in pools.items()}


def compute_candidates(
    graph: RDFGraph,
    query: QueryGraph,
    relaxed_edges: Optional[Dict[PatternTerm, Set[int]]] = None,
) -> Dict[PatternTerm, Set[Node]]:
    """Compute a candidate set for every query vertex.

    Parameters
    ----------
    graph:
        The data graph (a whole RDF graph, or one fragment's graph).
    query:
        The query graph.
    relaxed_edges:
        Per query vertex, indices of query edges whose support must *not* be
        required.  Sites use this for extended vertices, whose edges inside
        other fragments are invisible locally.

    Returns
    -------
    dict
        Mapping each query vertex (constant vertices included) to the set of
        data vertices that could match it based on local-only checks.
    """
    encoded = encoded_view(graph)
    id_candidates = compute_candidate_ids(encoded, query, relaxed_edges)
    decode = encoded.dictionary.decode_ids
    return {query_vertex: decode(ids) for query_vertex, ids in id_candidates.items()}
