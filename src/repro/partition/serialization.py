"""Saving and loading partitionings (and whole distributed workspaces).

In the paper's motivating scenario the partitioning comes from the outside —
data publishers decide where their triples live — so a practical deployment
needs to persist and exchange vertex assignments.  This module stores an
assignment as a plain JSON document (vertex N3 text → fragment id) next to
the N-Triples file of the graph, and can rebuild the
:class:`~repro.partition.PartitionedGraph` from the pair.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..rdf import graph as graph_module
from ..rdf.graph import RDFGraph
from ..rdf.ntriples import dump as dump_ntriples
from ..rdf.ntriples import load as load_ntriples
from ..rdf.ntriples import parse_term
from ..rdf.terms import Node
from ..rdf.triples import Triple
from .fragment import Fragment, PartitionedGraph, build_partitioned_graph

PathLike = Union[str, Path]

#: Format marker written into every assignment file.
_FORMAT = "repro-partitioning/1"

#: Format marker of a dictionary-encoded fragment payload (current).
_FRAGMENT_FORMAT = "repro-fragment/2"

#: Format marker of a store-reference payload: instead of inlining the
#: fragment's data it points at a :class:`~repro.persist.ClusterStore` file
#: (``store_path``, ``fragment_id``) pinned at a delta sequence number, and
#: the receiver loads the fragment from the store read-only.  Written by
#: ``WorkerBootstrap.from_cluster`` when the cluster has an attached store.
_FRAGMENT_FORMAT_V3 = "repro-fragment/3"


def assignment_to_dict(partitioned: PartitionedGraph) -> Dict[str, object]:
    """The JSON-serializable representation of a partitioning's assignment."""
    return {
        "format": _FORMAT,
        "strategy": partitioned.strategy,
        "num_fragments": partitioned.num_fragments,
        "assignment": {
            vertex.n3(): fragment_id for vertex, fragment_id in partitioned.assignment.items()
        },
    }


def save_assignment(partitioned: PartitionedGraph, path: PathLike) -> None:
    """Write the vertex → fragment assignment of ``partitioned`` to ``path`` (JSON)."""
    payload = assignment_to_dict(partitioned)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def load_assignment(path: PathLike) -> Dict[Node, int]:
    """Read a vertex → fragment assignment written by :func:`save_assignment`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != _FORMAT:
        raise ValueError(f"{path!s} is not a repro partitioning file")
    return {parse_term(text): fragment_id for text, fragment_id in payload["assignment"].items()}


def load_partitioning(
    graph: RDFGraph,
    path: PathLike,
    validate: bool = True,
) -> PartitionedGraph:
    """Rebuild a :class:`PartitionedGraph` for ``graph`` from a saved assignment."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != _FORMAT:
        raise ValueError(f"{path!s} is not a repro partitioning file")
    assignment = {parse_term(text): fid for text, fid in payload["assignment"].items()}
    return build_partitioned_graph(
        graph,
        assignment,
        num_fragments=payload.get("num_fragments"),
        strategy=payload.get("strategy", "loaded"),
        validate=validate,
    )


def fragment_to_payload(fragment: Fragment) -> Dict[str, object]:
    """Plain-data (JSON- and pickle-safe) representation of one fragment.

    The payload is dictionary-encoded: every distinct term of the fragment
    (vertices and predicates) is serialized as N3 text exactly once, in the
    sorted ``terms`` list, and vertices/edges reference terms by their index
    in that list.  Sorting the dictionary and every id list makes equal
    fragments produce equal payloads, and shipping each term once makes the
    pickles the process-pool execution backend sends to its workers much
    smaller than the v1 format, which repeated the full N3 text of every
    term in every edge (:mod:`repro.exec.worker` rebuilds every site's
    fragment from these payloads exactly once, in its initializer).
    """
    terms = set(fragment.internal_vertices)
    terms.update(fragment.extended_vertices)
    for edge in fragment.internal_edges:
        terms.update((edge.subject, edge.predicate, edge.object))
    for edge in fragment.crossing_edges:
        terms.update((edge.subject, edge.predicate, edge.object))
    # N3 text is unique per term (types have disjoint surface syntax), so it
    # is a canonical sort key and the round trip needs one parse per term.
    ordered = sorted(term.n3() for term in terms)
    term_id = {text: position for position, text in enumerate(ordered)}

    def edge_ids(edges) -> List[List[int]]:
        return sorted(
            [term_id[e.subject.n3()], term_id[e.predicate.n3()], term_id[e.object.n3()]]
            for e in edges
        )

    return {
        "format": _FRAGMENT_FORMAT,
        "fragment_id": fragment.fragment_id,
        "terms": ordered,
        "internal_vertices": sorted(term_id[v.n3()] for v in fragment.internal_vertices),
        "extended_vertices": sorted(term_id[v.n3()] for v in fragment.extended_vertices),
        "internal_edges": edge_ids(fragment.internal_edges),
        "crossing_edges": edge_ids(fragment.crossing_edges),
    }


def fragment_to_store_payload(fragment_id: int, store) -> Dict[str, object]:
    """A v3 store-reference payload for one fragment of an attached store.

    Ships three scalars instead of the fragment's data: the store file path,
    the fragment id and the store's current delta head.  The receiving
    process opens the file read-only and rebuilds the fragment (base edges +
    bounded delta replay), so bootstrap cost scales with the fragment — not
    with what must be pickled through a pipe.
    """
    return {
        "format": _FRAGMENT_FORMAT_V3,
        "fragment_id": int(fragment_id),
        "store_path": str(store.path),
        "delta_seq": int(store.delta_head),
    }


def fragment_from_payload(payload: Dict[str, object]) -> Fragment:
    """Rebuild a :class:`Fragment` written by :func:`fragment_to_payload`.

    Accepts the current dictionary-encoded format and the v3 store-reference
    format (which opens the referenced store file read-only); the v1 format
    that spelled every term out in place is no longer read.
    """
    marker = payload.get("format")
    if marker == _FRAGMENT_FORMAT_V3:
        from ..persist import ClusterStore

        with ClusterStore.open(payload["store_path"], read_only=True) as store:
            return store.load_fragment(
                int(payload["fragment_id"]), up_to=int(payload["delta_seq"])
            )
    if marker != _FRAGMENT_FORMAT:
        raise ValueError(f"not a repro fragment payload: {marker!r}")
    terms = [parse_term(text) for text in payload["terms"]]

    def edges(entries) -> set:
        return {Triple(terms[s], terms[p], terms[o]) for s, p, o in entries}

    return Fragment(
        fragment_id=int(payload["fragment_id"]),
        internal_vertices={terms[i] for i in payload["internal_vertices"]},
        extended_vertices={terms[i] for i in payload["extended_vertices"]},
        internal_edges=edges(payload["internal_edges"]),
        crossing_edges=edges(payload["crossing_edges"]),
    )


def fragments_to_payloads(partitioned: PartitionedGraph) -> List[Dict[str, object]]:
    """Every fragment of ``partitioned`` as a payload, in fragment-id order."""
    return [fragment_to_payload(fragment) for fragment in partitioned]


def save_workspace(partitioned: PartitionedGraph, directory: PathLike) -> Dict[str, Path]:
    """Persist a whole distributed workspace (graph + assignment) to ``directory``.

    Returns the paths written: ``graph.nt`` with the full RDF graph and
    ``partitioning.json`` with the assignment.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    graph_path = directory / "graph.nt"
    assignment_path = directory / "partitioning.json"
    dump_ntriples(partitioned.graph, graph_path)
    save_assignment(partitioned, assignment_path)
    return {"graph": graph_path, "assignment": assignment_path}


def load_workspace(directory: PathLike, validate: bool = True) -> PartitionedGraph:
    """Rebuild the distributed workspace written by :func:`save_workspace`."""
    directory = Path(directory)
    graph = load_ntriples(directory / "graph.nt", name=directory.name)
    return load_partitioning(graph, directory / "partitioning.json", validate=validate)
