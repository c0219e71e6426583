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
from typing import Dict, Union

from ..rdf.graph import RDFGraph
from ..rdf.ntriples import dump as dump_ntriples
from ..rdf.ntriples import load as load_ntriples
from ..rdf.ntriples import parse_term
from ..rdf.terms import Node
from .fragment import PartitionedGraph, build_partitioned_graph

PathLike = Union[str, Path]

#: Format marker written into every assignment file.
_FORMAT = "repro-partitioning/1"

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
