"""Graph statistics for cost-based query planning.

The planner never looks at the data graph directly: everything it knows is
summarized here, once per :class:`~repro.store.TripleStore` (the store
collects the summary when it is built; a site patches it with each update
window).  The summary is read off an
:class:`~repro.store.encoding.EncodedGraph`'s sorted columns — column
lengths and key counts, no pass over the triples — and deliberately small,
because in the distributed setting every site ships its statistics to the
coordinator, which aggregates them (see :func:`merge_statistics` and
:meth:`~repro.distributed.Cluster.graph_statistics`).

Collected per graph/fragment:

* total triple and vertex counts, and
* per-predicate triple counts and distinct subject/object counts (the
  classic ``T(p) / d_s(p) / d_o(p)`` summaries every System-R-style
  cardinality model is built from).

Everything serializes to plain JSON-able dictionaries so statistics can be
stored alongside a partitioned workspace or shipped between sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, NamedTuple, Sequence, Tuple

from ..rdf.terms import IRI

if TYPE_CHECKING:  # the store package imports the planner
    from ..store.encoding import EncodedGraph


class PredicateStatistics(NamedTuple):
    """Summary of all triples sharing one predicate.

    Immutable: a patch or a merge builds a new summary, so a plan-cache key
    that holds one (:meth:`~repro.planner.QueryPlanner.plan_for`) keeps the
    values its plan was chosen against.
    """

    count: int = 0
    distinct_subjects: int = 0
    distinct_objects: int = 0

    def as_dict(self) -> Dict[str, int]:
        """A JSON-able rendering of this predicate's summary counters."""
        return {
            "count": self.count,
            "distinct_subjects": self.distinct_subjects,
            "distinct_objects": self.distinct_objects,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, int]) -> "PredicateStatistics":
        return cls(
            count=int(data.get("count", 0)),
            distinct_subjects=int(data.get("distinct_subjects", 0)),
            distinct_objects=int(data.get("distinct_objects", 0)),
        )


@dataclass
class GraphStatistics:
    """One graph's (or fragment's) planner-facing summary."""

    num_triples: int = 0
    num_vertices: int = 0
    predicates: Dict[IRI, PredicateStatistics] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Lookups used by the cardinality estimator
    # ------------------------------------------------------------------
    @property
    def num_predicates(self) -> int:
        return len(self.predicates)

    def predicate_count(self, predicate: IRI) -> int:
        """Number of triples labelled ``predicate`` (0 when unseen)."""
        stats = self.predicates.get(predicate)
        return stats.count if stats is not None else 0

    def distinct_subjects(self, predicate: IRI) -> int:
        """Distinct subject count of ``predicate`` (0 for unseen predicates)."""
        stats = self.predicates.get(predicate)
        return stats.distinct_subjects if stats is not None else 0

    def distinct_objects(self, predicate: IRI) -> int:
        """Distinct object count of ``predicate`` (0 for unseen predicates)."""
        stats = self.predicates.get(predicate)
        return stats.distinct_objects if stats is not None else 0

    @property
    def is_empty(self) -> bool:
        return self.num_triples == 0

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """A JSON-able rendering (predicates keyed by their IRI string)."""
        return {
            "num_triples": self.num_triples,
            "num_vertices": self.num_vertices,
            "predicates": {
                predicate.value: stats.as_dict() for predicate, stats in self.predicates.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "GraphStatistics":
        """The summary of :meth:`as_dict`; a ``degree_histogram`` older files carry is ignored."""
        predicates = {
            IRI(value): PredicateStatistics.from_dict(stats)
            for value, stats in dict(data.get("predicates", {})).items()
        }
        return cls(
            num_triples=int(data.get("num_triples", 0)),
            num_vertices=int(data.get("num_vertices", 0)),
            predicates=predicates,
        )

    def summary(self) -> str:
        """One-line human rendering used by ``repro explain``."""
        average = 2 * self.num_triples / self.num_vertices if self.num_vertices else 0.0
        return (
            f"{self.num_triples} triples, {self.num_vertices} vertices, "
            f"{self.num_predicates} predicates, avg degree {average:.1f}"
        )


def collect_statistics(encoded: "EncodedGraph") -> GraphStatistics:
    """Summarize ``encoded`` from its columns.

    A predicate's count is its out-column's length, its distinct subjects and
    objects the key counts of its out- and in-column; the vertices are the
    keys of every column.
    """
    term_of = encoded.dictionary.term_of
    stats = GraphStatistics(num_triples=encoded.num_triples)
    vertices = set()
    for predicate in encoded.predicate_ids():
        out_column, in_column = encoded.out_column(predicate), encoded.in_column(predicate)
        stats.predicates[term_of(predicate)] = PredicateStatistics(
            count=len(out_column.values),
            distinct_subjects=len(out_column.keys),
            distinct_objects=len(in_column.keys),
        )
        vertices.update(out_column.keys, in_column.keys)
    stats.num_vertices = len(vertices)
    return stats


def apply_statistics_ops(
    stats: GraphStatistics,
    encoded: "EncodedGraph",
    ops: Iterable[Tuple[str, Tuple[int, int, int]]],
) -> None:
    """Patch ``stats`` in place for a window of effective ``(op, (s, p, o))`` id mutations.

    ``encoded`` must already reflect the ops.  The patch is *exact*: every
    touched predicate summary is re-read from its columns, and the vertex
    count is the length of the patched vertex list — the result equals a
    fresh :func:`collect_statistics` of the patched encoding.
    """
    touched_predicates = set()
    for op, (_, predicate, _) in ops:
        touched_predicates.add(predicate)
        stats.num_triples += 1 if op == "+" else -1
    term_of = encoded.dictionary.term_of
    for predicate_id in touched_predicates:
        predicate = term_of(predicate_id)
        out_column = encoded.out_column(predicate_id)
        if not out_column.keys:
            stats.predicates.pop(predicate, None)
            continue
        stats.predicates[predicate] = PredicateStatistics(
            len(out_column.values), len(out_column.keys), len(encoded.in_column(predicate_id).keys)
        )
    stats.num_vertices = len(encoded.sorted_vertex_ids)


def merge_statistics(parts: Iterable[GraphStatistics]) -> GraphStatistics:
    """Aggregate per-site statistics into one cluster-wide summary.

    Counts add exactly.  Distinct subject/object counts and the vertex count
    also add, which over-counts vertices replicated on several fragments —
    an upper bound, which is the safe direction for a cost model (it can only
    make the planner *more* pessimistic about unselective predicates).
    """
    parts = list(parts)
    merged = GraphStatistics()
    remerge_statistics(merged, parts, dict.fromkeys(predicate for part in parts for predicate in part.predicates))
    return merged


def remerge_statistics(merged: GraphStatistics, parts: Sequence[GraphStatistics], predicates: Iterable[IRI]) -> None:
    """Re-sum ``merged``'s totals and its summaries of ``predicates`` over ``parts``, in place:
    their :func:`merge_statistics` again when nothing else changed since it."""
    merged.num_triples = sum(part.num_triples for part in parts)
    merged.num_vertices = sum(part.num_vertices for part in parts)
    for predicate in predicates:
        found = [part.predicates[predicate] for part in parts if predicate in part.predicates]
        if found:
            merged.predicates[predicate] = PredicateStatistics(*map(sum, zip(*found)))
        else:
            merged.predicates.pop(predicate, None)
