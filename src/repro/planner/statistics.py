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

* total triple and vertex counts,
* per-predicate triple counts and distinct subject/object counts (the
  classic ``T(p) / d_s(p) / d_o(p)`` summaries every System-R-style
  cardinality model is built from), and
* a log-bucketed vertex-degree histogram (used to reason about expected
  fan-out when no predicate information helps).

Everything serializes to plain JSON-able dictionaries so statistics can be
stored alongside a partitioned workspace or shipped between sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, NamedTuple, Tuple

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


def degree_bucket(degree: int) -> int:
    """The histogram bucket of a vertex degree: ``bit_length`` (log2) buckets.

    Bucket ``b`` holds degrees in ``[2**(b-1), 2**b - 1]``; bucket 0 is
    unused because every counted vertex has degree >= 1.
    """
    return int(degree).bit_length()


@dataclass
class GraphStatistics:
    """One graph's (or fragment's) planner-facing summary."""

    num_triples: int = 0
    num_vertices: int = 0
    predicates: Dict[IRI, PredicateStatistics] = field(default_factory=dict)
    #: ``degree_bucket(degree) -> number of vertices`` histogram.
    degree_histogram: Dict[int, int] = field(default_factory=dict)

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

    def average_degree(self) -> float:
        """Mean vertex degree, estimated from the histogram buckets."""
        total_vertices = sum(self.degree_histogram.values())
        if not total_vertices:
            return 0.0
        # Use each bucket's geometric midpoint as the representative degree.
        # Buckets are summed in sorted order so the float accumulation is
        # identical however the histogram dict was built (collected fresh,
        # patched in place, or deserialized from a store file).
        weighted = 0.0
        for bucket, vertices in sorted(self.degree_histogram.items()):
            low = 2 ** (bucket - 1) if bucket > 0 else 0
            high = 2**bucket - 1 if bucket > 0 else 0
            weighted += vertices * ((low + high) / 2.0 or 1.0)
        return weighted / total_vertices

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
            "degree_histogram": {str(bucket): count for bucket, count in self.degree_histogram.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "GraphStatistics":
        predicates = {
            IRI(value): PredicateStatistics.from_dict(stats)
            for value, stats in dict(data.get("predicates", {})).items()
        }
        histogram = {
            int(bucket): int(count)
            for bucket, count in dict(data.get("degree_histogram", {})).items()
        }
        return cls(
            num_triples=int(data.get("num_triples", 0)),
            num_vertices=int(data.get("num_vertices", 0)),
            predicates=predicates,
            degree_histogram=histogram,
        )

    def replace_with(self, other: "GraphStatistics") -> None:
        """Overwrite this summary in place with ``other``'s contents.

        Planners and optimizers hold references to one statistics object;
        refreshing *in place* updates every holder at once instead of
        leaving them bound to a stale snapshot.
        """
        self.num_triples = other.num_triples
        self.num_vertices = other.num_vertices
        self.predicates.clear()
        self.predicates.update(other.predicates)
        self.degree_histogram.clear()
        self.degree_histogram.update(other.degree_histogram)

    def summary(self) -> str:
        """One-line human rendering used by ``repro explain``."""
        return (
            f"{self.num_triples} triples, {self.num_vertices} vertices, "
            f"{self.num_predicates} predicates, avg degree {self.average_degree():.1f}"
        )


def collect_statistics(encoded: "EncodedGraph") -> GraphStatistics:
    """Summarize ``encoded`` from its columns.

    A predicate's count is its out-column's length, its distinct subjects and
    objects the key counts of its out- and in-column; a vertex's degree is
    the sum of its row lengths.
    """
    term_of = encoded.dictionary.term_of
    stats = GraphStatistics(num_triples=encoded.num_triples)
    degrees: Dict[int, int] = {}
    for predicate in encoded.predicate_ids():
        out_column, in_column = encoded.out_column(predicate), encoded.in_column(predicate)
        stats.predicates[term_of(predicate)] = PredicateStatistics(
            count=len(out_column.values),
            distinct_subjects=len(out_column.keys),
            distinct_objects=len(in_column.keys),
        )
        for column in (out_column, in_column):
            offsets = column.offsets
            for position, vertex in enumerate(column.keys):
                degrees[vertex] = degrees.get(vertex, 0) + offsets[position + 1] - offsets[position]
    stats.num_vertices = len(degrees)
    for degree in degrees.values():
        bucket = degree_bucket(degree)
        stats.degree_histogram[bucket] = stats.degree_histogram.get(bucket, 0) + 1
    return stats


def apply_statistics_ops(
    stats: GraphStatistics,
    encoded: "EncodedGraph",
    ops: Iterable[Tuple[str, Tuple[int, int, int]]],
) -> None:
    """Patch ``stats`` in place for a window of effective ``(op, (s, p, o))`` id mutations.

    ``encoded`` must already reflect the ops.  The patch is *exact*: every
    touched predicate summary is re-read from its columns, and the degree
    histogram is adjusted by walking each affected vertex's degree delta
    backwards — the result equals a fresh :func:`collect_statistics` of the
    patched encoding.
    """
    touched_predicates = set()
    degree_delta: Dict[int, int] = {}
    triple_delta = 0
    for op, (subject, predicate, obj) in ops:
        touched_predicates.add(predicate)
        step = 1 if op == "+" else -1
        triple_delta += step
        # A self-loop contributes to both the out- and in-degree.
        for vertex in (subject, obj):
            degree_delta[vertex] = degree_delta.get(vertex, 0) + step
    stats.num_triples += triple_delta
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
    histogram = stats.degree_histogram
    for vertex, delta in degree_delta.items():
        if delta == 0:
            continue
        new_degree = encoded.degree(vertex)
        old_degree = new_degree - delta
        if old_degree > 0:
            bucket = degree_bucket(old_degree)
            remaining = histogram.get(bucket, 0) - 1
            if remaining:
                histogram[bucket] = remaining
            else:
                histogram.pop(bucket, None)
            stats.num_vertices -= 1
        if new_degree > 0:
            bucket = degree_bucket(new_degree)
            histogram[bucket] = histogram.get(bucket, 0) + 1
            stats.num_vertices += 1


def merge_statistics(parts: Iterable[GraphStatistics]) -> GraphStatistics:
    """Aggregate per-site statistics into one cluster-wide summary.

    Counts add exactly.  Distinct subject/object counts and the vertex count
    also add, which over-counts vertices replicated on several fragments —
    an upper bound, which is the safe direction for a cost model (it can only
    make the planner *more* pessimistic about unselective predicates).
    """
    merged = GraphStatistics()
    for part in parts:
        merged.num_triples += part.num_triples
        merged.num_vertices += part.num_vertices
        for predicate, stats in part.predicates.items():
            into = merged.predicates.get(predicate)
            if into is not None:
                stats = PredicateStatistics(
                    into.count + stats.count,
                    into.distinct_subjects + stats.distinct_subjects,
                    into.distinct_objects + stats.distinct_objects,
                )
            merged.predicates[predicate] = stats
        for bucket, count in part.degree_histogram.items():
            merged.degree_histogram[bucket] = merged.degree_histogram.get(bucket, 0) + count
    return merged
