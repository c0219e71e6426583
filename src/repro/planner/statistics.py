"""Graph statistics for cost-based query planning.

The planner never looks at the data graph directly: everything it knows is
read off the sorted columns of one or more encodings
(:class:`~repro.store.encoding.EncodedGraph`) — column lengths and key
counts, no pass over the triples and no copy.  A site's
:class:`~repro.store.TripleStore` holds the view of its own encoding; the
coordinator's (:meth:`~repro.distributed.Cluster.graph_statistics`) covers
every site's encoding, summing what each site would report.  An update
patches the columns, and the view reads the patched columns.

Read per view:

* total triple and vertex counts, and
* per-predicate triple counts and distinct subject/object counts (the
  classic ``T(p) / d_s(p) / d_o(p)`` summaries every System-R-style
  cardinality model is built from).

Summed over sites, distinct subject/object counts and the vertex count
over-count vertices replicated on several fragments — an upper bound, which
is the safe direction for a cost model (it can only make the planner *more*
pessimistic about unselective predicates).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from ..rdf.terms import PatternTerm

if TYPE_CHECKING:  # the store package imports the planner
    from ..store.encoding import EncodedGraph

#: What :meth:`GraphStatistics.read` gives for a predicate no triple carries.
_UNSEEN = (0, 0, 0)


class GraphStatistics:
    """The planner-facing summary of encodings that share one dictionary: a
    read-only view that holds no numbers of its own."""

    __slots__ = ("_encodings", "_code_of")

    def __init__(self, encodings: Sequence["EncodedGraph"] = ()) -> None:
        self._encodings: Tuple["EncodedGraph", ...] = tuple(encodings)
        self._code_of = self._encodings[0].dictionary.get if self._encodings else {}.get

    # ------------------------------------------------------------------
    # Lookups used by the cardinality estimator
    # ------------------------------------------------------------------
    # Plain loops, not ``sum`` over a generator: the coordinator planner reads
    # these on every query.
    @property
    def num_triples(self) -> int:
        total = 0
        for encoded in self._encodings:
            total += encoded.num_triples
        return total

    @property
    def num_vertices(self) -> int:
        total = 0
        for encoded in self._encodings:
            total += len(encoded.sorted_vertex_ids)
        return total

    @property
    def num_predicates(self) -> int:
        return len({code for encoded in self._encodings for code in encoded.predicate_ids()})

    @property
    def is_empty(self) -> bool:
        return self.num_triples == 0

    def read(self, predicate: PatternTerm) -> Optional[Tuple[int, int, int]]:
        """``(triples, distinct subjects, distinct objects)`` of ``predicate``,
        or ``None`` when no triple carries it.

        A predicate's triples are its out-column's values, its distinct
        subjects and objects the key counts of its out- and in-column.
        """
        code = self._code_of(predicate)
        if code is None:
            return None
        count = subjects = objects = 0
        for encoded in self._encodings:
            out_column = encoded.out_column(code)
            count += len(out_column.values)
            subjects += len(out_column.keys)
            objects += len(encoded.in_column(code).keys)
        return (count, subjects, objects) if count else None

    def predicate_count(self, predicate: PatternTerm) -> int:
        """Number of triples labelled ``predicate`` (0 when unseen)."""
        return (self.read(predicate) or _UNSEEN)[0]

    def distinct_subjects(self, predicate: PatternTerm) -> int:
        """Distinct subject count of ``predicate`` (0 for unseen predicates)."""
        return (self.read(predicate) or _UNSEEN)[1]

    def distinct_objects(self, predicate: PatternTerm) -> int:
        """Distinct object count of ``predicate`` (0 for unseen predicates)."""
        return (self.read(predicate) or _UNSEEN)[2]

    def summary(self) -> str:
        """One-line human rendering used by ``repro explain``."""
        num_triples, num_vertices = self.num_triples, self.num_vertices
        average = 2 * num_triples / num_vertices if num_vertices else 0.0
        return (
            f"{num_triples} triples, {num_vertices} vertices, "
            f"{self.num_predicates} predicates, avg degree {average:.1f}"
        )


class _EncodingStatistics(GraphStatistics):
    """The view of one encoding, as a site's store holds it: the same reads
    without a loop over encodings, since every site planner makes them on
    every query."""

    __slots__ = ("_encoded",)

    def __init__(self, encoded: "EncodedGraph") -> None:
        super().__init__([encoded])
        self._encoded = encoded

    @property
    def num_triples(self) -> int:
        return self._encoded.num_triples

    @property
    def num_vertices(self) -> int:
        return len(self._encoded.sorted_vertex_ids)

    def read(self, predicate: PatternTerm) -> Optional[Tuple[int, int, int]]:
        code = self._code_of(predicate)
        if code is None:
            return None
        out_column = self._encoded.out_column(code)
        if not out_column.values:
            return None
        return (len(out_column.values), len(out_column.keys), len(self._encoded.in_column(code).keys))


def collect_statistics(encoded: "EncodedGraph") -> GraphStatistics:
    """The statistics view of one encoding."""
    return _EncodingStatistics(encoded)
