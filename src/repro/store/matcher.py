"""BGP matcher over one encoded graph (subgraph homomorphism search).

This is the "local evaluation inside one site" engine and also the
ground-truth centralized evaluator used by the tests: finding all matches of
a BGP query over an RDF graph is finding all subgraph homomorphisms from the
query graph to the data graph (Definition 3).  Distinct query vertices may
map to the same data vertex, matching SPARQL semantics, and a predicate
variable is bound like any other: a match yields a row per label its edges
share.

The search is a batched backtracking frontier over the query vertices in a
connectivity-preserving order, on the ids of :mod:`repro.store.encoding`:
one call of the :mod:`repro.store.kernel` runner computes a whole depth's
candidates by merge-join over sorted rows.  It gives the match sequence and
``search_steps`` of the hash-set path the test-suite keeps as its oracle.
A complete match decodes to :class:`~repro.rdf.terms.Node` objects only
when it is yielded.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..planner.optimizer import QueryPlanner
from ..rdf.graph import RDFGraph
from ..rdf.terms import Node, PatternTerm, Variable
from ..sparql.algebra import SelectQuery
from ..sparql.bindings import ResultSet, Row
from ..sparql.query_graph import QueryGraph, traversal_order
from .encoding import PREDICATE_ANY, EncodedGraph
from .kernel import ArrayRunner, query_layout, query_pools


def finalize_matches(query: SelectQuery, rows: List[Row]) -> ResultSet:
    """Turn raw match rows into the query's final solution sequence.

    ``rows`` are already in projection order (:meth:`LocalMatcher.raw_matches`);
    DISTINCT and LIMIT are the per-query postlude that must run over the
    *complete* match stream.
    """
    if query.distinct:
        rows = list(dict.fromkeys(rows))
    return ResultSet(variables=query.effective_projection, rows=rows[: query.limit])


def cross_product(parts: Sequence[Tuple[Sequence[Variable], Sequence[Row]]], projection) -> List[Row]:
    """Rows of ``projection``, one per combination of a row from each part.

    A part is one connected component's ``(variables, rows)``.  Components
    share no vertex, but may share a predicate variable: a combination is
    kept only when its rows agree on it.
    """
    combined: List[Dict[Variable, Node]] = [{}]
    for names, rows in parts:
        assignments = [dict(zip(names, row)) for row in rows]
        combined = [
            {**a, **b}
            for a in combined
            for b in assignments
            if all(a[v] == b[v] for v in a.keys() & b.keys())
        ]
    return [tuple(map(assignment.get, projection)) for assignment in combined]


class LocalMatcher:
    """Find all matches of BGP queries over one :class:`EncodedGraph`.

    A caller holding an :class:`~repro.rdf.graph.RDFGraph` passes an
    :class:`EncodedGraph` of it.
    """

    #: The per-call match runner (the parity suites substitute their oracle).
    runner_class = ArrayRunner

    def __init__(
        self,
        encoded: EncodedGraph,
        planner: Optional[QueryPlanner] = None,
    ) -> None:
        self._encoded = encoded
        self._planner = planner
        #: Number of candidate assignments attempted by the most recent
        #: ``find_matches``/``evaluate`` call (a deterministic work measure
        #: used by the planner benchmarks).
        self.search_steps = 0
        #: Candidate-column intersection operations the most recent call
        #: performed (the kernel's work measure; observability only).
        self.kernel_intersections = 0
        #: Kernel name the most recent call ran with.
        self.last_kernel = ""

    @property
    def encoded(self) -> EncodedGraph:
        return self._encoded

    @property
    def planner(self) -> Optional[QueryPlanner]:
        return self._planner

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(self, query: SelectQuery) -> ResultSet:
        """Evaluate a SELECT/ASK query and return its solutions.

        Disconnected BGPs are evaluated one connected component at a time and
        combined with a cross product, mirroring the paper's assumption that
        connected components are considered separately.
        """
        if not query.bgp.connected_components():
            return ResultSet(variables=query.effective_projection)
        return finalize_matches(query, self.raw_matches(query))

    def raw_matches(self, query: SelectQuery) -> List[Row]:
        """Every BGP match of ``query`` as a row in projection order.

        :meth:`evaluate` before its postlude: each row is read straight off
        the search's assignment slots, a cell per projected variable (``None``
        for one the BGP does not bind); DISTINCT/LIMIT are *not* applied
        (:func:`finalize_matches` does that).
        """
        components = query.bgp.connected_components()
        self.search_steps = 0
        self.kernel_intersections = 0
        self.last_kernel = self.runner_class.kernel
        if not components:
            return []
        projection = query.effective_projection
        if len(components) == 1:
            # A sole component in the BGP's own pattern order has the BGP's
            # graph: share the live one (the coordinator's) instead of
            # building one per site.
            if components[0] == query.bgp:
                graph = QueryGraph.of(query.bgp)
            else:
                graph = QueryGraph(components[0])
            return list(self._solutions(graph, None, projection))
        parts = []
        steps = intersections = 0
        for component in components:
            names = component.variables
            parts.append((names, list(self._solutions(QueryGraph(component), None, names))))
            steps += self.search_steps
            intersections += self.kernel_intersections
        self.search_steps = steps
        self.kernel_intersections = intersections
        return cross_product(parts, projection)

    def find_matches(
        self,
        query: QueryGraph,
        order: Optional[Sequence[PatternTerm]] = None,
    ) -> Iterator[Dict[PatternTerm, Node]]:
        """Yield complete assignments (query vertex → data vertex) for ``query``.

        The vertex visit order is, in priority: the explicit ``order``
        argument, the attached planner's cost-based order, or the seed's
        static :func:`traversal_order`.  Any permutation of the query
        vertices yields the same matches — the order only changes how much
        of the search space is explored before failures are detected.

        The kernel's pools come from the encoding's signature cache
        (:func:`~repro.store.kernel.query_pools`).  An assignment is yielded
        once, if its edges of each predicate variable share a label.
        """
        vertices = query.vertices
        return (dict(zip(vertices, row)) for row in self._solutions(query, order, vertices, per_label=False))

    def _solutions(self, query, order, columns, per_label: bool = True) -> Iterator[Row]:
        """:meth:`find_matches`, each match as a row of the terms of ``columns``.

        A column the query binds nowhere is ``None``; only the terms a column
        names are decoded.  With ``per_label`` a match is one row per labelling
        of its predicate-variable edges where each variable's edges carry one
        label, in ascending label order (:meth:`_labelled`).
        """
        self.search_steps = 0
        self.kernel_intersections = 0
        self.last_kernel = self.runner_class.kernel
        encoded = self._encoded
        runner = self.runner_class(encoded)
        try:
            if self.runner_class is ArrayRunner:
                cached = query_pools(encoded, query)
                pools = {vertex: entry.pool for vertex, entry in cached.items()}
                runner.intersections = sum(entry.intersections for entry in cached.values())
            else:
                pools = runner.compute_pools(query)
            if any(len(pools[vertex]) == 0 for vertex in query.vertices):
                return
            if order is not None:
                chosen = list(order)
            elif self._planner is not None:
                chosen = self._planner.order_for(query)
            else:
                chosen = traversal_order(query)
            compiled = runner.compile(query, chosen, pools)
            assignment: List[Optional[int]] = [None] * query.num_vertices
            term_of = encoded.dictionary.term_of
            form = query_layout(query)
            # A cell is a vertex's index in the assignment, or past it a
            # predicate variable's position in ``labelled``.
            base, first = form.num_edges, {edges[0]: len(assignment) + at for at, edges in enumerate(form.labelled)}
            cells = [s if s is None else s - base if s >= base else first[s] for s in form.row_slots(columns)]
            matches = self._extend(assignment, compiled, runner)
            if form.labelled:
                matches = self._labelled(form, matches, per_label)
            for values in matches:
                yield tuple([None if cell is None else term_of(values[cell]) for cell in cells])
        finally:
            self.kernel_intersections += runner.intersections

    def _labelled(self, form, matches: Iterator[List[int]], per_label: bool) -> Iterator[List[int]]:
        """Each of ``matches`` followed by a label per predicate variable, once
        per labelling where each variable's edges carry one label, ascending
        (without ``per_label``, once with no labels if there is such a labelling)."""
        triple_ids, ends = self._encoded.triple_ids, form.edge_ends
        for assignment in matches:
            choices = []
            for edges in form.labelled:
                labels = None
                for edge in edges:
                    _, _, subject, obj = ends[edge]
                    found = [p for _, p, _ in triple_ids(assignment[subject], PREDICATE_ANY, assignment[obj])]
                    labels = found if labels is None else [label for label in labels if label in found]
                choices.append(labels)
            if all(choices):
                for labels in product(*choices) if per_label else [()]:
                    yield assignment + list(labels)

    def count_matches(self, query: QueryGraph) -> int:
        """Number of complete matches (used by benchmarks)."""
        return sum(1 for _ in self.find_matches(query))

    # ------------------------------------------------------------------
    # Backtracking search (batched frontier over the kernel runner)
    # ------------------------------------------------------------------
    def _extend(
        self,
        assignment: List[Optional[int]],
        compiled: List[object],
        runner: ArrayRunner,
    ) -> Iterator[List[Optional[int]]]:
        """DFS over the compiled vertices; yields ``assignment`` once per complete match.

        Iterative (an explicit per-depth frame stack) rather than nested
        generators: every yielded match would otherwise bubble through one
        generator frame per query vertex.  Each depth's candidate frontier
        is computed in one batched runner call when the depth is first
        entered; ``tried`` — the frontier size before residual consistency
        filtering — is charged to ``search_steps`` right there, exactly the
        count the old per-candidate loop accumulated lazily (all callers
        consume the generator fully, so the totals are identical).
        """
        if not compiled:
            yield assignment
            return
        frontier = runner.frontier
        last = len(compiled) - 1
        stack: List[Optional[List[object]]] = [None] * len(compiled)
        depth = 0
        while depth >= 0:
            frame = stack[depth]
            if frame is None:
                survivors, tried = frontier(compiled[depth], assignment)
                self.search_steps += tried
                frame = [survivors, 0]
                stack[depth] = frame
            survivors, position = frame
            if position == len(survivors):
                stack[depth] = None
                assignment[compiled[depth].index] = None
                depth -= 1
                continue
            frame[1] = position + 1
            assignment[compiled[depth].index] = survivors[position]
            if depth == last:
                yield assignment  # complete, read in place before the search resumes
            else:
                depth += 1


def evaluate_centralized(
    graph: RDFGraph,
    query: SelectQuery,
    planner: Optional[QueryPlanner] = None,
) -> ResultSet:
    """One-shot convenience wrapper: evaluate ``query`` over a fresh encoding of ``graph``."""
    return LocalMatcher(EncodedGraph(graph), planner=planner).evaluate(query)
