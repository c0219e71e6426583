"""Centralized BGP matcher (subgraph homomorphism search).

This is the "local evaluation inside one site" engine and also the
ground-truth centralized evaluator used by the tests: finding all matches of
a BGP query over an RDF graph is finding all subgraph homomorphisms from the
query graph to the data graph (Definition 3).

The matcher is a classic backtracking search over the query vertices in a
connectivity-preserving order, with candidate filtering (per-edge support,
as sorted-column intersection) done upfront.  Variables on predicates are
supported.  Distinct query vertices may map to the same data vertex
(homomorphism, not isomorphism), matching SPARQL semantics.

Since the dictionary-encoding PR the search runs entirely on dense integer
ids from :mod:`repro.store.encoding`; the per-depth candidate computation
is delegated to the sorted-column *match runner* of
:mod:`repro.store.kernel`, which narrows candidates by galloping merge-join
over sorted adjacency lists.  The search itself is a batched backtracking
frontier — one runner call computes a whole depth's ordered candidates at
once — and it produces the identical match sequence and identical
``search_steps`` (the frontier's pre-consistency candidate count per depth,
exactly what the per-candidate loop used to charge) as the original
hash-set path, which the test-suite keeps as its oracle.

Assignments decode back to :class:`~repro.rdf.terms.Node` objects only when
a complete match is yielded.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from ..planner.optimizer import QueryPlanner
from ..rdf.graph import RDFGraph
from ..rdf.terms import Node, PatternTerm
from ..sparql.algebra import SelectQuery
from ..sparql.bindings import ResultSet, Row
from ..sparql.query_graph import QueryGraph, traversal_order
from .encoding import encoded_view
from .kernel import ArrayRunner, QueryPools, cached_pools


def finalize_matches(query: SelectQuery, rows: List[Row]) -> ResultSet:
    """Turn raw match rows into the query's final solution sequence.

    ``rows`` are already in projection order (:meth:`LocalMatcher.raw_matches`);
    DISTINCT and LIMIT are the per-query postlude that must run over the
    *complete* match stream.
    """
    if query.distinct:
        rows = list(dict.fromkeys(rows))
    return ResultSet(variables=query.effective_projection, rows=rows[: query.limit])


class LocalMatcher:
    """Find all matches of BGP queries over a single in-memory RDF graph."""

    #: The per-call match runner (the parity suites substitute their oracle).
    runner_class = ArrayRunner

    def __init__(
        self,
        graph: RDFGraph,
        planner: Optional[QueryPlanner] = None,
    ) -> None:
        self._graph = graph
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
    def graph(self) -> RDFGraph:
        return self._graph

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
            # Pools are per query vertex: a sole component reuses the query's.
            pools = cached_pools(self._graph, query.bgp)
            return list(self._solutions(QueryGraph(components[0]), None, pools, projection))
        partial: List[List[Dict[PatternTerm, Node]]] = []
        steps = 0
        intersections = 0
        for component in components:
            partial.append(list(self.find_matches(QueryGraph(component))))
            steps += self.search_steps
            intersections += self.kernel_intersections
        self.search_steps = steps
        self.kernel_intersections = intersections
        combined = partial[0]
        for extra in partial[1:]:
            combined = [{**left, **right} for left in combined for right in extra]
        return [tuple(map(assignment.get, projection)) for assignment in combined]

    def find_matches(
        self,
        query: QueryGraph,
        order: Optional[Sequence[PatternTerm]] = None,
        pools: Optional[QueryPools] = None,
    ) -> Iterator[Dict[PatternTerm, Node]]:
        """Yield complete assignments (query vertex → data vertex) for ``query``.

        The vertex visit order is, in priority: the explicit ``order``
        argument, the attached planner's cost-based order, or the seed's
        static :func:`traversal_order`.  Any permutation of the query
        vertices yields the same matches — the order only changes how much
        of the search space is explored before failures are detected.

        ``pools`` are this query's already computed kernel pools.
        """
        vertices = query.vertices
        return (dict(zip(vertices, row)) for row in self._solutions(query, order, pools, vertices))

    def _solutions(self, query, order, pools, columns) -> Iterator[Row]:
        """:meth:`find_matches`, each match as a row of the terms of ``columns``.

        A column that is no vertex of ``query`` is ``None``; only the
        vertices a column names are decoded.
        """
        self.search_steps = 0
        self.kernel_intersections = 0
        self.last_kernel = self.runner_class.kernel
        encoded = encoded_view(self._graph)
        runner = self.runner_class(encoded)
        try:
            if pools is None or self.runner_class is not ArrayRunner:
                pools = runner.compute_pools(query)
            else:
                runner.intersections, pools = pools.intersections, pools.pools
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
            slot_of = {chosen[position]: vertex.index for position, vertex in enumerate(compiled)}
            slots = [slot_of.get(column) for column in columns]
            for _ in self._extend(assignment, compiled, runner):
                # The inner generator is suspended with every slot assigned,
                # so the complete match decodes straight off the assignment.
                yield tuple([None if s is None else term_of(assignment[s]) for s in slots])
        finally:
            self.kernel_intersections += runner.intersections

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
    ) -> Iterator[None]:
        """DFS over the compiled vertices; yields once per complete match.

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
            yield None
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
                yield None  # the caller reads the complete assignment in place
            else:
                depth += 1


def evaluate_centralized(
    graph: RDFGraph,
    query: SelectQuery,
    planner: Optional[QueryPlanner] = None,
) -> ResultSet:
    """One-shot convenience wrapper: evaluate ``query`` over ``graph`` centrally."""
    return LocalMatcher(graph, planner=planner).evaluate(query)
