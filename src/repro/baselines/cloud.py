"""Cloud-based baselines: S2RDF-, CliqueSquare- and S2X-like engines.

The paper's comparison set includes three systems that run on general
cloud data-processing stacks rather than on a native RDF store per site:

* **S2RDF** (Spark SQL): the dataset is stored in vertical-partitioning
  tables (one two-column table per predicate); a SPARQL query becomes a
  sequence of relational scans and joins.  Every triple-pattern scan reads a
  whole predicate table spread over the cluster and shuffles the survivors.
* **CliqueSquare** (Hadoop): queries are decomposed into *cliques* (star
  subqueries) that are evaluated with flat n-ary equality joins, aiming at
  the smallest number of MapReduce-style stages; every stage writes and
  shuffles its intermediate results.
* **S2X** (GraphX): a vertex-centric graph-parallel evaluation: triple
  patterns are matched by every vertex in parallel, and candidate bindings
  are iteratively validated/pruned through message exchanges along edges
  (supersteps) before the surviving partial bindings are collected and
  merged.

All three share the trait the paper highlights: a per-query overhead of
scanning and shuffling that does not pay off unless the query is unselective
and the dataset very large.  The simulations below reproduce that behaviour:
they scan whole predicate partitions, ship intermediate relations between
sites and the coordinator, and use generic hash joins rather than any
RDF-specific pruning.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Set, Tuple

from ..distributed.cluster import Cluster
from ..distributed.network import (
    COORDINATOR,
    GRAPH_BSP_PLATFORM,
    MAPREDUCE_PLATFORM,
    SPARK_SQL_PLATFORM,
)
from ..distributed.run import Run
from ..rdf.terms import IRI, Literal, Node, Variable
from ..rdf.triples import Triple, TriplePattern
from ..sparql.algebra import SelectQuery
from ..sparql.bindings import Binding
from .base import DistributedEngine
from .decomposition import decompose_into_stars, hash_join, join_all

STAGE_SCAN = "pattern_scan"
STAGE_SHUFFLE = "shuffle_join"
STAGE_SUPERSTEPS = "supersteps"


def _pattern_bindings(triples, pattern: TriplePattern) -> List[Binding]:
    """Solutions of a single triple pattern over an iterable of triples."""
    solutions: List[Binding] = []
    for triple in triples:
        binding = _match_triple(pattern, triple)
        if binding is not None:
            solutions.append(binding)
    return solutions


def _match_triple(pattern: TriplePattern, triple: Triple) -> Binding | None:
    mapping: Dict[Variable, Node] = {}
    for pattern_term, data_term in zip(pattern, triple):
        if isinstance(pattern_term, Variable):
            if pattern_term in mapping and mapping[pattern_term] != data_term:
                return None
            mapping[pattern_term] = data_term
        elif pattern_term != data_term:
            return None
    return Binding(mapping)


def _owned_rows(
    cluster: Cluster, rows: List[Binding], pattern: TriplePattern, site_id: int
) -> List[Binding]:
    """Drop rows whose matched triple is a replica owned by another site."""
    partitioned = cluster.partitioned_graph
    subject_is_variable = isinstance(pattern.subject, Variable)
    kept: List[Binding] = []
    for binding in rows:
        subject = binding.get(pattern.subject) if subject_is_variable else pattern.subject
        if subject is None or partitioned.fragment_of(subject) == site_id:
            kept.append(binding)
    return kept


class RelationalScanEngine(DistributedEngine):
    """Shared machinery for the S2RDF- and CliqueSquare-like baselines."""

    #: How triple patterns are grouped into join stages.
    flat_star_joins = False

    def _evaluate(self, run: Run) -> List[Binding]:
        query = run.query
        # Phase 1: every site scans its fragment for every triple pattern
        # (the vertical-partitioning table scan) and ships the matching rows.
        pattern_solutions: List[List[Binding]] = [[] for _ in query.bgp]
        with run.stage(STAGE_SCAN) as stage:
            for site in self.cluster:
                fragment_triples = site.fragment.internal_edges | site.fragment.crossing_edges
                by_predicate: Dict[IRI, List[Triple]] = defaultdict(list)
                for triple in fragment_triples:
                    by_predicate[triple.predicate].append(triple)
                for index, pattern in enumerate(query.bgp):
                    with stage.measure(site.site_id):
                        if isinstance(pattern.predicate, Variable):
                            local_rows = _pattern_bindings(fragment_triples, pattern)
                        else:
                            local_rows = _pattern_bindings(
                                by_predicate.get(pattern.predicate, ()), pattern
                            )
                        # Crossing edges are replicated on two sites; keep only the
                        # copy owned by the subject's site to avoid duplicate rows.
                        local_rows = _owned_rows(self.cluster, local_rows, pattern, site.site_id)
                    pattern_solutions[index].extend(local_rows)
                    stage.ship(site.site_id, COORDINATOR, "scan_rows", local_rows)
            self._charge_platform(stage, 1)
            stage.count(
                scanned_rows=sum(len(rows) for rows in pattern_solutions),
                patterns=len(query.bgp.patterns),
            )

        # Phase 2: join the scanned relations (at the coordinator, standing in
        # for the cluster-wide shuffle).
        with run.stage(STAGE_SHUFFLE) as stage:
            with stage.measure():
                if self.flat_star_joins:
                    joined = self._flat_star_join(query, pattern_solutions)
                else:
                    joined = join_all(pattern_solutions)
            # Every binary (or star) join is one shuffle stage of the underlying
            # cloud platform.
            self._charge_platform(stage, max(len(query.bgp.patterns) - 1, 1))
            stage.count(joined_results=len(joined))
        return joined

    def _flat_star_join(
        self, query: SelectQuery, pattern_solutions: Sequence[List[Binding]]
    ) -> List[Binding]:
        """CliqueSquare-style plan: n-ary star joins first, then join the stars."""
        stars = decompose_into_stars(query.bgp)
        pattern_index = {pattern: index for index, pattern in enumerate(query.bgp)}
        star_relations: List[List[Binding]] = []
        for star in stars:
            member_solutions = [pattern_solutions[pattern_index[pattern]] for pattern in star]
            star_relations.append(join_all(member_solutions))
        return join_all(star_relations)


class S2RDFEngine(RelationalScanEngine):
    """S2RDF-like baseline: vertical partitioning scans + left-deep hash joins."""

    name = "S2RDF"
    flat_star_joins = False
    platform = SPARK_SQL_PLATFORM


class CliqueSquareEngine(RelationalScanEngine):
    """CliqueSquare-like baseline: flat n-ary star joins over the scanned tables."""

    name = "CliqueSquare"
    flat_star_joins = True
    platform = MAPREDUCE_PLATFORM


class S2XEngine(DistributedEngine):
    """S2X-like baseline: graph-parallel (vertex-centric) BGP matching.

    The simulation follows S2X's three logical phases:

    1. *Distribution*: every triple pattern is matched by every site against
       its local edges (a vertex-centric "does my adjacency satisfy this
       pattern" check), producing per-pattern candidate bindings.
    2. *Validation supersteps*: iteratively, candidate bindings for a pattern
       are kept only if every join variable they bind is also bound by some
       candidate of every other pattern sharing that variable.  Each round
       corresponds to one message-passing superstep and ships the candidate
       summaries between sites.
    3. *Collection*: the surviving candidates are shipped to the coordinator
       and merged into final results with hash joins.
    """

    name = "S2X"
    platform = GRAPH_BSP_PLATFORM
    max_supersteps = 6

    def _evaluate(self, run: Run) -> List[Binding]:
        patterns = list(run.query.bgp)
        candidates: List[List[Binding]] = [[] for _ in patterns]
        with run.stage(STAGE_SCAN) as stage:
            for site in self.cluster:
                triples = site.fragment.internal_edges | site.fragment.crossing_edges
                for index, pattern in enumerate(patterns):
                    with stage.measure(site.site_id):
                        rows = _pattern_bindings(triples, pattern)
                        rows = _owned_rows(self.cluster, rows, pattern, site.site_id)
                    candidates[index].extend(rows)
            self._charge_platform(stage, 1)
            stage.count(initial_candidates=sum(len(rows) for rows in candidates))

        with run.stage(STAGE_SUPERSTEPS) as stage:
            rounds = 0
            changed = True
            while changed and rounds < self.max_supersteps:
                rounds += 1
                changed = False
                with stage.measure():
                    bound_values = self._bound_values_per_variable(patterns, candidates)
                    for index, pattern in enumerate(patterns):
                        survivors = [
                            binding
                            for binding in candidates[index]
                            if self._validated(binding, index, patterns, bound_values)
                        ]
                        if len(survivors) != len(candidates[index]):
                            changed = True
                            candidates[index] = survivors
                # Each superstep exchanges the candidate summaries along edges.
                stage.broadcast(
                    COORDINATOR,
                    self.cluster.site_ids,
                    "superstep_candidates",
                    [len(rows) for rows in candidates],
                )
            self._charge_platform(stage, rounds)
            stage.count(
                supersteps=rounds, surviving_candidates=sum(len(rows) for rows in candidates)
            )

        with run.stage(STAGE_SHUFFLE) as stage:
            for index, rows in enumerate(candidates):
                stage.ship(
                    index % max(1, self.cluster.num_sites), COORDINATOR, "candidates", rows
                )
            with stage.measure():
                joined = join_all(candidates)
            self._charge_platform(stage, 1)
            stage.count(joined_results=len(joined))
        return joined

    @staticmethod
    def _bound_values_per_variable(
        patterns: Sequence[TriplePattern], candidates: Sequence[List[Binding]]
    ) -> Dict[Variable, List[Set[Node]]]:
        """For every variable, the per-pattern sets of values candidates bind it to."""
        values: Dict[Variable, List[Set[Node]]] = defaultdict(lambda: [set() for _ in patterns])
        for index, rows in enumerate(candidates):
            for binding in rows:
                for variable in binding.variables:
                    values[variable][index].add(binding[variable])
        return values

    @staticmethod
    def _validated(
        binding: Binding,
        index: int,
        patterns: Sequence[TriplePattern],
        bound_values: Dict[Variable, List[Set[Node]]],
    ) -> bool:
        """A candidate survives when each of its variables is supported by every
        other pattern that also uses that variable."""
        for variable in binding.variables:
            per_pattern = bound_values[variable]
            for other_index, pattern in enumerate(patterns):
                if other_index == index or variable not in pattern.variables:
                    continue
                if binding[variable] not in per_pattern[other_index]:
                    return False
        return True
