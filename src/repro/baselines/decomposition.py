"""Query decomposition and solution-join helpers shared by the baselines.

DREAM and the cloud-based systems all decompose a BGP query into smaller
units (star subqueries or individual triple patterns), evaluate the units
somewhere, and join the unit results on their shared variables.  This module
provides both steps so each baseline only encodes *where* the units run and
*what* gets shipped.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..rdf.terms import PatternTerm, Variable
from ..rdf.triples import TriplePattern
from ..sparql.algebra import BasicGraphPattern, SelectQuery
from ..sparql.bindings import Binding


def decompose_into_stars(bgp: BasicGraphPattern) -> List[BasicGraphPattern]:
    """Split a BGP into star subqueries grouped by subject/object hub.

    This is the decomposition DREAM (and Stylus) use: every triple pattern is
    attached to a hub term — preferably its subject — and all patterns
    sharing a hub form one star subquery.  Patterns whose subject is a
    constant but whose object is a shared variable hub are attached to the
    object's star instead, which keeps the number of stars small.
    """
    hubs: Dict[PatternTerm, List[TriplePattern]] = {}
    subject_counts: Dict[PatternTerm, int] = {}
    for pattern in bgp:
        subject_counts[pattern.subject] = subject_counts.get(pattern.subject, 0) + 1
    for pattern in bgp:
        hub = pattern.subject
        if not isinstance(hub, Variable) and isinstance(pattern.object, Variable):
            # Prefer a variable hub when the subject is a constant.
            hub = pattern.object
        hubs.setdefault(hub, []).append(pattern)
    return [BasicGraphPattern(patterns) for patterns in hubs.values()]


def subquery(patterns: BasicGraphPattern) -> SelectQuery:
    """Wrap a BGP into a ``SELECT *`` query for a local evaluator."""
    return SelectQuery(bgp=patterns, projection=())


def hash_join(left: Sequence[Binding], right: Sequence[Binding]) -> List[Binding]:
    """Join two sets of solution mappings on their shared variables.

    A classic hash join: the smaller side is hashed on the shared variables,
    the larger side probes.  With no shared variables this degenerates into a
    cross product, exactly as SPARQL semantics require.
    """
    if not left or not right:
        return []
    build, probe = (left, right) if len(left) <= len(right) else (right, left)
    build_vars: Set[Variable] = set()
    for binding in build:
        build_vars |= binding.variables
    probe_vars: Set[Variable] = set()
    for binding in probe:
        probe_vars |= binding.variables
    shared = tuple(sorted(build_vars & probe_vars, key=lambda v: v.name))

    table: Dict[Tuple, List[Binding]] = {}
    for binding in build:
        key = tuple(binding.get(variable) for variable in shared)
        table.setdefault(key, []).append(binding)

    joined: List[Binding] = []
    for binding in probe:
        key = tuple(binding.get(variable) for variable in shared)
        for partner in table.get(key, ()):  # compatible on shared variables
            if binding.compatible_with(partner):
                joined.append(binding.merge(partner))
    return joined


def join_all(solution_sets: Iterable[Sequence[Binding]]) -> List[Binding]:
    """Left-deep join of several solution sets, smallest first."""
    ordered = sorted((list(solutions) for solutions in solution_sets), key=len)
    if not ordered:
        return []
    current = ordered[0]
    for solutions in ordered[1:]:
        current = hash_join(current, solutions)
        if not current:
            return []
    return current

