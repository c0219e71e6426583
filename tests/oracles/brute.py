"""A nested-loop BGP evaluator: the reference every engine is held to.

It reads only the term and query classes of the package, never a
dictionary, matcher or planner.  A solution maps every variable of the BGP,
predicate variables included, so that each pattern is a triple of the graph
(SPARQL 1.1, section 18); a row per solution, in projection order.
"""

from repro.rdf.terms import Variable


def solutions(triples, patterns):
    """Every solution of ``patterns`` over the ``triples``, as dicts (a bag)."""
    found = [{}]
    for pattern in patterns:
        found = [
            extended
            for mapping in found
            for triple in triples
            if (extended := bind(pattern, triple, mapping)) is not None
        ]
    return found


def bind(pattern, triple, mapping):
    """``mapping`` extended so that ``pattern`` is ``triple``, or ``None``."""
    extended = dict(mapping)
    for term, value in zip((pattern.subject, pattern.predicate, pattern.object), triple.as_tuple()):
        if isinstance(term, Variable):
            if extended.setdefault(term, value) != value:
                return None
        elif term != value:
            return None
    return extended


def evaluate(triples, query):
    """``query``'s rows over ``triples``: projected, then DISTINCT and LIMIT."""
    rows = [tuple(map(solution.get, query.effective_projection)) for solution in solutions(triples, query.bgp)]
    if query.distinct:
        rows = list(dict.fromkeys(rows))
    return rows[: query.limit]
