"""Mutating a graph and patching its encoding with the effective ops.

An encoding follows its graph only through an explicit patch
(:meth:`~repro.store.encoding.EncodedGraph.apply_ops`).  Tests that mutate a
graph under a warm matcher go through :func:`apply_and_patch`.
"""


def apply_and_patch(graph, encoded, ops):
    """Apply ``("+"|"-", triple)`` ops to ``graph``, then patch ``encoded`` with the effective ones."""
    effective = [(op, triple) for op, triple in ops if (graph.add if op == "+" else graph.discard)(triple)]
    encoded.apply_ops([(op, encoded.dictionary.ensure_triple(triple)) for op, triple in effective])
    return encoded
