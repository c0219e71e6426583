"""Mutating a graph the way ``Cluster.apply_ops`` mutates the master graph.

An encoded view follows its graph only through an explicit patch
(``patch_encoded_view``); a version that moved otherwise gets a fresh build.
Tests that mutate a graph under a warm matcher go through :func:`apply_and_patch`.
"""

from repro.store.encoding import encoded_view, patch_encoded_view


def apply_and_patch(graph, ops):
    """Apply ``("+"|"-", triple)`` ops to ``graph``, then patch its view with the effective ones."""
    encoded = encoded_view(graph)
    effective = [(op, triple) for op, triple in ops if (graph.add if op == "+" else graph.discard)(triple)]
    return patch_encoded_view(graph, encoded, effective)
