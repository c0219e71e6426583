"""One copy of the data: a cluster keeps its sites' encodings and nothing else.

Once built, a cluster (and a session over it) holds each edge only in the
encodings of the sites that store it.  The generator's ``RDFGraph`` and the
``PartitionedGraph`` it was built from die with their last outside reference,
and no ``RDFGraph``, ``PartitionedGraph`` or partition-time ``Fragment`` is
reachable from the cluster or the session; ``Session.graph`` and
``Session.partitioned`` are decoded copies.
"""

import dataclasses
import gc
import types
import weakref

import pytest

import repro
from repro.datasets.registry import DATASETS
from repro.datasets import lubm
from repro.distributed import build_cluster
from repro.partition import Fragment, HashPartitioner, PartitionedGraph
from repro.rdf import IRI, RDFGraph, Triple

#: Kinds of object whose referents are code and module state, not cluster data.
_OPAQUE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.CodeType)


def reachable_copies(root):
    """Every ``RDFGraph``, ``PartitionedGraph`` or ``Fragment`` reachable from ``root``'s data."""
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        for child in gc.get_referents(stack.pop()):
            if id(child) in seen or isinstance(child, _OPAQUE):
                continue
            seen.add(id(child))
            if isinstance(child, (RDFGraph, PartitionedGraph, Fragment)):
                found.append(child)
            stack.append(child)
    return found


@pytest.fixture()
def generated(monkeypatch):
    """Weak references to every LUBM graph the registry generates during the test."""
    graphs = []
    spec = DATASETS["LUBM"]

    def generate(scale):
        graph = spec.generate(scale)
        graphs.append(weakref.ref(graph))
        return graph

    monkeypatch.setitem(DATASETS, "LUBM", dataclasses.replace(spec, generate=generate))
    return graphs


def test_build_cluster_keeps_no_reference_to_the_partitioning():
    graph = lubm.generate(scale=1)
    partitioned = HashPartitioner(3).partition(graph)
    graph_ref, partitioned_ref = weakref.ref(graph), weakref.ref(partitioned)
    cluster = build_cluster(partitioned)
    del graph, partitioned
    gc.collect()
    assert graph_ref() is None and partitioned_ref() is None
    assert reachable_copies(cluster) == []
    assert len(cluster.site(0).local_evaluate(lubm.queries()["LQ2"])) >= 0


@pytest.mark.parametrize("store", [None, "new", "existing"])
def test_a_session_keeps_no_copy(generated, tmp_path, store):
    path = tmp_path / "lubm.store"
    options = dict(dataset="lubm", scale=1, sites=3)
    if store == "existing":
        repro.open(path=str(path), **options).close()
        generated.clear()
    if store is not None:
        options["path"] = str(path)
    with repro.open(**options) as session:
        gc.collect()
        assert all(graph() is None for graph in generated)
        assert reachable_copies(session) == []
        assert len(session.query("LQ1")) > 0
    if store == "existing":
        assert generated == [], "reopening a store file generated the dataset"


def test_session_graph_is_a_copy():
    with repro.open(dataset="lubm", scale=1, sites=3) as session:
        triples = set(session.graph)
        answer = session.query("LQ2").sorted_rows()
        snapshot = session.graph
        assert snapshot is not session.graph and set(snapshot) == triples
        for triple in list(snapshot):
            snapshot.discard(triple)
        assert session.query("LQ2").sorted_rows() == answer
        assert set(session.graph) == triples
        assert session.partitioned is not session.partitioned

        victim = min(triples, key=Triple.n3)
        added = Triple(victim.subject, victim.predicate, IRI("http://example.org/one-copy/new"))
        session.update(add=[added], remove=[victim])
        assert set(session.graph) == (triples - {victim}) | {added}
        assert set(session.partitioned.graph) == (triples - {victim}) | {added}
