"""Property-based determinism contract for :mod:`repro.persist`.

For random graphs, random partitionings and random mutation sequences, a
cluster saved to disk, mutated through the journal and reopened cold must be
observationally bit-identical to the never-persisted cluster: same answers,
same ``search_steps``, same shipment fingerprints.
"""

import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mirror import Mirror, assert_mirrors
from repro.bench import stage_shipment_snapshot as snapshot
from repro.core import GStoreDEngine
from repro.datasets import random_assignment, random_connected_query, random_graph
from repro.distributed import build_cluster
from repro.partition import build_partitioned_graph
from repro.persist import ClusterStore
from repro.rdf import IRI, Triple

EX = "http://example.org/prop/"


seeds = st.integers(min_value=0, max_value=5_000)
fragment_counts = st.integers(min_value=1, max_value=4)
batch_counts = st.integers(min_value=1, max_value=3)


def build_environment(seed, num_fragments):
    graph = random_graph(seed, num_vertices=16, num_edges=32, num_predicates=3)
    query = random_connected_query(graph, seed + 101, num_edges=2, constant_probability=0.25)
    assignment = random_assignment(graph, seed + 7, num_fragments)
    partitioned = build_partitioned_graph(graph, assignment, num_fragments=num_fragments)
    return partitioned, query


def random_batches(rng, mirror, count):
    """Random add/remove batches drawn against the mirror's initial state."""
    batches = []
    for tag in range(count):
        add = [
            Triple(
                IRI(EX + f"s-{tag}-{i}"),
                IRI(EX + f"p-{rng.randrange(3)}"),
                IRI(EX + f"o-{rng.randrange(6)}"),
            )
            for i in range(rng.randrange(1, 4))
        ]
        remove = []
        if rng.random() < 0.5:
            pool = sorted(mirror.triples, key=lambda t: t.n3())
            remove = [pool[rng.randrange(len(pool))]]
        batches.append({"add": add, "remove": remove})
    return batches


def fingerprint(cluster, query):
    result = GStoreDEngine(cluster).execute(query)
    rows = sorted(map(sorted, (row.items() for row in result.results.to_table())))
    return rows, dict(result.statistics.work), snapshot(result)


class TestSaveReopenParity:
    @given(seeds, fragment_counts)
    @settings(max_examples=10, deadline=None)
    def test_reopened_equals_live(self, seed, num_fragments):
        partitioned, query = build_environment(seed, num_fragments)
        live = build_cluster(partitioned)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "random.store"
            ClusterStore.create(path, partitioned).close()
            with ClusterStore.open(path) as store:
                reopened = store.load_cluster()
                assert fingerprint(reopened, query) == fingerprint(live, query)

    @given(seeds, fragment_counts, batch_counts)
    @settings(max_examples=10, deadline=None)
    def test_mutated_store_replays_identically(self, seed, num_fragments, batches):
        partitioned, query = build_environment(seed, num_fragments)
        live = build_cluster(partitioned)
        rng = random.Random(seed + 13)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "random.store"
            ClusterStore.create(path, partitioned).close()
            store = ClusterStore.open(path)
            mirrored = store.load_cluster()
            mirror = Mirror(partitioned)
            for batch in random_batches(rng, mirror, batches):
                live.apply(**batch)
                mirrored.apply(**batch)
                mirror.apply(**batch)
                assert fingerprint(mirrored, query) == fingerprint(live, query)
            store.close()
            with ClusterStore.open(path) as cold_store:
                cold = cold_store.load_cluster()
                assert fingerprint(cold, query) == fingerprint(live, query)
                assert_mirrors(cold, mirror)
