"""Partial evaluation emits the same LPM *sequence* under every ``PYTHONHASHSEED``.

Crossing seeds are visited in sorted-id order and extensions in ascending id
order, and ids come from a sorted dictionary — nothing in the stage iterates a
set of terms — so the order LPMs leave a site in must not depend on the
interpreter's string-hash seed.  Two child interpreters with different seeds
enumerate LQ7 on LUBM 1 (with the stage-1 filter and the planner-free edge
order) and print every site's sequence; the parent compares the text.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

CHILD = """
import json
from repro.core.candidate_exchange import build_site_vectors, union_site_vectors
from repro.core.partial_eval import PartialEvaluator
from repro.datasets import get_dataset
from repro.distributed import build_cluster
from repro.partition import HashPartitioner
from repro.sparql import QueryGraph

spec = get_dataset("LUBM")
cluster = build_cluster(HashPartitioner(4).partition(spec.generate(scale=1)))
query_graph = QueryGraph(spec.queries()["LQ7"].bgp)
vectors = [build_site_vectors(site.internal_candidates(query_graph), 4096) for site in cluster]
candidate_filter = union_site_vectors(vectors, 4096)
sequences = {}
for site in cluster:
    outcome = PartialEvaluator(site.fragment, graph=site.graph).evaluate(query_graph, candidate_filter)
    sequences[site.site_id] = [
        [
            sorted((vertex.n3(), value.n3()) for vertex, value in lpm.assignment),
            sorted((index, triple.n3()) for index, triple in lpm.edge_assignment),
            sorted(index for index, _ in lpm.crossing_assignment),
            lpm.internal_mask,
        ]
        for lpm in outcome.local_partial_matches
    ] + [outcome.seeds_explored, outcome.branches_pruned_by_filter]
print(json.dumps(sequences, sort_keys=True))
"""


def enumerate_under(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    finished = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return finished.stdout


def test_lpm_sequence_per_site_is_hash_seed_independent():
    first, second = enumerate_under("1"), enumerate_under("2")
    sequences = json.loads(first)
    assert sum(len(sequence) - 2 for sequence in sequences.values()) > 100
    assert first == second
