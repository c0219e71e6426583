"""Seeded random test data depends on its seed alone, not on the hash seed.

The oracle, persist and property suites build their partitionings with
:func:`~repro.datasets.random_assignment` and their queries with
:func:`~repro.datasets.random_connected_query`.  Both draw over sets
(vertices, triples, a vertex's edges), so each must walk them in N3 order:
two interpreters with different ``PYTHONHASHSEED`` give the same data.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import json
from repro.datasets import random_assignment, random_connected_query, random_graph

graph = random_graph(6835, 10, 22, 2)
assignment = [[vertex.n3(), fragment] for vertex, fragment in random_assignment(graph, 7, 3).items()]
query = " ".join(pattern.n3() for pattern in random_connected_query(graph, 7, num_edges=4).bgp)
print(json.dumps({"assignment": assignment, "query": query}))
"""


def test_random_data_is_the_same_under_two_hash_seeds():
    seen = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        completed = subprocess.run(
            [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
        )
        assert completed.returncode == 0, completed.stderr
        seen.append(json.loads(completed.stdout.splitlines()[-1]))
    assert seen[0] == seen[1]
    assert len(seen[0]["assignment"]) == 10
