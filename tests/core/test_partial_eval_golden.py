"""Stage 2's output, pinned: every site's LPM sequence and counters, bit for bit.

``partial_eval_golden.json`` holds, per (dataset, query, stage-1 filter
on/off, planner order on/off, site), the sha256 of the site's LPM sequence
— each LPM's ``items``, ``internal_mask`` and ``crossing``, in emission
order — plus ``seeds_explored`` and ``branches_pruned_by_filter``.  The
cases are the 12 non-star queries of the end-to-end ``multijoin`` workload
on LUBM 1, YAGO2 and BTC (6 hash sites, the coordinator planner's edge
order), and hand-built queries that reach the evaluator's other paths: a
variable predicate (also between two bound slots), constants at a free
endpoint (one stored, one stored nowhere), a self-loop, and cycles and
parallel edges that close an edge ranked below the seed between two bound
slots (under three edge orders).

The file was recorded from the per-data-edge search that the row-at-a-time
one replaced: the two enumerate in the same order.  It was re-pinned once
since, when an all-zero union vector began to end the search: the
``filter=on`` entries of the queries stage 1 proves empty (LQ3, YQ2, BQ6,
BQ7 and the hand-built ``absent-constant`` and ``constant-object``) hold no
LPM and no counted seed or refusal.

The ids are cluster ids, assigned in term order, so the file holds under
every ``PYTHONHASHSEED``.  Regenerate (only when a change is *meant* to move
the output) with ``PYTHONPATH=src python tests/core/test_partial_eval_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core.candidate_exchange import build_site_vectors, union_site_vectors
from repro.core.partial_eval import PartialEvaluator
from repro.datasets import get_dataset
from repro.distributed import build_cluster
from repro.partition import HashPartitioner, build_partitioned_graph
from repro.rdf import Namespace, RDFGraph, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph

GOLDEN_PATH = Path(__file__).with_name("partial_eval_golden.json")

#: dataset -> (scale, the non-star queries the ``multijoin`` workload runs).
BENCHMARK_QUERIES = {
    "LUBM": (1, ("LQ1", "LQ3", "LQ6", "LQ7")),
    "YAGO2": (1, ("YQ1", "YQ2", "YQ3", "YQ4")),
    "BTC": (1, ("BQ4", "BQ5", "BQ6", "BQ7")),
}

EX = Namespace("http://example.org/")
A, B, C, D, E, F = (EX.term(name) for name in "abcdef")
P, Q = EX.term("p"), EX.term("q")
X, Y, Z = (Variable(name) for name in "xyz")

#: name -> hand-built query over :func:`hand_built_cluster`.
HAND_BUILT = {
    "variable-predicate": [TriplePattern(X, Variable("label"), Y), TriplePattern(Y, P, Z)],
    "variable-parallel": [
        TriplePattern(X, P, Y), TriplePattern(X, Variable("label"), Y), TriplePattern(Y, Q, Z)
    ],
    "constant-object": [TriplePattern(X, P, F), TriplePattern(Y, Q, X)],
    "constant-subject": [TriplePattern(D, P, X), TriplePattern(X, Q, Y)],
    "absent-constant": [TriplePattern(X, P, EX.term("nowhere")), TriplePattern(X, Q, Y)],
    "self-loop": [TriplePattern(X, P, X), TriplePattern(X, P, Y), TriplePattern(Y, Q, Z)],
    "parallel": [TriplePattern(X, P, Y), TriplePattern(X, Q, Y), TriplePattern(Y, P, Z)],
    "triangle": [TriplePattern(X, P, Y), TriplePattern(Y, P, Z), TriplePattern(Z, Q, X)],
}


def hand_built_cluster():
    """a,b | c,d,e,f with parallel, looping and two-label edges across the cut."""
    graph = RDFGraph(
        [
            Triple(A, P, B), Triple(A, P, C), Triple(A, Q, C), Triple(B, Q, C), Triple(C, P, D),
            Triple(D, Q, A), Triple(C, P, C), Triple(B, P, B), Triple(D, P, E), Triple(E, Q, B),
            Triple(E, P, F),
        ]
    )  # fmt: skip
    assignment = {A: 0, B: 0, C: 1, D: 1, E: 1, F: 1}
    return build_cluster(build_partitioned_graph(graph, assignment, num_fragments=2))


def settings():
    """Yield ``(case prefix, cluster, query graph, [(order label, edge order)])``."""
    for dataset, (scale, names) in BENCHMARK_QUERIES.items():
        spec = get_dataset(dataset)
        cluster = build_cluster(HashPartitioner(6).partition(spec.generate(scale=scale)))
        planner = cluster.coordinator_planner()
        for name in names:
            query_graph = QueryGraph(spec.queries()[name].bgp)
            yield f"{dataset}/{name}", cluster, query_graph, [
                ("bgp", None),
                ("planner", planner.plan_for(query_graph).edge_order),
            ]
    cluster = hand_built_cluster()
    for name, patterns in HAND_BUILT.items():
        query_graph = QueryGraph(BasicGraphPattern(patterns))
        indexes = list(range(query_graph.num_edges))
        yield f"hand/{name}", cluster, query_graph, [
            ("bgp", None),
            ("reversed", indexes[::-1]),
            ("rotated", indexes[1:] + indexes[:1]),
        ]


def fingerprints():
    """case id -> ``{"lpms", "sha256", "seeds_explored", "branches_pruned_by_filter"}``."""
    out = {}
    for prefix, cluster, query_graph, orders in settings():
        vectors = [build_site_vectors(site.internal_candidates(query_graph), 4096) for site in cluster]
        for filter_label, candidate_filter in (("off", None), ("on", union_site_vectors(vectors, 4096))):
            for order_label, edge_order in orders:
                for site in cluster:
                    evaluator = PartialEvaluator(site.fragment, graph=site.graph, edge_order=edge_order)
                    outcome = evaluator.evaluate(query_graph, candidate_filter=candidate_filter)
                    lpms = outcome.local_partial_matches
                    sequence = repr([(lpm.items, lpm.internal_mask, lpm.crossing) for lpm in lpms])
                    out[f"{prefix}/filter={filter_label}/order={order_label}/site={site.site_id}"] = {
                        "lpms": len(lpms),
                        "sha256": hashlib.sha256(sequence.encode()).hexdigest(),
                        "seeds_explored": outcome.seeds_explored,
                        "branches_pruned_by_filter": outcome.branches_pruned_by_filter,
                    }
    return out


def test_lpm_sequences_and_counters_match_the_golden_file():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    actual = fingerprints()
    assert sorted(actual) == sorted(golden)
    assert sum(entry["lpms"] for entry in golden.values()) > 1000
    assert sum(entry["branches_pruned_by_filter"] for entry in golden.values()) > 0
    assert {case: entry for case, entry in actual.items() if entry != golden[case]} == {}


if __name__ == "__main__":  # pragma: no cover
    GOLDEN_PATH.write_text(json.dumps(fingerprints(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
