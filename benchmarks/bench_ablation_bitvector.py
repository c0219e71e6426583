"""Ablation: candidate bit-vector width (a design knob of Section VI).

Algorithm 4 compresses each variable's internal candidates into a
*fixed-length* bit vector; the paper argues the fixed length keeps the
communication cost bounded.  The width trades communication against
false-positive candidates: a narrow vector ships fewer bytes but lets more
useless extended candidates through (hash collisions), a wide vector prunes
more but costs more to exchange.

This ablation sweeps the width on the LUBM workload's most
partial-match-heavy query and reports, per width: the bytes shipped in the
candidate-exchange stage, the number of local partial matches enumerated and
the number of extended-candidate bindings the filter rejected.

A vector ships as the smaller of its bitmap and its set positions, so the
width bounds the stage's bytes (``ceil(width / 8) + 4`` per vector) rather
than fixing them.  Widening past the 4,096-bit default buys almost nothing:
over one pass of the ``benchmarks/e2e`` ``multijoin`` queries (LUBM 3, YAGO2,
BTC; hash, 6 sites), 65,536 bits cut the local partial matches from 2,362 to
2,330 (-1.4 %), while the stage-1 bytes go from 23,738 to 28,340 (as bitmaps
they would be 4,033,008).
"""

from repro.bench import format_table, prepare_workload, print_experiment, run_query
from repro.core import EngineConfig

WIDTHS = (256, 1024, 4096, 16384)
QUERY = "LQ1"


def sweep_bitvector_widths(num_sites: int):
    workload = prepare_workload("LUBM", scale=1, strategy="hash", num_sites=num_sites)
    rows = []
    for width in WIDTHS:
        config = EngineConfig.full().with_options(bit_vector_bits=width)
        result = run_query(workload, QUERY, config)
        stats = result.statistics
        rows.append(
            {
                "bit_vector_bits": width,
                "candidate_shipment_kb": round(stats.find_stage("candidate_exchange").shipped_kb, 3),
                "filtered_extended_candidates": stats.counter(
                    "partial_evaluation", "filtered_extended_candidates"
                ),
                "local_partial_matches": stats.counter("partial_evaluation", "local_partial_matches"),
                "total_time_ms": round(stats.total_time_ms, 2),
                "results": stats.num_results,
            }
        )
    return rows


def test_ablation_candidate_bitvector_width(benchmark, num_sites):
    rows = benchmark.pedantic(sweep_bitvector_widths, args=(num_sites,), iterations=1, rounds=1)
    print_experiment(
        f"Ablation — candidate bit-vector width (Algorithm 4) on LUBM {QUERY}",
        format_table(rows),
    )
    by_width = {row["bit_vector_bits"]: row for row in rows}
    # The answer must not depend on the width (the filter is sound).
    assert len({row["results"] for row in rows}) == 1
    # Wider vectors ship more bytes during the candidate exchange.
    assert (
        by_width[WIDTHS[0]]["candidate_shipment_kb"]
        < by_width[WIDTHS[-1]]["candidate_shipment_kb"]
    )
    # Wider vectors never *increase* the number of enumerated local partial
    # matches (fewer false-positive extended candidates survive the filter).
    assert (
        by_width[WIDTHS[-1]]["local_partial_matches"]
        <= by_width[WIDTHS[0]]["local_partial_matches"]
    )
