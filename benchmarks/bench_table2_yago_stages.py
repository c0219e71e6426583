"""Table II — per-stage evaluation of gStoreD on the YAGO2 workload (YQ1-YQ4)."""

from repro.bench import format_table, per_stage_table, print_experiment


def regenerate_table2(num_sites: int):
    return per_stage_table("YAGO2", scale=1, strategy="hash", num_sites=num_sites)


def test_table2_yago_per_stage(benchmark, num_sites):
    rows = benchmark.pedantic(regenerate_table2, args=(num_sites,), iterations=1, rounds=1)
    print_experiment("Table II — per-stage evaluation on YAGO2 (scaled)", format_table(rows))

    queries = {row["query"]: row for row in rows}
    # YQ3 is the unselective query dominating the workload (its huge number
    # of local partial matches and crossing matches is the paper's headline
    # observation for this table).  Asserted on the deterministic counters
    # only: wall-clock columns are printed, but the first query of a run
    # also pays warm-up, so "YQ3 takes longest" is not a stable check.
    for column in ("local_partial_matches", "crossing_matches", "lec_pruning_shipment_kb", "results"):
        assert queries["YQ3"][column] == max(row[column] for row in rows), column
    # YQ2 has an empty answer; YQ1 and YQ4 are selective with small answers.
    assert queries["YQ2"]["results"] == 0
    assert 0 < queries["YQ1"]["results"] < queries["YQ3"]["results"]
    assert 0 < queries["YQ4"]["results"] < queries["YQ3"]["results"]
