"""gStoreD answers, shipment and counters are the same under every ``PYTHONHASHSEED``.

LPMs and LEC features reach the coordinator as N3-text keys, and a string's
hash depends on the interpreter's seed.  The joins may hash those keys but
must never let a set or dict of them decide an order: pair ids are numbered in
arrival order, groups are visited in sorted LECSign order, partners in operand
order.  Two child interpreters with different seeds run multi-join queries of
all three benchmark datasets through ``Session.query`` and print, per query,
the row *sequence*, the bytes and messages of every stage and every stage
counter; the parent compares the text.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

CHILD = """
import json
import repro

report = {}
for dataset, scale, names in (("lubm", 1, ("LQ1", "LQ7")), ("yago2", None, ("YQ3",)), ("btc", None, ("BQ4",))):
    with repro.open(dataset=dataset, scale=scale, sites=4, partitioner="hash", executor="serial") as session:
        for name in names:
            result = session.query(name)
            statistics, shipment = result.statistics, result.shipment
            report[name] = {
                "rows": [list(row) for row in result.rows()],
                "bytes": shipment.bytes_by_stage,
                "messages": shipment.messages_by_stage,
                "counters": {stage.name: list(stage.counters.items()) for stage in statistics.stages},
                "work": list(statistics.work.items()),
            }
print(json.dumps(report, sort_keys=True))
"""


def run_under(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    finished = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, check=True, timeout=300
    )
    return finished.stdout


def test_rows_shipment_and_counters_are_hash_seed_independent():
    first, second = run_under("1"), run_under("2")
    report = json.loads(first)
    assert set(report) == {"LQ1", "LQ7", "YQ3", "BQ4"}
    for name, observed in report.items():
        assert observed["rows"], name
        assert observed["counters"]["lec_pruning"], name
        assert observed["bytes"]["assembly"] > 0, name
    assert first == second
