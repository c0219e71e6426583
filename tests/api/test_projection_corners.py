"""Projection corner cases, pinned for every engine on LUBM 1 over 3 sites.

A solution travels from the matcher through the sites' shipment, the
coordinator's DISTINCT and LIMIT and finally ``Result.rows()`` /
``to_dicts()``.  These cases are the shapes where a projection can go wrong
on that path: a variable projected twice, a projected variable the BGP never
binds, ``LIMIT 0``, a disconnected BGP (a cross product of its components),
``SELECT *``, a DISTINCT that drops a variable, a projected predicate
variable, and a predicate variable whose two edges must carry one label.

For every (engine, case) the golden file pins the answer count, the
result's ``variables``, the shipped bytes, ``Result.rows()`` and
``to_dicts()``.  ``gstored``, ``dream`` and ``centralized`` emit their rows
in an order that does not depend on ``PYTHONHASHSEED``, so their exact
sequences are pinned; ``cloud``, ``decomp`` and ``s2x`` order rows by set
iteration, so theirs are pinned sorted.  Column order (the key order of each
``to_dicts()`` row) is pinned for every engine.

Regenerate (only when a change is *meant* to move an answer) with
``PYTHONPATH=src python tests/api/test_projection_corners.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.api import engine_names

GOLDEN_PATH = Path(__file__).with_name("projection_corners_golden.json")

PREFIXES = (
    "PREFIX ub: <http://example.org/univ-bench#> "
    "PREFIX u: <http://example.org/university/> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
)
#: The instance namespace, shortened in the golden file to keep it readable.
UNIV = "http://example.org/university/"

#: A star: one department's staff and their names.
STAR = "?p ub:worksFor <http://example.org/university/University0/Department0> . ?p ub:name ?n ."
#: A path through a department (LQ6): crosses fragments, so it is assembled.
PATH = (
    "?s ub:memberOf ?d . ?d ub:subOrganizationOf u:University0 . "
    "?s ub:undergraduateDegreeFrom u:University0 ."
)

#: A graduate student whose advisor heads a department, and that department.
ADVISEE = "<http://example.org/university/University0/Department0/GraduateStudent0>"
DEPARTMENT = "<http://example.org/university/University0/Department0>"

CASES = {
    "duplicate-star": f"SELECT ?p ?p WHERE {{ {STAR} }}",
    "duplicate-path": f"SELECT ?d ?s ?d WHERE {{ {PATH} }}",
    "unbound-only": f"SELECT ?z WHERE {{ {STAR} }}",
    "unbound-beside-bound": f"SELECT ?s ?z WHERE {{ {PATH} }}",
    "limit-0": f"SELECT ?p WHERE {{ {STAR} }} LIMIT 0",
    "disconnected": (
        "SELECT ?h ?m WHERE { "
        "?h ub:headOf <http://example.org/university/University0/Department0> . "
        "?m ub:memberOf <http://example.org/university/University0/Department1> . "
        "?m rdf:type ub:UndergraduateStudent . }"
    ),
    "select-all": f"SELECT * WHERE {{ {PATH} }}",
    "distinct-drops-a-variable": f"SELECT DISTINCT ?d WHERE {{ {PATH} }}",
    "projected-predicate": (
        f"SELECT ?r ?d WHERE {{ {ADVISEE} ub:advisor ?a . ?a ?r ?d . ?d ub:subOrganizationOf u:University0 . }}"
    ),
    "repeated-predicate": f"SELECT ?x WHERE {{ {ADVISEE} ub:advisor ?a . ?a ?r {DEPARTMENT} . ?x ?r {DEPARTMENT} . }}",
}

#: Engines whose row sequence does not depend on the hash seed.
ORDERED_ENGINES = ("centralized", "dream", "gstored")


def _short(text: str) -> str:
    return text.replace(UNIV, "u:")


def pin(engine: str, result) -> dict:
    """What the golden file records for one answer, as plain JSON data."""
    rows = [[_short(cell) for cell in row] for row in result.rows()]
    dicts = [[[name, _short(text)] for name, text in row.items()] for row in result.to_dicts()]
    if engine not in ORDERED_ENGINES:
        rows, dicts = sorted(rows), sorted(dicts)
    return {
        "len": len(result),
        "variables": [variable.name for variable in result.results.variables],
        "bytes": result.shipment.total_bytes,
        "rows": rows,
        "dicts": dicts,
    }


def run_all() -> dict:
    """``"engine/case" -> pin`` over one LUBM 1 session of 3 sites."""
    pins = {}
    with repro.open(dataset="lubm", scale=1, sites=3) as session:
        for engine in engine_names():
            for case, text in CASES.items():
                pins[f"{engine}/{case}"] = pin(engine, session.query(PREFIXES + text, engine=engine))
    return pins


@pytest.fixture(scope="module")
def observed():
    return json.loads(json.dumps(run_all()))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_every_engine_and_case(golden):
    assert sorted(golden) == sorted(f"{e}/{c}" for e in engine_names() for c in CASES)


@pytest.mark.parametrize("engine", engine_names())
@pytest.mark.parametrize("case", list(CASES))
def test_answer_matches_the_recorded_one(observed, golden, engine, case):
    key = f"{engine}/{case}"
    for field, value in golden[key].items():
        assert observed[key][field] == value, f"{key}: {field} moved"


@pytest.mark.parametrize("engine", engine_names())
def test_disconnected_answer_matches_the_oracle(observed, engine):
    expected = observed["centralized/disconnected"]
    assert sorted(observed[f"{engine}/disconnected"]["rows"]) == sorted(expected["rows"])


@pytest.mark.parametrize("case", [case for case in CASES if case != "disconnected"])
def test_every_engine_agrees_with_the_oracle(observed, case):
    expected = sorted(observed[f"centralized/{case}"]["rows"])
    for engine in engine_names():
        assert sorted(observed[f"{engine}/{case}"]["rows"]) == expected, engine


def _regenerate() -> None:  # pragma: no cover - maintenance entry point
    recorded = run_all()
    # One line per (case, field): a moved answer diffs as one line.
    cases = [
        f'"{key}": {{\n'
        + ",\n".join(f' "{field}": {json.dumps(value)}' for field, value in fields.items())
        + "\n}"
        for key, fields in sorted(recorded.items())
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(cases) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(recorded)} cases)")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
