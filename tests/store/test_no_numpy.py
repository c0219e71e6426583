"""numpy stays out of the package: the library never imports it.

The matching kernel runs on plain Python lists, so a query must not pull
numpy into the interpreter — not at ``import repro``, not on the first
gStoreD query, not on the first ``LocalMatcher`` search, on no engine,
command-line run or persisted store.  The checks run in a fresh
child interpreter because the test runner's own process may have imported
numpy for unrelated reasons.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.engines import engine_names

SRC = Path(__file__).resolve().parents[2] / "src"

CHILD = """
import sys

import repro
from repro.datasets.paper_example import build_example_graph, example_query
from repro.store import EncodedGraph, LocalMatcher

with repro.open(dataset="paper", engine="gstored") as session:
    assert session.query("example").to_dicts()
assert len(LocalMatcher(EncodedGraph(build_example_graph())).evaluate(example_query())) > 0
print("numpy" in sys.modules)
"""

ENGINE_CHILD = """
import sys

import repro

with repro.open(dataset="paper", engine={engine!r}, executor={executor!r}) as session:
    assert session.query("example").to_dicts()
print("numpy" in sys.modules)
"""

CLI_CHILD = """
import sys

from repro.cli import main

assert main(["generate", "LUBM", "--scale", "1", "--output", {data!r}]) == 0
assert main(["query", "--data", {data!r}, "--sites", "3", "--query",
             "SELECT * WHERE {{ ?s ?p ?o . ?o ?q ?r }}"]) == 0
print("numpy" in sys.modules)
"""

STORE_CHILD = """
import sys

import repro
from repro.cli import main

assert main(["store", "build", "--output", {path!r}]) == 0
with repro.open(path={path!r}) as session:
    assert session.query("example").to_dicts()
print("numpy" in sys.modules)
"""


def imports_numpy(source):
    """Run ``source`` in a child interpreter; what it printed about numpy."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip().splitlines()[-1]


def test_queries_never_import_numpy():
    assert imports_numpy(CHILD) == "False"


@pytest.mark.parametrize("engine", engine_names())
def test_no_engine_imports_numpy(engine):
    assert imports_numpy(ENGINE_CHILD.format(engine=engine, executor="serial")) == "False"


def test_the_command_line_never_imports_numpy(tmp_path):
    assert imports_numpy(CLI_CHILD.format(data=str(tmp_path / "lubm.nt"))) == "False"


def test_a_reopened_store_never_imports_numpy(tmp_path):
    assert imports_numpy(STORE_CHILD.format(path=str(tmp_path / "paper.store"))) == "False"
