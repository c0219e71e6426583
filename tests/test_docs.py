"""Lightweight lint for the docs tree (and the README).

The CI docs job runs exactly this module.  It keeps the documentation
honest without a docs toolchain:

* every ``` fence is closed, and every opener declares a language;
* every ``python`` fence actually compiles (documents with broken example
  code fail the build — execution is deliberately out of scope, since the
  examples shell out to the CLI and build clusters);
* every relative markdown link points at a file that exists;
* the docs mention the public knobs they claim to document (spot checks, so
  a rename that orphans the docs fails here and not in a user's terminal).
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]

#: Languages allowed on fence openers; "text" is for ASCII diagrams/output.
KNOWN_LANGUAGES = {"bash", "python", "text"}

_FENCE = re.compile(r"^```(.*)$")
_RELATIVE_LINK = re.compile(r"\[[^\]]+\]\((?!https?://|#)([^)#]+)(?:#[^)]*)?\)")


def _fences(text):
    """Yield ``(language, body, opener_line_number)`` for every fence."""
    language = None
    body: list = []
    opened_at = 0
    for number, line in enumerate(text.splitlines(), start=1):
        match = _FENCE.match(line.strip())
        if not match:
            if language is not None:
                body.append(line)
            continue
        if language is None:
            language = match.group(1).strip() or "(none)"
            body = []
            opened_at = number
        else:
            yield language, "\n".join(body), opened_at
            language = None
    if language is not None:
        yield language, "\n".join(body), opened_at
        yield "UNCLOSED", "", opened_at


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_fences_are_closed_and_tagged(path):
    for language, _body, line in _fences(path.read_text(encoding="utf-8")):
        assert language != "UNCLOSED", f"{path.name}:{line}: unclosed code fence"
        assert language != "(none)", f"{path.name}:{line}: fence without a language tag"
        assert language in KNOWN_LANGUAGES, (
            f"{path.name}:{line}: unknown fence language {language!r} "
            f"(expected one of {sorted(KNOWN_LANGUAGES)})"
        )


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_python_fences_compile(path):
    for language, body, line in _fences(path.read_text(encoding="utf-8")):
        if language != "python":
            continue
        try:
            compile(body, f"{path.name}:{line}", "exec")
        except SyntaxError as error:  # pragma: no cover - failure path
            pytest.fail(f"{path.name}:{line}: python fence does not compile: {error}")


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(path):
    text = path.read_text(encoding="utf-8")
    for match in _RELATIVE_LINK.finditer(text):
        target = (path.parent / match.group(1)).resolve()
        assert target.exists(), f"{path.name}: broken relative link -> {match.group(1)}"


def test_docs_cover_the_execution_surface():
    text = (REPO_ROOT / "docs" / "execution.md").read_text(encoding="utf-8")
    for required in (
        "SiteTask",
        "site_id",
        "Per-site locks",
        "SiteTaskError",
        "OptionError",
        "determinism",
    ):
        assert required in text, f"docs/execution.md no longer mentions {required}"
    from repro.exec import SERIAL

    assert f"`{SERIAL}`" in text, "docs/execution.md does not document the serial fan-out"


def test_docs_cover_the_api_surface():
    text = (REPO_ROOT / "docs" / "api.md").read_text(encoding="utf-8")
    for required in (
        "repro.open",
        "Session",
        "make_engine",
        "Result",
        "sorted_rows",
        "QueryEngine",
        "DeprecationWarning",
    ):
        assert required in text, f"docs/api.md no longer mentions {required}"
    # The documented registry must match the code's registry.
    from repro.api import engine_names

    for name in engine_names():
        assert f"`{name}`" in text, f"docs/api.md does not document engine {name!r}"


def test_docs_cover_the_observability_surface():
    text = (REPO_ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    for required in (
        "--trace",
        "--metrics",
        "REPRO_PROFILE",
        "Perfetto",
        "validate_chrome_trace",
        "repro_queries_total",
        "repro_stage_seconds",
        "repro_shipped_bytes_total",
        "Run.stage",
    ):
        assert required in text, f"docs/observability.md no longer mentions {required}"


def test_docs_cover_the_serving_surface():
    text = (REPO_ROOT / "docs" / "serving.md").read_text(encoding="utf-8")
    for required in (
        "QueryServer",
        "repro serve",
        "429",
        "max-inflight",
        "max-queue",
        "repro_admission_queue_depth",
        "repro_admission_rejected_total",
        "determinism",
    ):
        assert required in text, f"docs/serving.md no longer mentions {required}"


def test_docs_cover_the_persistence_surface():
    text = (REPO_ROOT / "docs" / "persistence.md").read_text(encoding="utf-8")
    for required in (
        "repro store",
        "ClusterStore",
        "schema_version",
        "delta_head",
        "compact",
        "read-only",
        "repro_encoded_graph_rebuilds",
        "repro_encoded_graph_patches",
        "BENCH_persist.json",
        "persist-smoke",
        "determinism",
    ):
        assert required in text, f"docs/persistence.md no longer mentions {required}"


def test_docs_cover_every_benchmark_module():
    text = (REPO_ROOT / "docs" / "benchmarks.md").read_text(encoding="utf-8")
    for module in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")):
        assert module.name in text, f"docs/benchmarks.md does not mention {module.name}"


def test_readme_points_into_the_docs_tree():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for target in (
        "docs/architecture.md",
        "docs/execution.md",
        "docs/benchmarks.md",
        "docs/observability.md",
        "docs/serving.md",
        "docs/persistence.md",
    ):
        assert target in text, f"README.md does not link to {target}"
