"""The one failure shape: a site task that raises ends the query with a ``SiteTaskError``.

For every per-site task of the gStoreD pipeline, a handler that raises on
site 1 (LUBM scale 1 over 3 sites) must surface as
``SiteTaskError(site_id=1, stage=<task label>)`` chained from the handler's
exception — through ``Session.query``, as exit 1 of ``repro query`` and as
HTTP 500 of ``POST /query`` — and must leave the session as good as new.
"""

import json
import urllib.error
import urllib.request

import pytest

import repro
from repro.api import QueryServer
from repro.bench import stage_shipment_snapshot
from repro.cli import main
from repro.core import site_tasks
from repro.exec import SiteTaskError

FAILING_SITE = 1

PREFIX = (
    "PREFIX ub: <http://example.org/univ-bench#> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
)
#: LUBM's LQ1 (not a star: runs every stage) and LQ2 (a star: local evaluation only).
TRIANGLE = PREFIX + (
    "SELECT ?student ?professor ?course WHERE { ?student ub:advisor ?professor . "
    "?professor ub:teacherOf ?course . ?student ub:takesCourse ?course . }"
)
STAR = PREFIX + (
    "SELECT ?student ?department ?university WHERE { ?student rdf:type ub:GraduateStudent . "
    "?student ub:memberOf ?department . ?student ub:undergraduateDegreeFrom ?university . "
    "?student ub:emailAddress ?email . }"
)

#: (task label, handler attribute of repro.core.site_tasks, a query that reaches it)
CASES = [
    (site_tasks.TASK_LOCAL_EVAL, "run_local_eval", STAR),
    (site_tasks.TASK_CANDIDATE_VECTORS, "run_candidate_vectors", TRIANGLE),
    (site_tasks.TASK_PARTIAL_EVAL, "run_partial_eval", TRIANGLE),
    (site_tasks.TASK_LEC_FEATURES, "run_lec_features", TRIANGLE),
    (site_tasks.TASK_LEC_FILTER, "run_lec_filter", TRIANGLE),
]
IDS = [label for label, _handler, _query in CASES]


class HandlerBug(Exception):
    """What the broken handler raises."""


def open_lubm(**options):
    return repro.open(dataset="lubm", scale=1, sites=3, **options)


def break_handler(monkeypatch, handler_name, error):
    """Make ``handler_name`` raise ``error`` on the failing site, and only there."""
    real = getattr(site_tasks, handler_name)

    def failing(site, payload):
        if site.site_id == FAILING_SITE:
            raise error
        return real(site, payload)

    monkeypatch.setattr(site_tasks, handler_name, failing)


def fingerprint(result):
    return result.rows(), dict(result.statistics.work), stage_shipment_snapshot(result)


@pytest.fixture(scope="module")
def fresh():
    """query text -> the fingerprint of its first run on a fresh session."""
    fingerprints = {}
    for query in (TRIANGLE, STAR):
        with open_lubm() as session:
            fingerprints[query] = fingerprint(session.query(query))
    return fingerprints


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("lubm") / "lubm.nt"
    assert main(["generate", "LUBM", "--scale", "1", "--output", str(path)]) == 0
    return path


def post(base, query):
    request = urllib.request.Request(
        base + "/query",
        data=json.dumps({"query": query}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


@pytest.mark.parametrize("label, handler, query", CASES, ids=IDS)
def test_session_raises_one_typed_error_and_stays_usable(
    monkeypatch, fresh, label, handler, query
):
    raised = HandlerBug(f"broken {handler}")
    with open_lubm(trace=True) as session:
        break_handler(monkeypatch, handler, raised)
        with pytest.raises(SiteTaskError) as excinfo:
            session.query(query)
        error = excinfo.value
        assert isinstance(error, RuntimeError) and not isinstance(error, ValueError)
        assert error.site_id == FAILING_SITE
        assert error.stage == label
        assert error.__cause__ is raised
        assert str(error) == f"site 1 failed in {label}: HandlerBug: broken {handler}"

        trace = session.tracer.last
        assert trace.root.attrs["error"] == f"SiteTaskError: {error}"
        assert not trace._stack, "the failed query left a span open"
        failures = session.metrics.snapshot()["repro_query_failures_total"]["series"]
        assert sum(failures.values()) == 1
        assert all(not stack for stack in session.cluster.bus._ledgers.values())

        monkeypatch.undo()
        assert fingerprint(session.query(query)) == fresh[query]


@pytest.mark.parametrize("label, handler, query", CASES, ids=IDS)
def test_cli_exits_1_naming_the_site_and_the_task(
    monkeypatch, capsys, dataset_file, label, handler, query
):
    break_handler(monkeypatch, handler, HandlerBug("broken"))
    exit_code = main(["query", "--data", str(dataset_file), "--sites", "3", "--query", query])
    assert exit_code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: site 1 failed in {label}: HandlerBug: broken")
    assert "Traceback" not in err


@pytest.mark.parametrize("label, handler, query", CASES, ids=IDS)
def test_http_answers_500_naming_the_site_and_the_task(
    monkeypatch, fresh, label, handler, query
):
    with open_lubm() as session, QueryServer(session, port=0) as server:
        host, port = server.address
        base = f"http://{host}:{port}"
        break_handler(monkeypatch, handler, HandlerBug("broken"))
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base, query)
        assert excinfo.value.code == 500
        body = json.loads(excinfo.value.read())
        assert body["site"] == FAILING_SITE
        assert body["stage"] == label
        assert body["error"] == f"SiteTaskError: site 1 failed in {label}: HandlerBug: broken"

        monkeypatch.undo()
        status, answer = post(base, query)
        assert status == 200
        assert answer["num_rows"] == len(fresh[query][0])


def test_a_site_value_error_is_a_server_error_not_a_usage_error(monkeypatch, dataset_file):
    """A handler's ``ValueError`` used to read as a bad request (400) or usage error (2)."""
    break_handler(monkeypatch, "run_partial_eval", ValueError("handler bug"))
    assert main(["query", "--data", str(dataset_file), "--sites", "3", "--query", TRIANGLE]) == 1
    with open_lubm() as session, QueryServer(session, port=0) as server:
        host, port = server.address
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(f"http://{host}:{port}", TRIANGLE)
        assert excinfo.value.code == 500


@pytest.mark.parametrize("option", ["faults", "retry"])
def test_the_fault_options_are_rejected_by_name(option):
    with pytest.raises(TypeError, match=option):
        repro.open(dataset="paper", **{option: None})
