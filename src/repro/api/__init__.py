"""``repro.api`` — the canonical public surface of the reproduction.

Three pieces make every evaluator in the repository interchangeable:

* :func:`open_session` (re-exported as ``repro.open``) returns a
  :class:`Session` owning workload preparation, the cluster, the engines
  and the plan cache;
* :func:`make_engine` instantiates any registered evaluator —
  ``gstored``, ``dream``, ``decomp``, ``cloud``, ``s2x``, ``centralized`` —
  behind the one :class:`QueryEngine` contract;
* :class:`Result` is the single result type: lazy rows, attached
  :class:`~repro.distributed.QueryStatistics`, and canonical
  ``sorted_rows()`` for cross-engine comparison.

A query is ``Session.query`` in-process or ``POST /query`` over HTTP:
sessions are thread-safe, and :class:`QueryServer` /
:class:`AdmissionController` put a load-shedding HTTP front end on one
session (``repro serve``).  See ``docs/serving.md``.

The CLI, the benchmark harness and the examples are all built on this
module (direct ``GStoreDEngine`` construction satisfies the same contract).
See ``docs/api.md`` for the full tour and the old→new migration table.
"""

from .engines import (
    STAGE_CENTRALIZED,
    CentralizedEngine,
    EngineSpec,
    QueryEngine,
    engine_aliases,
    engine_names,
    engine_spec,
    engine_specs,
    make_engine,
    register_engine,
    resolve_engine_name,
)
from .result import Result
from .serving import AdmissionController, AdmissionError, QueryServer
from .session import Session, open_session

#: ``repro.api.open`` mirrors the package-level ``repro.open`` alias.
open = open_session

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "CentralizedEngine",
    "EngineSpec",
    "QueryEngine",
    "QueryServer",
    "Result",
    "STAGE_CENTRALIZED",
    "Session",
    "engine_aliases",
    "engine_names",
    "engine_spec",
    "engine_specs",
    "make_engine",
    "open",
    "open_session",
    "register_engine",
    "resolve_engine_name",
]
