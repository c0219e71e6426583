"""One engine protocol and one registry for every evaluator in the repository.

The paper's evaluation pits gStoreD against DREAM, two relational cloud
systems, a graph-parallel cloud system and a centralized ground truth.  This
module puts all six behind one surface:

* :class:`QueryEngine` is the one contract every evaluator satisfies:
  ``execute(query, query_name="", dataset="", *, trace=None, profiler=None)``
  returning a :class:`~repro.api.Result`, plus ``close()`` and
  context-manager support — the engine classes satisfy it themselves, there
  is no wrapper between the registry and them;
* :func:`make_engine` instantiates any evaluator by registry name over a
  :class:`~repro.distributed.Cluster`;
* :class:`CentralizedEngine` puts the centralized matcher behind the same
  contract (with a single timed ``centralized_evaluation`` stage), so the
  ground truth is just another registry entry.

Registry names (see :func:`engine_names`):

========================  =====================================================
``gstored``               the paper's engine (LEC-accelerated partial
                          evaluation; honors ``EngineConfig``)
``dream``                 DREAM-like full replication + star decomposition
``decomp``                CliqueSquare-like clique/star decomposition over
                          MapReduce-style flat joins (alias ``cliquesquare``)
``cloud``                 S2RDF-like Spark-SQL vertical partitioning scans
                          (alias ``s2rdf``)
``s2x``                   S2X-like vertex-centric graph-parallel matching
``centralized``           single-store ground truth (alias ``central``)
========================  =====================================================
"""

from __future__ import annotations

import inspect
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Protocol, Tuple, runtime_checkable

from ..baselines.cloud import CliqueSquareEngine, S2RDFEngine, S2XEngine
from ..baselines.dream import DreamEngine
from ..core.config import EngineConfig
from ..core.engine import GStoreDEngine
from ..distributed.cluster import Cluster
from ..distributed.result import Result
from ..distributed.run import Run
from ..obs import StageProfiler, Trace
from ..sparql.algebra import SelectQuery
from ..store.matcher import LocalMatcher

#: Stage name under which :class:`CentralizedEngine` records its evaluation.
STAGE_CENTRALIZED = "centralized_evaluation"


@runtime_checkable
class QueryEngine(Protocol):
    """The single execution contract all six evaluators satisfy."""

    #: Name used in statistics and reports (``gStoreD``, ``DREAM``, ...).
    name: str

    def execute(
        self,
        query: SelectQuery,
        query_name: str = "",
        dataset: str = "",
        *,
        trace: Optional[Trace] = None,
        profiler: Optional[StageProfiler] = None,
    ) -> Result:
        """Evaluate ``query`` and return its solutions plus statistics.

        With a ``trace`` the engine records its stage spans into it (measured
        or synthesized from its statistics); with a ``profiler`` it may
        capture per-stage profiles.  Neither changes the answers.
        """
        ...

    def close(self) -> None:
        """Release any resources held by the engine."""
        ...


class CentralizedEngine:
    """The centralized ground truth behind the standard engine contract.

    Wraps :class:`~repro.store.LocalMatcher` over the cluster's *full* graph
    (what :func:`~repro.store.evaluate_centralized` does per call), but keeps
    the matcher warm across queries, the way a long-lived single-store
    deployment would.
    Nothing is shipped, so the statistics carry a single
    ``centralized_evaluation`` stage with pure coordinator time.
    """

    name = "Centralized"

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._matcher: Optional[LocalMatcher] = None
        # One machine, one matcher: the matcher accumulates its
        # ``search_steps`` work counter on itself, so concurrent queries
        # serialize on this lock (which also guards the lazy build).
        self._lock = threading.Lock()

    def _ensure_matcher(self) -> LocalMatcher:
        if self._matcher is None:
            self._matcher = LocalMatcher(self.cluster.graph)
        return self._matcher

    def execute(
        self,
        query: SelectQuery,
        query_name: str = "",
        dataset: str = "",
        *,
        trace=None,
        profiler=None,
    ) -> Result:
        """Evaluate ``query`` over the full graph on one simulated machine."""
        run = Run.start(
            self.name, self.cluster, query, query_name, dataset, trace=trace, profiler=profiler
        )
        with run.stage(STAGE_CENTRALIZED) as stage:
            with self._lock:
                matcher = self._ensure_matcher()
                with stage.measure():
                    results = matcher.evaluate(query)
                    # The distributed engines all project with distinct=True
                    # (duplicate solutions collapse when projection drops
                    # variables); normalize the centralized answer to the same
                    # convention so every evaluator is row-for-row comparable.
                    results = results.project(query.effective_projection, distinct=True)
                search_steps = matcher.search_steps
            if stage.span is not None:
                stage.span.set(search_steps=search_steps)
        run.stats.work["search_steps"] = search_steps
        run.stats.num_results = len(results)
        return Result(results, run.stats)

    def close(self) -> None:
        """Drop the cached matcher (indexes are rebuilt on next use)."""
        with self._lock:
            self._matcher = None

    def __enter__(self) -> "CentralizedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineSpec:
    """One registry entry: how to build an evaluator and what it accepts."""

    #: Canonical registry key (lower-case).
    name: str
    #: One-line description shown in docs and CLI help.
    summary: str
    #: ``factory(cluster, config) -> QueryEngine``.
    factory: Callable[[Cluster, Optional[EngineConfig]], QueryEngine]
    #: Alternative lookup names (legacy report names, spellings).
    aliases: Tuple[str, ...] = ()
    #: Whether the engine honors an :class:`EngineConfig` (and a fault plan).
    #: Engines that don't raise on an explicit config.
    accepts_config: bool = False


def _gstored_factory(cluster, config, faults=None):
    return GStoreDEngine(cluster, config, faults=faults)


def _fixed_strategy_factory(engine_class):
    def factory(cluster, config):
        # Baselines model fixed strategies: nothing to configure.
        del config
        return engine_class(cluster)

    return factory


_REGISTRY: Dict[str, EngineSpec] = {}
_ALIASES: Dict[str, str] = {}


def register_engine(spec: EngineSpec) -> None:
    """Add an evaluator to the registry (idempotent per canonical name)."""
    key = spec.name.lower()
    _REGISTRY[key] = spec
    for alias in spec.aliases:
        _ALIASES[alias.lower()] = key


register_engine(
    EngineSpec(
        name="gstored",
        summary="LEC-accelerated partial evaluation and assembly (the paper's engine)",
        factory=_gstored_factory,
        aliases=("gstore-d",),
        accepts_config=True,
    )
)
register_engine(
    EngineSpec(
        name="dream",
        summary="DREAM-like full replication + star decomposition",
        factory=_fixed_strategy_factory(DreamEngine),
        aliases=(DreamEngine.name,),
    )
)
register_engine(
    EngineSpec(
        name="decomp",
        summary="CliqueSquare-like clique decomposition with flat MapReduce joins",
        factory=_fixed_strategy_factory(CliqueSquareEngine),
        aliases=(CliqueSquareEngine.name,),
    )
)
register_engine(
    EngineSpec(
        name="cloud",
        summary="S2RDF-like Spark-SQL vertical-partitioning scans and hash joins",
        factory=_fixed_strategy_factory(S2RDFEngine),
        aliases=(S2RDFEngine.name,),
    )
)
register_engine(
    EngineSpec(
        name="s2x",
        summary="S2X-like vertex-centric graph-parallel matching",
        factory=_fixed_strategy_factory(S2XEngine),
        aliases=(S2XEngine.name,),
    )
)
register_engine(
    EngineSpec(
        name="centralized",
        summary="single-store centralized evaluation (the ground truth)",
        factory=_fixed_strategy_factory(CentralizedEngine),
        aliases=("central",),
    )
)


def engine_names() -> Tuple[str, ...]:
    """The canonical registry names, sorted (the valid ``make_engine`` inputs)."""
    return tuple(sorted(_REGISTRY))


def engine_specs() -> Tuple[EngineSpec, ...]:
    """Every registered :class:`EngineSpec`, sorted by canonical name."""
    return tuple(_REGISTRY[name] for name in engine_names())


def engine_aliases() -> Dict[str, str]:
    """The alias table: lower-cased alias -> canonical registry name.

    The CLI derives its accepted ``--engine`` values from this, so a newly
    registered engine (or alias) is reachable everywhere without touching
    the CLI.
    """
    return dict(_ALIASES)


def engine_spec(name: str) -> EngineSpec:
    """The :class:`EngineSpec` behind a registry name or alias."""
    return _REGISTRY[resolve_engine_name(name)]


def resolve_engine_name(name: str) -> str:
    """Map a registry name or alias (case-insensitive) to its canonical name.

    Raises ``ValueError`` naming every valid choice when ``name`` is unknown.
    """
    key = name.strip().lower()
    if key in _REGISTRY:
        return key
    if key in _ALIASES:
        return _ALIASES[key]
    raise ValueError(
        f"unknown engine {name!r}; choose from: {', '.join(engine_names())}"
    )


def make_engine(
    name: str,
    cluster: Cluster,
    *,
    config: Optional[EngineConfig] = None,
    faults=None,
) -> QueryEngine:
    """Instantiate any registered evaluator by name over ``cluster``.

    ``config`` applies to engines that declare ``accepts_config`` (today the
    gStoreD family); passing an explicit ``config`` to a fixed-strategy
    engine is an error.

    ``faults`` — an optional :class:`~repro.faults.FaultPlan` — arms
    deterministic fault injection and recovery; like ``config`` it is only
    meaningful for ``accepts_config`` engines and an error elsewhere.

    Factories registered from outside the package are held to the
    :class:`QueryEngine` contract here: an engine whose ``execute`` cannot
    take ``trace`` / ``profiler`` raises a ``TypeError`` naming the contract
    instead of returning empty traces later.
    """
    spec = engine_spec(name)
    if config is not None and not spec.accepts_config:
        raise ValueError(
            f"engine {spec.name!r} models a fixed strategy and does not take an "
            f"EngineConfig; engines that do: "
            f"{', '.join(s.name for s in engine_specs() if s.accepts_config)}"
        )
    if faults is not None:
        if not spec.accepts_config:
            raise ValueError(
                f"engine {spec.name!r} does not support fault injection; "
                f"engines that do: "
                f"{', '.join(s.name for s in engine_specs() if s.accepts_config)}"
            )
        engine = spec.factory(cluster, config, faults=faults)
    else:
        engine = spec.factory(cluster, config)
    parameters = inspect.signature(engine.execute).parameters
    if not {"trace", "profiler"} <= parameters.keys() and not any(
        parameter.kind is parameter.VAR_KEYWORD for parameter in parameters.values()
    ):
        raise TypeError(
            f"engine {spec.name!r} ({type(engine).__name__}) does not satisfy the QueryEngine "
            'contract: execute(query, query_name="", dataset="", *, trace=None, profiler=None)'
        )
    return engine
