"""Snapshot of the public API surface.

Anything exported from ``repro`` or ``repro.api`` is a compatibility
promise: downstream code imports these names, and the docs reference them.
This test freezes the surface so an accidental rename/removal fails CI; a
*deliberate* change updates the snapshot here (and ``docs/api.md``).
"""

import repro
import repro.api
import repro.core

#: Everything ``repro`` exports — keep sorted.  ``DistributedResult`` (every
#: engine returns ``Result``), ``quickstart_cluster`` (deprecated since 1.1),
#: ``repro.api.EngineAdapter`` (engines satisfy the contract themselves),
#: ``repro.core.execute_ablation`` (``bench.ablation_series``) and
#: ``ExecutorBackend``/``ThreadPoolBackend``/``run_per_site`` (the serial
#: fan-out is the only one) are gone.
REPRO_EXPORTS = [
    "ABLATION_CONFIGS",
    "AppliedDelta",
    "AsyncSession",
    "Binding",
    "CentralizedEngine",
    "Cluster",
    "ClusterStore",
    "EngineConfig",
    "FaultPlan",
    "GStoreDEngine",
    "GraphStatistics",
    "HashPartitioner",
    "IRI",
    "LECFeature",
    "Literal",
    "LocalMatcher",
    "LocalPartialMatch",
    "MetisLikePartitioner",
    "MetricsRegistry",
    "Namespace",
    "NamespaceManager",
    "OptimizationLevel",
    "PartitionedGraph",
    "QueryEngine",
    "QueryPlan",
    "QueryPlanner",
    "QueryServer",
    "QueryStatistics",
    "RDFGraph",
    "Result",
    "ResultSet",
    "RetryPolicy",
    "SelectQuery",
    "SemanticHashPartitioner",
    "SerialBackend",
    "Session",
    "ShipmentSnapshot",
    "StageProfiler",
    "StoreError",
    "Trace",
    "Tracer",
    "Triple",
    "TripleStore",
    "Variable",
    "__version__",
    "build_cluster",
    "collect_statistics",
    "engine_names",
    "evaluate_centralized",
    "make_backend",
    "make_engine",
    "make_partitioner",
    "open",
    "open_session",
    "parse_query",
    "partitioning_cost",
    "select_best_partitioning",
]

#: Everything ``repro.api`` exports — keep sorted.
REPRO_API_EXPORTS = [
    "AdmissionController",
    "AdmissionError",
    "AsyncSession",
    "CentralizedEngine",
    "EngineSpec",
    "QueryBatch",
    "QueryEngine",
    "QueryServer",
    "Result",
    "ResultCache",
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
    "result_cache_key",
]

#: Everything ``repro.core`` exports — keep sorted.  ``JoinedLECFeature``,
#: ``build_join_graph`` and ``groups_joinable`` left with the nested-loop
#: joins (the oracle in ``tests/core/reference_joins.py`` keeps them).
REPRO_CORE_EXPORTS = [
    "ABLATION_CONFIGS",
    "AssemblyOutcome",
    "BasicAssembler",
    "CandidateBitVector",
    "DEFAULT_BIT_VECTOR_BITS",
    "EngineConfig",
    "GStoreDEngine",
    "GlobalCandidateFilter",
    "LECAssembler",
    "LECFeature",
    "LECFeaturePruner",
    "LocalPartialMatch",
    "OptimizationLevel",
    "PartialEvaluationResult",
    "PartialEvaluator",
    "PruningOutcome",
    "STAGE_ASSEMBLY",
    "STAGE_CANDIDATES",
    "STAGE_PARTIAL_EVAL",
    "STAGE_PLANNING",
    "STAGE_PRUNING",
    "assemble_matches",
    "build_site_vectors",
    "check_local_partial_match",
    "compute_lec_features",
    "evaluate_fragment",
    "lec_feature_of",
    "prune_features",
    "union_site_vectors",
]

#: The engine registry is part of the CLI and docs contract too.
ENGINE_REGISTRY_SNAPSHOT = ("centralized", "cloud", "decomp", "dream", "gstored", "s2x")


def test_repro_all_matches_the_snapshot():
    assert sorted(repro.__all__) == sorted(REPRO_EXPORTS)


def test_repro_api_all_matches_the_snapshot():
    assert sorted(repro.api.__all__) == sorted(REPRO_API_EXPORTS)


def test_repro_core_all_matches_the_snapshot():
    assert sorted(repro.core.__all__) == sorted(REPRO_CORE_EXPORTS)
    for name in repro.core.__all__:
        assert getattr(repro.core, name) is not None
    for removed in ("JoinedLECFeature", "build_join_graph", "groups_joinable"):
        assert not hasattr(repro.core, removed)
        assert not hasattr(repro.core.lec, removed)


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None


def test_engine_registry_matches_the_snapshot():
    assert repro.engine_names() == ENGINE_REGISTRY_SNAPSHOT


def test_open_is_the_session_entry_point():
    assert repro.open is repro.open_session is repro.api.open_session
