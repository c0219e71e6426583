"""repro — reproduction of "Accelerating Partial Evaluation in Distributed SPARQL Query Evaluation" (ICDE 2019).

The package provides, end to end:

* an RDF data model and N-Triples I/O (:mod:`repro.rdf`),
* a SPARQL BGP parser and query-graph model (:mod:`repro.sparql`),
* a centralized indexed triple store and matcher (:mod:`repro.store`),
* vertex-disjoint graph partitioning with the paper's cost model
  (:mod:`repro.partition`),
* a simulated distributed runtime with data-shipment accounting
  (:mod:`repro.distributed`),
* the per-site fan-out of site-task descriptors (:mod:`repro.exec`),
* the paper's contribution — LEC-feature-accelerated partial evaluation and
  assembly (:mod:`repro.core`),
* simulated comparison systems (:mod:`repro.baselines`),
* scaled-down LUBM/YAGO2/BTC-like workloads (:mod:`repro.datasets`),
* the experiment harness regenerating every table and figure
  (:mod:`repro.bench`),
* the unified session/engine/result facade tying them together
  (:mod:`repro.api`), and
* per-query tracing, a metrics registry and profiling hooks
  (:mod:`repro.obs`).

Quickstart
----------

``repro.open`` is the front door: it prepares a workload, owns the cluster
and the engines, and hands every evaluator out behind one contract.

>>> import repro
>>> with repro.open(dataset="paper") as session:
...     result = session.query(
...         'PREFIX ex: <http://example.org/> '
...         'SELECT ?p2 ?l WHERE { ?t ex:label ?l . ?p1 ex:influencedBy ?p2 . '
...         '?p2 ex:mainInterest ?t . ?p1 ex:name "Crispin Wright"@en . }'
...     )
...     len(result) > 0
...     result.same_solutions(session.query("example", engine="centralized"))
True
True
"""

from .api import (
    CentralizedEngine,
    QueryEngine,
    QueryServer,
    Result,
    Session,
    engine_names,
    make_engine,
    open_session,
)
from .api import open_session as open  # noqa: A001 - ``repro.open`` is the public name
from .core import (
    ABLATION_CONFIGS,
    EngineConfig,
    GStoreDEngine,
    LECFeature,
    LocalPartialMatch,
    OptimizationLevel,
)
from .distributed import AppliedDelta, Cluster, QueryStatistics, ShipmentSnapshot, build_cluster
from .exec import SerialBackend, SiteTaskError, make_backend
from .obs import MetricsRegistry, StageProfiler, Trace, Tracer
from .persist import ClusterStore, StoreError
from .partition import (
    HashPartitioner,
    MetisLikePartitioner,
    PartitionedGraph,
    SemanticHashPartitioner,
    make_partitioner,
    partitioning_cost,
    select_best_partitioning,
)
from .planner import GraphStatistics, QueryPlan, QueryPlanner, collect_statistics
from .rdf import IRI, Literal, Namespace, NamespaceManager, RDFGraph, Triple, Variable
from .sparql import Binding, ResultSet, SelectQuery, parse_query
from .store import LocalMatcher, TripleStore, evaluate_centralized

__version__ = "1.1.0"


__all__ = [
    "ABLATION_CONFIGS",
    "AppliedDelta",
    "Binding",
    "CentralizedEngine",
    "Cluster",
    "ClusterStore",
    "EngineConfig",
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
    "SelectQuery",
    "SemanticHashPartitioner",
    "SerialBackend",
    "Session",
    "ShipmentSnapshot",
    "SiteTaskError",
    "StageProfiler",
    "StoreError",
    "Trace",
    "Tracer",
    "Triple",
    "TripleStore",
    "Variable",
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
    "__version__",
]
