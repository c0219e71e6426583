"""Graph partitioning substrate: fragments, partitioners, Section VII cost model."""

from .cost_model import (
    PartitioningCost,
    compare_partitionings,
    crossing_edge_distribution,
    crossing_edge_expectation,
    largest_fragment_size,
    partitioning_cost,
    select_best_partitioning,
    star_query_lec_feature_count,
)
from .delta import (
    DeltaEffect,
    DeltaRouter,
    apply_delta_effect,
    stable_fragment_of,
)
from .fragment import Fragment, PartitionedGraph, PartitioningError, build_partitioned_graph
from .partitioners import (
    HashPartitioner,
    MetisLikePartitioner,
    PARTITIONER_REGISTRY,
    Partitioner,
    SemanticHashPartitioner,
    make_partitioner,
)
from .refinement import RefinementReport, refine_partitioning
from .serialization import (
    load_assignment,
    load_partitioning,
    load_workspace,
    save_assignment,
    save_workspace,
)

__all__ = [
    "DeltaEffect",
    "DeltaRouter",
    "Fragment",
    "HashPartitioner",
    "MetisLikePartitioner",
    "PARTITIONER_REGISTRY",
    "PartitionedGraph",
    "Partitioner",
    "PartitioningCost",
    "PartitioningError",
    "RefinementReport",
    "SemanticHashPartitioner",
    "apply_delta_effect",
    "build_partitioned_graph",
    "compare_partitionings",
    "crossing_edge_distribution",
    "crossing_edge_expectation",
    "largest_fragment_size",
    "load_assignment",
    "load_partitioning",
    "load_workspace",
    "make_partitioner",
    "partitioning_cost",
    "refine_partitioning",
    "save_assignment",
    "save_workspace",
    "select_best_partitioning",
    "stable_fragment_of",
    "star_query_lec_feature_count",
]
