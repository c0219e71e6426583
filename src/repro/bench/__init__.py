"""Experiment harness: one function per paper table/figure plus report rendering."""

from .harness import (
    DEFAULT_NUM_SITES,
    PARTITIONING_STRATEGIES,
    PreparedWorkload,
    ablation_series,
    comparison_series,
    lec_feature_shipment_series,
    partitioning_cost_table,
    partitioning_performance_series,
    per_stage_table,
    planner_comparison_series,
    planner_search_report,
    prepare_workload,
    run_query,
    scalability_series,
    stage_breakdown_row,
    stage_shipment_snapshot,
)
from .reporting import format_series, format_table, format_value, print_experiment

__all__ = [
    "DEFAULT_NUM_SITES",
    "PARTITIONING_STRATEGIES",
    "PreparedWorkload",
    "ablation_series",
    "comparison_series",
    "format_series",
    "format_table",
    "format_value",
    "lec_feature_shipment_series",
    "partitioning_cost_table",
    "partitioning_performance_series",
    "per_stage_table",
    "planner_comparison_series",
    "planner_search_report",
    "prepare_workload",
    "print_experiment",
    "run_query",
    "scalability_series",
    "stage_breakdown_row",
    "stage_shipment_snapshot",
]
