"""Perf-Taint core: the hybrid tainted-performance-modeling pipeline."""

from .annotations import register_parameters, registered_parameters
from .artifacts import artifact_fingerprint
from .classify import Classification, classify_functions, table3_counts
from .experiment_design import (
    DesignDecision,
    design_experiments,
    linear_global_factors,
    prune_parameters,
)
from .hybrid import HybridModeler, ModelComparison
from .pipeline import PerfTaintPipeline, PerfTaintResult, core_hours
from .stages import STAGES, Campaign, Stage
from .report import (
    format_table,
    render_models,
    render_summary,
    render_table2,
    render_table3,
)
from .validation import (
    ContentionFinding,
    SegmentFinding,
    detect_contention,
    detect_segmented_behavior,
    poor_fit_functions,
)

__all__ = [
    "Campaign",
    "Classification",
    "ContentionFinding",
    "DesignDecision",
    "HybridModeler",
    "ModelComparison",
    "PerfTaintPipeline",
    "PerfTaintResult",
    "STAGES",
    "SegmentFinding",
    "Stage",
    "artifact_fingerprint",
    "classify_functions",
    "core_hours",
    "design_experiments",
    "detect_contention",
    "detect_segmented_behavior",
    "format_table",
    "linear_global_factors",
    "poor_fit_functions",
    "prune_parameters",
    "register_parameters",
    "registered_parameters",
    "render_models",
    "render_summary",
    "render_table2",
    "render_table3",
    "table3_counts",
]
