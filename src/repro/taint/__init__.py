"""Dynamic taint analysis for performance modeling (paper sections 3–4).

A DFSan-style taint system over the repro IR: union-tree labels with 16-bit
ids, shadow frames and heap, data-flow plus explicit control-flow
propagation, loop-exit and branch sinks, and a library taint model hook for
MPI (section 5.3).

Taint is packaged as an analysis *domain*
(:class:`~repro.taint.domain.TaintDomain`) executed by the shadow-tracking
tree-walker (:class:`~repro.interp.shadowtree.ShadowInterpreter`), which
runs the pure-cost loop nests the fast-path planner summarises in closed
form; :class:`~repro.taint.engine.TaintEngine` is the driver.
"""

from .domain import TaintDomain
from .engine import TaintEngine, TaintRunResult
from .label import CLEAN, MAX_LABELS, LabelInfo, LabelTable
from .policy import DATAFLOW_ONLY, FULL_POLICY, PropagationPolicy
from .report import (
    BranchRecord,
    LibraryCallRecord,
    LoopRecord,
    TaintReport,
)
from .shadow import ShadowFrame, ShadowHeap
from .sources import (
    LibraryTaintEffect,
    LibraryTaintModel,
    NoLibraryTaint,
    ParameterSource,
    SourceSpec,
)

__all__ = [
    "BranchRecord",
    "CLEAN",
    "DATAFLOW_ONLY",
    "FULL_POLICY",
    "LabelInfo",
    "LabelTable",
    "LibraryCallRecord",
    "LibraryTaintEffect",
    "LibraryTaintModel",
    "LoopRecord",
    "MAX_LABELS",
    "NoLibraryTaint",
    "ParameterSource",
    "PropagationPolicy",
    "ShadowFrame",
    "ShadowHeap",
    "SourceSpec",
    "TaintDomain",
    "TaintEngine",
    "TaintReport",
    "TaintRunResult",
]
