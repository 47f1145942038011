"""Compile-time phase of Perf-Taint (paper section 5.1).

Constant trip-count resolution (SCEV-lite), static function pruning, and
the recursion warning.  Loops come straight from the structured IR: every
loop is a ``For``/``While`` statement with one entry, which
:func:`repro.ir.validate_program` guarantees, so every function is
reducible by construction and nothing needs checking.
"""

from .prune import (
    FunctionStaticInfo,
    StaticReport,
    analyze_program,
    default_relevant_library,
)
from .scev import fold_const, is_static_loop, static_trip_count

__all__ = [
    "FunctionStaticInfo",
    "StaticReport",
    "analyze_program",
    "default_relevant_library",
    "fold_const",
    "is_static_loop",
    "static_trip_count",
]
