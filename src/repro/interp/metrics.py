"""Metrics collection: totals, per-function costs, loop iteration counts.

:class:`MetricsCollector` is an :class:`~repro.interp.events.ExecutionListener`
that aggregates a run into the quantities the rest of the pipeline consumes:

* total simulated time split by :class:`~repro.interp.events.CostKind`;
* per-function call counts and exclusive costs (flat profile);
* per-(function, loop) iteration counts — the empirical ground truth the
  volume calculus (paper section 4.2) is validated against.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .events import CostKind


@dataclass
class FunctionMetrics:
    """Flat (exclusive) metrics of one function."""

    calls: int = 0
    compute: float = 0.0
    memory: float = 0.0
    comm: float = 0.0

    @property
    def total(self) -> float:
        """Exclusive simulated time across all cost kinds."""
        return self.compute + self.memory + self.comm

    def add_cost(self, kind: CostKind, amount: float) -> None:
        if kind is CostKind.COMPUTE:
            self.compute += amount
        elif kind is CostKind.MEMORY:
            self.memory += amount
        else:
            self.comm += amount


class MetricsCollector:
    """Execution listener accumulating run metrics.

    The collector keeps a call stack so costs are attributed exclusively to
    the innermost active function, the way sampling/instrumenting profilers
    report "self time".
    """

    def __init__(self) -> None:
        self.functions: dict[str, FunctionMetrics] = defaultdict(FunctionMetrics)
        self.loop_iterations: dict[tuple[str, int], int] = defaultdict(int)
        self.totals: dict[CostKind, float] = {kind: 0.0 for kind in CostKind}
        self._stack: list[str] = []

    # -- listener interface ------------------------------------------------

    def on_enter(self, function: str) -> None:
        self._stack.append(function)
        self.functions[function].calls += 1

    def on_exit(self, function: str) -> None:
        if self._stack and self._stack[-1] == function:
            self._stack.pop()

    def on_cost(self, kind: CostKind, amount: float) -> None:
        self.totals[kind] += amount
        if self._stack:
            self.functions[self._stack[-1]].add_cost(kind, amount)

    def on_loop_iterations(self, function: str, loop_id: int, count: int) -> None:
        self.loop_iterations[(function, loop_id)] += count

    def on_aggregate_calls(
        self, callee: str, count: int, unit_compute: float, unit_memory: float
    ) -> None:
        fm = self.functions[callee]
        fm.calls += count
        fm.compute += count * unit_compute
        fm.memory += count * unit_memory
        self.totals[CostKind.COMPUTE] += count * unit_compute
        self.totals[CostKind.MEMORY] += count * unit_memory

    # -- queries -------------------------------------------------------------

    @property
    def total_time(self) -> float:
        """Total simulated time of the run (all cost kinds)."""
        return sum(self.totals.values())

    def iterations_of(self, function: str, loop_id: int) -> int:
        """Total iterations of one loop across the whole run."""
        return self.loop_iterations.get((function, loop_id), 0)

    def calls_of(self, function: str) -> int:
        """Total number of calls to *function*."""
        fm = self.functions.get(function)
        return fm.calls if fm else 0

    def snapshot(self) -> dict[str, FunctionMetrics]:
        """A copy of the per-function flat profile."""
        return dict(self.functions)


@dataclass
class RunResult:
    """Outcome of one interpreted execution."""

    value: object
    metrics: MetricsCollector
    steps: int = 0
    extra: dict[str, object] = field(default_factory=dict)

    @property
    def time(self) -> float:
        """Total simulated time."""
        return self.metrics.total_time
