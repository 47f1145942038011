"""Simulated Score-P: call-path profiling with instrumentation overhead.

The profiler is an execution listener that attributes simulated cost to the
*nearest instrumented ancestor* on the call stack — exactly the visibility
a binary-instrumentation profiler has: uninstrumented functions' time folds
into their caller, and every instrumented call pays the per-visit event
overhead.  MPI routines are always visible (Score-P's MPI adapter wraps
them independently of the compiler filter).

The rank-per-node memory-contention factor (paper section C1) is applied
when querying times: ``time = compute + memory * factor + comm + overhead``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..interp import ENGINE_TREE, ENGINE_VECTORIZED, make_engine
from ..interp.config import DEFAULT_CONFIG, ExecConfig
from ..interp.events import CostKind, NullListener
from ..interp.runtime import LibraryRuntime
from ..interp.values import Value
from ..ir.program import Program
from .instrumentation import InstrumentationPlan

CallPath = tuple[str, ...]

#: Reserved name for whole-application time in measurement containers.
APP_KEY = "<<app>>"


@dataclass
class ProfileNode:
    """Exclusive metrics of one instrumented call path."""

    callpath: CallPath
    calls: int = 0
    compute: float = 0.0
    memory: float = 0.0
    comm: float = 0.0
    overhead: float = 0.0

    def time(self, contention_factor: float = 1.0) -> float:
        """Exclusive time including overhead, under memory contention."""
        return (
            self.compute
            + self.memory * contention_factor
            + self.comm
            + self.overhead
        )

    def base_time(self, contention_factor: float = 1.0) -> float:
        """Exclusive time without instrumentation overhead."""
        return self.compute + self.memory * contention_factor + self.comm

    @property
    def function(self) -> str:
        """The function this node belongs to ('' for the root)."""
        return self.callpath[-1] if self.callpath else ""


@dataclass
class ProfileResult:
    """Outcome of one profiled run."""

    plan: InstrumentationPlan
    nodes: dict[CallPath, ProfileNode]
    contention_factor: float = 1.0
    #: (function, loop_id) -> iterations, from the metered run.
    loop_iterations: dict[tuple[str, int], int] = field(default_factory=dict)

    def total_time(self) -> float:
        """Whole-application measured time (overhead included)."""
        return sum(n.time(self.contention_factor) for n in self.nodes.values())

    def base_total_time(self) -> float:
        """Whole-application time without instrumentation overhead."""
        return sum(
            n.base_time(self.contention_factor) for n in self.nodes.values()
        )

    def overhead_time(self) -> float:
        """Total instrumentation overhead of the run."""
        return sum(n.overhead for n in self.nodes.values())

    def flat(self) -> dict[str, ProfileNode]:
        """Per-function aggregation over call paths (the view Extra-P
        models by default when call paths agree)."""
        out: dict[str, ProfileNode] = {}
        for node in self.nodes.values():
            name = node.function
            agg = out.get(name)
            if agg is None:
                agg = ProfileNode((name,) if name else ())
                out[name] = agg
            agg.calls += node.calls
            agg.compute += node.compute
            agg.memory += node.memory
            agg.comm += node.comm
            agg.overhead += node.overhead
        return out

    def function_time(self, name: str) -> float:
        """Flat exclusive time of *name* (0.0 when not visible)."""
        node = self.flat().get(name)
        return node.time(self.contention_factor) if node else 0.0

    def visible_functions(self) -> frozenset[str]:
        """Functions appearing in the profile."""
        return frozenset(
            n.function for n in self.nodes.values() if n.function
        )


class ScorePListener(NullListener):
    """The profiling listener (one per run)."""

    def __init__(self, plan: InstrumentationPlan) -> None:
        self.plan = plan
        self.nodes: dict[CallPath, ProfileNode] = {}
        # Full call stack of (name, visible) pairs.
        self._stack: list[tuple[str, bool]] = []
        # Cached visible path.
        self._visible_path: CallPath = ()

    # -- helpers -----------------------------------------------------------

    def _is_visible(self, function: str) -> bool:
        return self.plan.is_instrumented(function) or function.startswith(
            "MPI_"
        )

    def _node(self, path: CallPath) -> ProfileNode:
        node = self.nodes.get(path)
        if node is None:
            node = ProfileNode(path)
            self.nodes[path] = node
        return node

    # -- listener ----------------------------------------------------------

    def on_enter(self, function: str) -> None:
        visible = self._is_visible(function)
        self._stack.append((function, visible))
        if visible:
            # Score-P's enter hook runs before the callee's timestamp and
            # the exit hook after it: half the per-visit overhead lands in
            # the caller's measured span, half in the callee's.  This
            # split is what lets instrumentation *qualitatively* distort
            # caller models (paper B2).
            half = self.plan.overhead_per_call / 2.0
            caller = self._node(self._visible_path)
            caller.overhead += half
            self._visible_path = self._visible_path + (function,)
            node = self._node(self._visible_path)
            node.calls += 1
            node.overhead += half

    def on_exit(self, function: str) -> None:
        if not self._stack:
            return
        name, visible = self._stack.pop()
        if visible:
            self._visible_path = self._visible_path[:-1]

    def on_cost(self, kind: CostKind, amount: float) -> None:
        node = self._node(self._visible_path)
        if kind is CostKind.COMPUTE:
            node.compute += amount
        elif kind is CostKind.MEMORY:
            node.memory += amount
        else:
            node.comm += amount

    def on_aggregate_calls(
        self, callee: str, count: int, unit_compute: float, unit_memory: float
    ) -> None:
        if self._is_visible(callee):
            half = self.plan.overhead_per_call / 2.0
            caller = self._node(self._visible_path)
            caller.overhead += count * half
            node = self._node(self._visible_path + (callee,))
            node.calls += count
            node.compute += count * unit_compute
            node.memory += count * unit_memory
            node.overhead += count * half
        else:
            node = self._node(self._visible_path)
            node.compute += count * unit_compute
            node.memory += count * unit_memory


class _BatchedNode:
    """Per-call-path accumulators over the whole batch.

    One ``(B,)`` array per :class:`ProfileNode` field, plus the lane set
    that has touched the path (scalar listeners create a node the moment
    any event lands on its path, so per-lane node existence must follow
    the event lane sets, not the accumulated values) and the per-lane
    first-touch sequence number (scalar node dicts are insertion-ordered
    by first touch, and :meth:`ProfileResult.flat` folds floats in that
    order — reproducing the order reproduces the rounding).
    """

    __slots__ = (
        "calls", "compute", "memory", "comm", "overhead",
        "touched", "first_seq", "complete",
    )

    def __init__(self, batch: int) -> None:
        self.calls = np.zeros(batch, dtype=np.int64)
        self.compute = np.zeros(batch)
        self.memory = np.zeros(batch)
        self.comm = np.zeros(batch)
        self.overhead = np.zeros(batch)
        self.touched = np.zeros(batch, dtype=bool)
        self.first_seq = np.zeros(batch, dtype=np.int64)
        #: Every lane has touched this path — first-touch bookkeeping is
        #: over, so the per-event hot path can skip it entirely.
        self.complete = False


class BatchedScorePListener:
    """Vector-protocol sibling of :class:`ScorePListener`.

    One instance profiles every lane of a batched run at once: the
    engine's vector event stream carries ``(amount, idx)`` pairs where
    *idx* is the sorted active-lane set (``None`` = all lanes) and vector
    amounts are compressed to it.  Call-path structure is shared by all
    lanes active at an event (the engine emits events at program points),
    so a single path stack suffices; accumulation lands on ``(B,)``
    arrays.  :meth:`lane_nodes` then slices out any lane's node dict,
    bit-identical to what a scalar :class:`ScorePListener` would have
    produced for that lane alone.
    """

    def __init__(self, plan: InstrumentationPlan, batch: int) -> None:
        self.plan = plan
        self.batch = batch
        self.nodes: dict[CallPath, _BatchedNode] = {}
        self._stack: list[tuple[str, bool]] = []
        self._visible_path: CallPath = ()
        self._seq = 0
        self._half = plan.overhead_per_call / 2.0
        self._visible_cache: dict[str, bool] = {}
        #: (function, loop_id) -> (B,) iteration counts, from the
        #: engine's loop events (stands in for per-lane RunResult metrics
        #: when the engine runs with ``collect_metrics=False``).
        self._loops: dict[tuple[str, int], np.ndarray] = {}

    # -- helpers -----------------------------------------------------------

    def _is_visible(self, function: str) -> bool:
        visible = self._visible_cache.get(function)
        if visible is None:
            visible = self.plan.is_instrumented(
                function
            ) or function.startswith("MPI_")
            self._visible_cache[function] = visible
        return visible

    def _node(self, path: CallPath, idx) -> _BatchedNode:
        node = self.nodes.get(path)
        if node is None:
            node = _BatchedNode(self.batch)
            self.nodes[path] = node
        if node.complete:
            return node
        touched = node.touched
        if idx is None:
            fresh = ~touched
            if fresh.any():
                node.first_seq[fresh] = self._seq
                self._seq += 1
            touched[:] = True
            node.complete = True
        else:
            fresh = ~touched[idx]
            if fresh.any():
                lanes = idx[fresh]
                node.first_seq[lanes] = self._seq
                self._seq += 1
                touched[lanes] = True
                node.complete = bool(touched.all())
        return node

    @staticmethod
    def _add(target: np.ndarray, amount, idx) -> None:
        # idx lane sets are sorted and duplicate-free, so fancy-index
        # accumulation is exact (no np.add.at needed).
        if idx is None:
            target += amount
        else:
            target[idx] += amount

    # -- vector listener protocol ------------------------------------------

    def on_enter(self, function: str, idx) -> None:
        visible = self._is_visible(function)
        self._stack.append((function, visible))
        if visible:
            half = self._half
            caller = self._node(self._visible_path, idx)
            self._add(caller.overhead, half, idx)
            self._visible_path = self._visible_path + (function,)
            node = self._node(self._visible_path, idx)
            self._add(node.calls, 1, idx)
            self._add(node.overhead, half, idx)

    def on_exit(self, function: str, idx) -> None:
        if not self._stack:
            return
        name, visible = self._stack.pop()
        if visible:
            self._visible_path = self._visible_path[:-1]

    def on_cost(self, kind: CostKind, amount, idx) -> None:
        node = self._node(self._visible_path, idx)
        if kind is CostKind.COMPUTE:
            self._add(node.compute, amount, idx)
        elif kind is CostKind.MEMORY:
            self._add(node.memory, amount, idx)
        else:
            self._add(node.comm, amount, idx)

    def on_loop_iterations(
        self, function: str, loop_id: int, count, idx
    ) -> None:
        counts = self._loops.get((function, loop_id))
        if counts is None:
            counts = np.zeros(self.batch, dtype=np.int64)
            self._loops[(function, loop_id)] = counts
        delta = (
            count.astype(np.int64)
            if isinstance(count, np.ndarray)
            else int(count)
        )
        if idx is None:
            counts += delta
        else:
            counts[idx] += delta

    def on_aggregate_calls(
        self, callee: str, count, unit_compute: float, unit_memory: float,
        idx,
    ) -> None:
        if self._is_visible(callee):
            half = self._half
            caller = self._node(self._visible_path, idx)
            self._add(caller.overhead, count * half, idx)
            node = self._node(self._visible_path + (callee,), idx)
            # counts arrive as float64 lanes from the engine's aggregation
            # but are exact integers; the calls field stays integral.
            calls = (
                count.astype(np.int64)
                if isinstance(count, np.ndarray)
                else int(count)
            )
            self._add(node.calls, calls, idx)
            self._add(node.compute, count * unit_compute, idx)
            self._add(node.memory, count * unit_memory, idx)
            self._add(node.overhead, count * half, idx)
        else:
            node = self._node(self._visible_path, idx)
            self._add(node.compute, count * unit_compute, idx)
            self._add(node.memory, count * unit_memory, idx)

    # -- per-lane extraction -----------------------------------------------

    def lane_nodes(self, lane: int) -> dict[CallPath, ProfileNode]:
        """Lane *lane*'s node dict, in its own first-touch order."""
        paths = [
            (int(node.first_seq[lane]), path)
            for path, node in self.nodes.items()
            if node.touched[lane]
        ]
        paths.sort()
        out: dict[CallPath, ProfileNode] = {}
        for _, path in paths:
            node = self.nodes[path]
            out[path] = ProfileNode(
                callpath=path,
                calls=int(node.calls[lane]),
                compute=float(node.compute[lane]),
                memory=float(node.memory[lane]),
                comm=float(node.comm[lane]),
                overhead=float(node.overhead[lane]),
            )
        return out

    def lane_loop_iterations(self, lane: int) -> dict[tuple[str, int], int]:
        """Lane *lane*'s loop-iteration counters (zero entries dropped,
        matching the per-lane metrics collectors)."""
        return {
            key: int(counts[lane])
            for key, counts in self._loops.items()
            if counts[lane] > 0
        }


def profile_run(
    program: Program,
    args: Mapping[str, Value],
    plan: InstrumentationPlan,
    runtime: LibraryRuntime | None = None,
    exec_config: ExecConfig = DEFAULT_CONFIG,
    contention_factor: float = 1.0,
    entry: str | None = None,
    engine: str = ENGINE_TREE,
) -> ProfileResult:
    """Execute *program* once under *plan* and return its profile.

    *engine* selects the execution engine (``"tree"`` by default: the
    tree-walker lowers nothing, so a one-shot run pays only for
    execution).  Every built-in engine yields a bit-identical profile.
    """
    listener = ScorePListener(plan)
    interp = make_engine(
        program,
        engine,
        runtime=runtime,
        config=exec_config,
        listener=listener,
    )
    result = interp.run(args, entry=entry)
    return ProfileResult(
        plan=plan,
        nodes=listener.nodes,
        contention_factor=contention_factor,
        loop_iterations=dict(result.metrics.loop_iterations),
    )


def profile_run_batch(
    program: Program,
    args_list: Sequence[Mapping[str, Value]],
    plan: InstrumentationPlan,
    runtimes: Sequence[LibraryRuntime | None] | None = None,
    exec_config: ExecConfig = DEFAULT_CONFIG,
    contention_factors: Sequence[float] | None = None,
    entry: str | None = None,
    engine: str = ENGINE_VECTORIZED,
) -> list[ProfileResult]:
    """Profile a whole batch of configurations in one tensor pass.

    One :class:`BatchedScorePListener` rides the batched engine's vector
    event stream; per lane the resulting :class:`ProfileResult` is
    bit-identical to :func:`profile_run` of that configuration alone.
    When the program is not batch-eligible (the engine raises
    :class:`~repro.interp.VectorFallback`) every lane falls back to a
    tree-walking :func:`profile_run` — same results, scalar speed.
    """
    from ..interp import VectorFallback, make_engine as _make_engine
    from ..interp.vectorize import VectorizedEngine

    batch = len(args_list)
    if contention_factors is None:
        contention_factors = [1.0] * batch
    if runtimes is None:
        runtimes = [None] * batch
    interp = _make_engine(program, engine, config=exec_config)
    listener = BatchedScorePListener(plan, batch)
    try:
        if not isinstance(interp, VectorizedEngine) and not hasattr(
            interp, "run_batch"
        ):
            raise TypeError(f"engine '{engine}' cannot run batches")
        interp.run_batch(
            args_list,
            entry=entry,
            lane_runtimes=runtimes,
            vector_listeners=[listener],
            collect_metrics=False,
        )
    except VectorFallback:
        return [
            profile_run(
                program,
                args_list[lane],
                plan,
                runtime=runtimes[lane],
                exec_config=exec_config,
                contention_factor=contention_factors[lane],
                entry=entry,
                engine=ENGINE_TREE,
            )
            for lane in range(batch)
        ]
    return [
        ProfileResult(
            plan=plan,
            nodes=listener.lane_nodes(lane),
            contention_factor=contention_factors[lane],
            loop_iterations=listener.lane_loop_iterations(lane),
        )
        for lane in range(batch)
    ]
