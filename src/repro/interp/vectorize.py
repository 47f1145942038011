"""Vectorized execution engine: one tensor pass over a batch of lanes.

The measurement layer executes the same program once per (configuration,
repetition).  This engine lowers a finalized program into closures that
operate on a leading **batch axis**: every frame slot holds either a
*uniform* Python scalar (identical in all lanes, exact Python semantics
preserved) or a ``(B,)`` float64 vector with one value per lane, and
every statement executes once per batch instead of once per lane —
following the batched-evaluation architecture of CGP++ / ``cgp-vec``
(whole-population tensor phenotype passes) cited in PAPERS.md.

Bit-identity contract
---------------------

Per lane, results are **bit-identical** to the tree-walking engine:
same ``RunResult`` (value, steps, totals, per-function metrics,
loop iterations), same listener event stream, same errors.  The engine
earns this with three mechanisms:

* **Eligibility classification** (per function): straight-line
  arithmetic, ``If`` branches, counted ``For`` loops (including the
  shared O(1) fast-path plans), intrinsics and calls vectorize; a
  function containing ``While``, ``Break``/``Continue``, or a ``Return``
  below the top statement level is value-dependent control flow and is
  not vectorizable.
* **Exactness guards** on every vector operation: lanes hold float64,
  so any intermediate whose magnitude reaches 2**53 (where Python-int
  exactness and float64 diverge), any non-finite result, any zero
  divisor, and any other hazard triggers a fallback instead of a
  silently different bit.
* **Whole-batch fallback**: on any hazard — including a lane that would
  raise — the partially executed batch is discarded and every lane is
  re-run on the tree-walking engine (:class:`VectorFallback` carries
  the reason).  The fallback is the semantics; the tensor pass is only an
  optimization.

Divergent control flow *within* eligible functions is executed SIMT
style: a non-uniform ``If`` splits the active lane set and runs both
bodies on disjoint index sets; a ``For`` whose trip count differs by
lane iterates on a shrinking active set.  Each lane still observes its
own events in its own program order, so per-lane streams replay exactly.

Work is paid per lane only where lanes differ:

* A **library call** runs each active lane's runtime once, in lane
  order, then groups the lanes by their exact cost-kind sequence and
  emits one ``enter``, one ``cost`` per kind (amounts compressed to the
  group) and one ``exit`` per group.  When every lane charges the same
  kinds in the same order — MPI routines always do — the one group is
  the call's own lane set.
* A planned **pure-cost nest** whose operands (bounds at every level it
  enters, intrinsic arguments) are uniform on the active lanes runs once
  through the scalar planner, the tree-walker's own rule, with its
  events on the lane set.  Counting nests and nests with an operand
  that differs by lane run on the planner's vector mirror.
"""

from __future__ import annotations

import math

import numpy as np

from ..ir.expr import BinOp, Call, Const, Expr, Intrinsic, Load, UnOp, Var
from ..ir.stmt import (
    Assign,
    Break,
    Continue,
    ExprStmt,
    For,
    If,
    Return,
    Stmt,
    Store,
    While,
)
from .config import DEFAULT_CONFIG, ExecConfig
from .events import CostKind, NullListener
from .fastpath import (
    EVAL_ERRORS,
    FastPathPlanner,
    LoopPlan,
    _pure_arith,
    apply_array_updates,
    charge_result,
    summarize,
    trip_counts,
)
from .interpreter import Interpreter
from .metrics import FunctionMetrics, MetricsCollector, RunResult
from .runtime import LibraryRuntime, NoLibraryRuntime
from .semantics import (
    ALLOC_COST_PER_ELEMENT,
    BINOP_FUNCS,
    MATH_INTRINSICS,
    resolve_entry_args,
)
from .values import Array, truthy

#: Largest magnitude at which every integer is exactly representable in
#: float64.  Any vector value at or beyond this may diverge from the
#: scalar engines' exact Python-int arithmetic, so it forces a fallback.
_EXACT = float(2**53)

_UNDEF = object()


class VectorFallback(Exception):
    """The batch cannot be (or can no longer be) executed vectorized.

    Raised internally on any hazard; :meth:`VectorizedEngine.run_batch`
    converts it into a per-lane rerun on the tree-walker unless the
    caller supplied listeners the engine cannot replicate per lane
    (``vector_listeners``), in which case it propagates for the caller
    to fall back itself.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _bail(reason: str):
    raise VectorFallback(reason)


class _LaneVector(Exception):
    """An operand of a planned nest differs by lane."""


#: :meth:`VectorizedEngine._plan_uniform`'s answer for such a nest.
_LANE_VECTOR = object()


def _is_vec(value) -> bool:
    return type(value) is np.ndarray


class BatchedArray:
    """The batched sibling of :class:`~repro.interp.values.Array`.

    One ``(B, n)`` float64 matrix; row *l* is lane *l*'s array.  Like
    ``Array``, it has reference (aliasing) semantics: two frame slots
    holding the same ``BatchedArray`` see each other's stores, exactly
    as the scalar engines share one ``Array`` object.
    """

    __slots__ = ("data",)

    def __init__(self, batch: int, size: int) -> None:
        self.data = np.zeros((batch, size), dtype=np.float64)

    def lane(self, lane: int) -> Array:
        arr = Array(self.data.shape[1])
        arr.data = [float(v) for v in self.data[lane]]
        return arr

    def row(self, lane: int) -> Array:
        """Lane *lane*'s array as a view: writes land in this batch."""
        arr = Array(0)
        arr.data = self.data[lane]
        return arr


class PartialCell:
    """A frame slot assigned under a divergent branch: defined only on
    the lanes of ``mask``.  Reading it on any undefined lane falls back
    (the scalar engine would raise ``undefined_variable`` there)."""

    __slots__ = ("vec", "mask")

    def __init__(self, vec: np.ndarray, mask: np.ndarray) -> None:
        self.vec = vec
        self.mask = mask


class _UniformOverlay:
    """A frame slot partially written with a *uniform* value.

    ``value`` holds the exact Python object for the lanes of ``idx``
    (an index-array object, compared by identity); ``backing`` is the
    previous slot content for every other lane.  Reads under the same
    lane-set object return the exact Python value — so a divergent
    loop whose variable and body temporaries stay uniform never
    materializes per-iteration vectors — and any other access flushes
    into the copy-on-write vector form first.
    """

    __slots__ = ("value", "idx", "backing")

    def __init__(self, value, idx, backing) -> None:
        self.value = value
        self.idx = idx
        self.backing = backing


class _Frame:
    """One call frame: name -> value plus the lane set it was created
    under (writes covering all frame lanes fully define a slot)."""

    __slots__ = ("vars", "lanes")

    def __init__(self, vars: dict, lanes) -> None:
        self.vars = vars
        self.lanes = lanes


def _uniform_float(value) -> float:
    """Exact float64 image of a uniform scalar (fallback if inexact)."""
    if type(value) is float:
        return value
    out = float(value)  # TypeError (Array/None) propagates -> fallback
    if abs(out) >= _EXACT or out != value:
        _bail("uniform value not exactly representable in float64")
    return out


def _plan_val(value):
    """A fast-path plan operand: compressed vector or exact uniform.

    ``TypeError``/``ValueError`` from the conversion propagate — the
    caller maps them to plan-invalid lanes exactly like the scalar
    planner's ``float()`` conversion failure.
    """
    return value if _is_vec(value) else _uniform_float(value)


# ----------------------------------------------------------------------
# batched event sinks
#
# Sinks receive (…, idx) where idx is None (all lanes) or a sorted int64
# index array.  Amounts/counts are Python scalars (uniform) or arrays
# *compressed to the idx lane set* (full ``(B,)`` when idx is None).
# The engine guarantees the per-lane subsequence of sink calls equals
# the scalar engine's event order for that lane.


class BatchedMetrics:
    """Batched sibling of :class:`~repro.interp.metrics.MetricsCollector`.

    Same attribution rules (innermost stack frame, aggregate calls)
    with all accumulators carrying a batch axis; :meth:`lane` slices one
    lane back out as a plain :class:`MetricsCollector`.
    """

    def __init__(self, batch: int) -> None:
        self.batch = batch
        self.totals = {kind: np.zeros(batch) for kind in CostKind}
        # name -> [calls (B,)int64, compute, memory, comm]
        self.functions: dict[str, list[np.ndarray]] = {}
        self.loop_iterations: dict[tuple[str, int], np.ndarray] = {}
        self._stack: list[str] = []

    def _fn(self, name: str) -> list[np.ndarray]:
        entry = self.functions.get(name)
        if entry is None:
            entry = [
                np.zeros(self.batch, dtype=np.int64),
                np.zeros(self.batch),
                np.zeros(self.batch),
                np.zeros(self.batch),
            ]
            self.functions[name] = entry
        return entry

    @staticmethod
    def _add(target: np.ndarray, amount, idx) -> None:
        if idx is None:
            target += amount
        else:
            target[idx] += amount  # amount: scalar or compressed to idx

    def on_enter(self, function: str, idx) -> None:
        self._stack.append(function)
        self._add(self._fn(function)[0], 1, idx)

    def on_exit(self, function: str, idx) -> None:
        if self._stack and self._stack[-1] == function:
            self._stack.pop()

    def on_cost(self, kind: CostKind, amount, idx) -> None:
        self._add(self.totals[kind], amount, idx)
        if self._stack:
            entry = self._fn(self._stack[-1])
            if kind is CostKind.COMPUTE:
                self._add(entry[1], amount, idx)
            elif kind is CostKind.MEMORY:
                self._add(entry[2], amount, idx)
            else:
                self._add(entry[3], amount, idx)

    def on_loop_iterations(self, function, loop_id, count, idx) -> None:
        key = (function, loop_id)
        target = self.loop_iterations.get(key)
        if target is None:
            target = self.loop_iterations[key] = np.zeros(
                self.batch, dtype=np.int64
            )
        self._add(target, count, idx)

    def on_aggregate_calls(self, callee, count, unit_compute, unit_memory, idx):
        entry = self._fn(callee)
        self._add(entry[0], count, idx)
        if _is_vec(count):
            self._add(entry[1], count * unit_compute, idx)
            self._add(entry[2], count * unit_memory, idx)
            self._add(self.totals[CostKind.COMPUTE], count * unit_compute, idx)
            self._add(self.totals[CostKind.MEMORY], count * unit_memory, idx)
        else:
            self._add(entry[1], count * unit_compute, idx)
            self._add(entry[2], count * unit_memory, idx)
            self._add(self.totals[CostKind.COMPUTE], count * unit_compute, idx)
            self._add(self.totals[CostKind.MEMORY], count * unit_memory, idx)

    def lane(self, lane: int) -> MetricsCollector:
        """Lane *lane*'s metrics as a plain scalar collector."""
        out = MetricsCollector()
        for kind in CostKind:
            out.totals[kind] = float(self.totals[kind][lane])
        for name, (calls, compute, memory, comm) in self.functions.items():
            if calls[lane] > 0:
                fm = FunctionMetrics(
                    calls=int(calls[lane]),
                    compute=float(compute[lane]),
                    memory=float(memory[lane]),
                    comm=float(comm[lane]),
                )
                out.functions[name] = fm
        for key, counts in self.loop_iterations.items():
            if counts[lane] > 0:
                out.loop_iterations[key] = int(counts[lane])
        return out


class EventRecorder:
    """Buffers the batched event stream for exact per-lane replay.

    Events are delivered to the real per-lane listeners only after the
    whole batch succeeds (on fallback the buffer is discarded and the
    tree-walking rerun drives the listeners directly), so listeners never
    observe a partially executed vector attempt.
    """

    def __init__(self, batch: int) -> None:
        self.batch = batch
        self.events: list[tuple] = []

    def on_enter(self, function, idx) -> None:
        self.events.append(("enter", idx, function))

    def on_exit(self, function, idx) -> None:
        self.events.append(("exit", idx, function))

    def on_cost(self, kind, amount, idx) -> None:
        self.events.append(("cost", idx, kind, amount))

    def on_loop_iterations(self, function, loop_id, count, idx) -> None:
        self.events.append(("iters", idx, function, loop_id, count))

    def on_aggregate_calls(self, callee, count, uc, um, idx) -> None:
        self.events.append(("agg", idx, callee, count, uc, um))

    def replay(self, lane: int, listener) -> None:
        """Deliver lane *lane*'s event subsequence to *listener*.

        Lane sets are sorted index arrays, so the lane's compressed
        position (for vector amounts) is a binary search away.
        """
        for event in self.events:
            idx = event[1]
            if idx is None:
                pos = lane
            else:
                k = int(np.searchsorted(idx, lane))
                if k >= len(idx) or idx[k] != lane:
                    continue
                pos = k
            kind = event[0]
            if kind == "cost":
                amount = event[3]
                listener.on_cost(
                    event[2],
                    float(amount[pos]) if _is_vec(amount) else amount,
                )
            elif kind == "enter":
                listener.on_enter(event[2])
            elif kind == "exit":
                listener.on_exit(event[2])
            elif kind == "iters":
                count = event[4]
                listener.on_loop_iterations(
                    event[2],
                    event[3],
                    int(count[pos]) if _is_vec(count) else count,
                )
            else:
                count = event[3]
                listener.on_aggregate_calls(
                    event[2],
                    int(count[pos]) if _is_vec(count) else count,
                    event[4],
                    event[5],
                )


# ----------------------------------------------------------------------
# eligibility classification


def classify_function(fn) -> bool:
    """True when *fn* is batch-eligible (see module docstring).

    ``While`` loops and ``Break``/``Continue`` make control flow
    value-dependent per lane; a ``Return`` below the top statement level
    would require per-lane flow masks.  Everything else — straight-line
    arithmetic, ``If``, counted ``For`` nests, intrinsics, calls — maps
    onto the batch axis.
    """
    for top in fn.body:
        for stmt in top.walk():
            if isinstance(stmt, (While, Break, Continue)):
                return False
            if isinstance(stmt, Return) and stmt is not top:
                return False
    return True


# ----------------------------------------------------------------------
# lowering: IR -> closures over (frame, idx)
#
# Every closure takes ``(frame, idx)``: *frame* is the current
# :class:`_Frame`, *idx* the active lane set (None = all lanes).
# Expression closures return uniform scalars, vectors **compressed to
# the active lane set** (length ``len(idx)``; full ``(B,)`` when idx is
# None), :class:`BatchedArray`, or None; statement closures return None.
# Frame slots always hold *full-width* values — reads gather, writes
# scatter — so divergent sub-contexts compute on dense arrays with no
# per-op fancy indexing.
# Uniform × uniform operations run in plain Python (exact scalar
# semantics, including big-int arithmetic); anything touching a vector
# goes through the engine's guarded numpy kernels.


class _PlanAcc:
    """Per-lane accumulators for the vectorized fast-path mirror
    (compressed to the context's lane count ``n``)."""

    __slots__ = ("compute", "memory", "iters", "calls", "counting", "vars")

    def __init__(self, n: int) -> None:
        self.compute = np.zeros(n)
        self.memory = np.zeros(n)
        self.iters: dict[tuple[str, int], np.ndarray] = {}
        self.calls: dict[str, list] = {}  # callee -> [counts (n,), LeafCost]
        # counting loop: (start, step, trips (n,)), bounds as evaluated
        # (uniform Python values or vectors), trips 0 on idle lanes
        self.counting: tuple | None = None
        # loop variables: (name, start, step, trips (n,), entered (n,))
        self.vars: list[tuple] = []


def _lane_scalar(value, pos: int):
    """Lane *pos*'s value of a uniform scalar or compressed vector."""
    return float(value[pos]) if _is_vec(value) else value


def _collect_plan_exprs(plan: LoopPlan, out: list) -> None:
    out.extend((plan.loop.start, plan.loop.stop, plan.loop.step))
    out.extend(arg for _, arg in plan.intrinsics)
    for sub in plan.nested:
        _collect_plan_exprs(sub, out)


class _VecFunction:
    """One program function lowered for batched execution."""

    __slots__ = ("name", "params", "vectorizable", "engine", "_top")

    def __init__(self, engine: "VectorizedEngine", fn) -> None:
        self.name = fn.name
        self.params = tuple(fn.params)
        self.vectorizable = classify_function(fn)
        self.engine = engine
        self._top = None  # lowered lazily on first call

    def call(self, args: list, idx):
        engine = self.engine
        if not self.vectorizable:
            _bail(f"function {self.name!r} has value-dependent control flow")
        if len(args) != len(self.params):
            _bail(f"arity mismatch calling {self.name!r}")
        if engine._depth >= engine.config.max_call_depth:
            _bail("call depth limit")
        if self._top is None:
            self._top = _VecCompiler(engine, engine.program.function(self.name)).compile_top()
        if idx is None:
            slots = dict(zip(self.params, args))
        else:  # frame slots are full-width; widen compressed vector args
            slots = {
                p: engine._widen(a, idx) for p, a in zip(self.params, args)
            }
        frame = _Frame(slots, idx)
        engine._depth += 1
        engine._enter(self.name, idx)
        try:
            ret = None
            for closure, is_return in self._top:
                if is_return:
                    ret = closure(frame, idx)
                    break
                closure(frame, idx)
            return ret
        finally:
            engine._exit(self.name, idx)
            engine._depth -= 1


class _VecCompiler:
    """Lowers one function body to batched closures (mirrors the
    tree-walker's ``_exec_*``/``_eval_*`` statement for statement)."""

    def __init__(self, engine: "VectorizedEngine", fn) -> None:
        self.engine = engine
        self.fn = fn
        self.fn_name = fn.name

    def compile_top(self):
        """Top-level body as (closure, is_return) pairs."""
        out = []
        for stmt in self.fn.body:
            if isinstance(stmt, Return):
                value = (
                    self._compile_expr(stmt.value)
                    if stmt.value is not None
                    else None
                )
                engine = self.engine

                def ret(frame, idx, _value=value):
                    engine._step(idx)
                    return _value(frame, idx) if _value is not None else None

                out.append((ret, True))
                break  # statements after a top-level return are dead
            out.append((self._compile_stmt(stmt), False))
        return tuple(out)

    # -- statements ----------------------------------------------------

    def _compile_block(self, body):
        closures = tuple(self._compile_stmt(s) for s in body)

        def block(frame, idx):
            for closure in closures:
                closure(frame, idx)

        return block

    def _compile_stmt(self, stmt: Stmt):
        engine = self.engine
        if isinstance(stmt, Assign):
            value = self._compile_expr(stmt.value)
            name = stmt.name

            def assign(frame, idx):
                engine._step(idx)
                engine._charge_stmt(idx)
                engine._assign(frame, name, value(frame, idx), idx)

            return assign
        if isinstance(stmt, ExprStmt):
            value = self._compile_expr(stmt.expr)

            def expr_stmt(frame, idx):
                engine._step(idx)
                engine._charge_stmt(idx)
                value(frame, idx)

            return expr_stmt
        if isinstance(stmt, Store):
            index = self._compile_expr(stmt.index)
            value = self._compile_expr(stmt.value)
            name = stmt.array

            def store(frame, idx):
                engine._step(idx)
                engine._charge_stmt(idx)
                arr = frame.vars.get(name, _UNDEF)
                if not isinstance(arr, BatchedArray):
                    _bail(f"store into non-batched array {name!r}")
                iv = index(frame, idx)
                vv = value(frame, idx)
                data = arr.data
                ncols = data.shape[1]
                vals = vv if _is_vec(vv) else _uniform_float(vv)
                if not _is_vec(iv):
                    col = int(iv)  # TypeError/ValueError -> fallback
                    if not 0 <= col < ncols:
                        _bail("store index out of bounds")
                    if idx is None:
                        data[:, col] = vals
                    else:
                        data[idx, col] = vals
                    return
                cols = iv.astype(np.int64)
                if cols.min() < 0 or cols.max() >= ncols:
                    _bail("store index out of bounds")
                base = idx if idx is not None else engine._all
                data[base, cols] = vals

            return store
        if isinstance(stmt, If):
            cond = self._compile_expr(stmt.cond)
            then_block = self._compile_block(stmt.then_body)
            else_block = (
                self._compile_block(stmt.else_body)
                if stmt.else_body
                else None
            )

            def run_if(frame, idx):
                engine._step(idx)
                c = cond(frame, idx)
                if not _is_vec(c):
                    # truthy() mirrors scalar condition semantics exactly
                    # (raises on Array/None -> broad catch -> fallback).
                    if truthy(c):
                        then_block(frame, idx)
                    elif else_block is not None:
                        else_block(frame, idx)
                    return
                mask = c != 0
                if mask.all():
                    then_block(frame, idx)
                elif not mask.any():
                    if else_block is not None:
                        else_block(frame, idx)
                else:
                    base = idx if idx is not None else engine._all
                    then_block(frame, base[mask])
                    if else_block is not None:
                        else_block(frame, base[~mask])

            return run_if
        if isinstance(stmt, For):
            return self._compile_for(stmt)
        # While / Break / Continue / nested Return never compile: the
        # classifier rejects functions containing them and the caller
        # bails before reaching this body.  Defensive fallback anyway.

        def unsupported(frame, idx):
            _bail(f"unsupported statement {type(stmt).__name__}")

        return unsupported

    def _compile_for(self, stmt: For):
        engine = self.engine
        fn_name = self.fn_name
        var = stmt.var
        loop_id = stmt.loop_id
        start_c = self._compile_expr(stmt.start)
        stop_c = self._compile_expr(stmt.stop)
        step_c = self._compile_expr(stmt.step)
        body = self._compile_block(stmt.body)
        iter_cost = engine.config.loop_iter_cost
        # The genuine loop can track a uniform loop variable as an exact
        # Python value (no per-iteration vectors) only when the body
        # never rebinds it.
        body_writes_var = any(
            (isinstance(s, Assign) and s.name == var)
            or (isinstance(s, For) and s.var == var)
            for top in stmt.body
            for s in top.walk()
        )
        # Same gate as the scalar engines: with fast loops disabled the
        # loop must run genuinely (per-iteration events), not via the
        # O(1) aggregate plan — event streams are part of bit-identity.
        plan = (
            engine._planner.plan(fn_name, stmt)
            if engine.config.fast_loops
            else None
        )
        tbl = None
        if plan is not None:
            exprs: list[Expr] = []
            _collect_plan_exprs(plan, exprs)
            tbl = {id(e): self._compile_expr(e) for e in exprs}

        def run_genuine(frame, idx):
            start = start_c(frame, idx)
            stop = stop_c(frame, idx)
            step = step_c(frame, idx)
            if not _is_vec(step):
                if not isinstance(step, (int, float)) or step <= 0:
                    _bail("bad loop step")  # scalar raises bad_loop_step
            elif (step <= 0).any():
                _bail("bad loop step")
            engine._assign(frame, var, start, idx)
            # Bounds were evaluated compressed to idx; keep full-width
            # images so a shrinking active set can regather them.
            stop_f = engine._widen(stop, idx)
            step_f = engine._widen(step, idx)
            # Uniform-variable mode: with a uniform start/step and a
            # body that never rebinds the variable, the loop variable is
            # the same exact Python number on every active lane forever.
            # Track it locally and refresh the frame overlay to the
            # current active set, so divergence transitions (lanes
            # exiting) never force the variable — and everything
            # computed from it — onto the vector path.
            uniform_var = (
                not body_writes_var
                and not _is_vec(start)
                and not _is_vec(step_f)
            )
            cur_u = start if uniform_var else None
            active = idx
            iters = np.zeros(engine._batch, dtype=np.int64)
            while True:
                var_v = cur_u if uniform_var else engine._read(
                    frame, var, active
                )
                if not _is_vec(var_v) and not _is_vec(stop_f):
                    if not (var_v < stop_f):
                        break
                    cont = active
                else:
                    base = active if active is not None else engine._all
                    vv = var_v if _is_vec(var_v) else _uniform_float(var_v)
                    sv = (
                        stop_f[base]
                        if _is_vec(stop_f)
                        else _uniform_float(stop_f)
                    )
                    mask = vv < sv
                    if not mask.any():
                        break
                    cont = active if mask.all() else base[mask]
                engine._step(cont)
                engine._charge(CostKind.COMPUTE, iter_cost, cont)
                if cont is None:
                    iters += 1
                else:
                    iters[cont] += 1
                if uniform_var:
                    if cont is not active:
                        # re-anchor the overlay to the new active set
                        engine._assign(frame, var, cur_u, cont)
                    body(frame, cont)
                    cur_u = cur_u + step_f  # exact Python arithmetic
                    engine._assign(frame, var, cur_u, cont)
                else:
                    body(frame, cont)
                    cur = engine._read(frame, var, cont)
                    if not _is_vec(cur) and not _is_vec(step_f):
                        nxt = cur + step_f  # exact Python arithmetic
                    else:
                        cbase = cont if cont is not None else engine._all
                        sp = step_f[cbase] if _is_vec(step_f) else step_f
                        nxt = engine._vec_add(cur, sp)
                    engine._assign(frame, var, nxt, cont)
                active = cont
            if iters.any():
                lanes = np.nonzero(iters)[0]
                if len(lanes) == engine._batch:
                    engine._iters(fn_name, loop_id, iters, None)
                else:
                    engine._iters(fn_name, loop_id, iters[lanes], lanes)

        def run_for(frame, idx):
            engine._step(idx)
            if plan is None:
                run_genuine(frame, idx)
                return
            if not plan.counters:
                outcome = engine._plan_uniform(plan, tbl, frame, idx)
                if outcome is None:
                    run_genuine(frame, idx)
                if outcome is not _LANE_VECTOR:
                    return
            outcome = engine._plan_exec(plan, tbl, frame, idx)
            if outcome is None:  # conversion failure: all lanes invalid
                run_genuine(frame, idx)
                return
            valid = outcome
            if valid.all():
                return
            base = idx if idx is not None else engine._all
            if not valid.any():
                run_genuine(frame, idx)
            else:
                run_genuine(frame, base[~valid])

        return run_for

    # -- expressions ---------------------------------------------------

    def _compile_expr(self, expr: Expr):
        engine = self.engine
        if isinstance(expr, Const):
            value = expr.value
            return lambda frame, idx: value
        if isinstance(expr, Var):
            name = expr.name

            def read(frame, idx):
                return engine._read(frame, name, idx)

            return read
        if isinstance(expr, BinOp):
            return self._compile_binop(expr)
        if isinstance(expr, UnOp):
            operand = self._compile_expr(expr.operand)
            if expr.op == "not":

                def not_(frame, idx):
                    v = operand(frame, idx)
                    if not _is_vec(v):
                        return not v  # exact scalar semantics
                    return (v == 0).astype(np.float64)

                return not_

            def neg(frame, idx):
                v = operand(frame, idx)
                if not _is_vec(v):
                    return -v  # TypeError on Array -> fallback
                return -v  # negation is exact; inactive lanes unread

            return neg
        if isinstance(expr, Load):
            index = self._compile_expr(expr.index)
            name = expr.array

            def load(frame, idx):
                arr = frame.vars.get(name, _UNDEF)
                if not isinstance(arr, BatchedArray):
                    _bail(f"load from non-batched array {name!r}")
                iv = index(frame, idx)
                data = arr.data
                ncols = data.shape[1]
                if not _is_vec(iv):
                    col = int(iv)  # TypeError/ValueError -> fallback
                    if not 0 <= col < ncols:
                        _bail("load index out of bounds")
                    if idx is None:
                        return data[:, col].copy()
                    return data[idx, col]
                cols = iv.astype(np.int64)
                if cols.min() < 0 or cols.max() >= ncols:
                    _bail("load index out of bounds")
                base = idx if idx is not None else engine._all
                return data[base, cols]

            return load
        if isinstance(expr, Intrinsic):
            return self._compile_intrinsic(expr)
        if isinstance(expr, Call):
            return self._compile_call(expr)
        _bail(f"cannot vectorize {type(expr).__name__}")

    def _compile_binop(self, expr: BinOp):
        engine = self.engine
        op = expr.op
        lhs = self._compile_expr(expr.lhs)
        rhs = self._compile_expr(expr.rhs)
        if op in ("and", "or"):
            is_and = op == "and"
            rhs_pure = _pure_arith(expr.rhs)

            def bool_op(frame, idx):
                left = lhs(frame, idx)
                if not _is_vec(left):
                    t = truthy(left)  # raises on Array/None -> fallback
                    if is_and:
                        return rhs(frame, idx) if t else left
                    return left if t else rhs(frame, idx)
                take_rhs = (left != 0) if is_and else (left == 0)
                if take_rhs.all():
                    return rhs(frame, idx)
                if not take_rhs.any():
                    return left
                if not rhs_pure:
                    _bail("divergent short-circuit with impure operand")
                base = idx if idx is not None else engine._all
                sub = base[take_rhs]
                right = rhs(frame, sub)
                out = left.copy()
                out[take_rhs] = (
                    right if _is_vec(right) else _uniform_float(right)
                )
                return out

            return bool_op
        pyfn = BINOP_FUNCS.get(op)
        if pyfn is None:
            _bail(f"unknown operator {op!r}")

        def binop(frame, idx):
            left = lhs(frame, idx)
            right = rhs(frame, idx)
            if not (_is_vec(left) or _is_vec(right)):
                return pyfn(left, right)  # exact Python, incl. big ints
            return engine._vec_binop(op, left, right)

        return binop

    def _compile_intrinsic(self, expr: Intrinsic):
        engine = self.engine
        name = expr.name
        arg = self._compile_expr(expr.args[0]) if expr.args else None
        if name in ("work", "mem_work"):
            kind = CostKind.COMPUTE if name == "work" else CostKind.MEMORY
            if expr.args and isinstance(expr.args[0], Const):
                const_amount = float(expr.args[0].value)
                if const_amount >= 0:

                    def work_const(frame, idx):
                        engine._charge(kind, const_amount, idx)
                        return const_amount

                    return work_const
            if arg is None:
                return lambda frame, idx: _bail("cost intrinsic without arg")

            def work(frame, idx):
                v = arg(frame, idx)
                if not _is_vec(v):
                    amount = float(v)  # TypeError -> fallback
                    if amount < 0:
                        _bail("negative work amount")  # scalar raises
                    engine._charge(kind, amount, idx)
                    return amount
                if (v < 0).any():
                    _bail("negative work amount")
                engine._charge(kind, v, idx)
                return v

            return work
        if name == "alloc":
            if arg is None:
                return lambda frame, idx: _bail("alloc without arg")

            def alloc(frame, idx):
                v = arg(frame, idx)
                if _is_vec(v):
                    _bail("per-lane alloc sizes diverge")
                n = int(v)  # TypeError/ValueError -> fallback
                if n < 0:
                    _bail("negative alloc size")
                arr = BatchedArray(engine._batch, n)
                engine._charge(
                    CostKind.MEMORY, float(n) * ALLOC_COST_PER_ELEMENT, idx
                )
                return arr

            return alloc
        if arg is None:
            return lambda frame, idx: _bail(f"intrinsic {name!r} without arg")
        if name == "log2":

            def log2(frame, idx):
                v = arg(frame, idx)
                if not _is_vec(v):
                    return MATH_INTRINSICS["log2"](v)
                # per-lane libm log2: numpy's SIMD log2 may differ from
                # math.log2 in the last ulp, which would break bit-identity
                out = np.empty(len(v))
                for k, x in enumerate(v):
                    out[k] = math.log2(x) if x > 0 else 0.0
                return out

            return log2
        if name == "sqrt":

            def sqrt(frame, idx):
                v = arg(frame, idx)
                if not _is_vec(v):
                    return math.sqrt(v)  # ValueError/TypeError -> fallback
                if (v < 0).any():
                    _bail("sqrt of negative value")
                return np.sqrt(v)

            return sqrt
        if name == "abs":

            def abs_(frame, idx):
                v = arg(frame, idx)
                if not _is_vec(v):
                    return abs(v)
                return np.abs(v)  # inactive lanes unread

            return abs_
        if name == "int":

            def int_(frame, idx):
                v = arg(frame, idx)
                if not _is_vec(v):
                    return int(v)  # exact scalar semantics
                return np.trunc(v)  # int() truncates toward zero

            return int_
        return lambda frame, idx: _bail(f"unknown intrinsic {name!r}")

    def _compile_call(self, expr: Call):
        engine = self.engine
        arg_closures = tuple(self._compile_expr(a) for a in expr.args)
        callee = expr.callee
        call_cost = engine.config.call_cost
        if callee in engine.program:

            def call_fn(frame, idx):
                args = [c(frame, idx) for c in arg_closures]
                engine._charge(CostKind.COMPUTE, call_cost, idx)
                return engine._vec_fn(callee).call(args, idx)

            return call_fn

        def call_external(frame, idx):
            args = [c(frame, idx) for c in arg_closures]
            engine._charge(CostKind.COMPUTE, call_cost, idx)
            return engine._call_library(callee, args, idx)

        return call_external



# ----------------------------------------------------------------------
# the engine


class VectorizedEngine:
    """Executes a whole batch of lanes in one tensor pass.

    Same constructor and :meth:`run` contract as the tree-walker;
    :meth:`run_batch` is the batched entry point the measure layer uses.
    Per lane, results/events/errors are bit-identical to the tree-walker
    (see module docstring for how).
    """

    def __init__(
        self,
        program,
        runtime: LibraryRuntime | None = None,
        config: ExecConfig = DEFAULT_CONFIG,
        listener=None,
    ) -> None:
        self.program = program
        self.runtime: LibraryRuntime = runtime or NoLibraryRuntime()
        self.config = config
        self.listener = listener or NullListener()
        self.metrics = MetricsCollector()
        self._planner = FastPathPlanner(program, config)
        self._fns: dict[str, _VecFunction] = {}
        # per-run state (reset by _run_vector)
        self._batch = 0
        self._all = None
        self._steps = None
        self._hi = 0
        self._depth = 0
        self._sinks: tuple = ()
        self._on_cost_hooks: tuple = ()
        self._on_enter_hooks: tuple = ()
        self._on_exit_hooks: tuple = ()
        self._on_iters_hooks: tuple = ()
        self._on_agg_hooks: tuple = ()
        self._runtimes: list = []

    # -- public API ----------------------------------------------------

    def close(self) -> None:
        """Release the lowered functions: breaks the engine -> function
        -> engine cycle so the engine is freed by reference counting.
        The engine cannot run afterwards."""
        for fn in self._fns.values():
            fn._top = None
            fn.engine = None
        self._fns.clear()

    def run(self, args=(), entry: str | None = None) -> RunResult:
        """Scalar-compatible single run (a batch of width one)."""
        result = self.run_batch(
            [args], entry=entry, lane_listeners=[self.listener]
        )[0]
        self.metrics = result.metrics
        return result

    def run_batch(
        self,
        args_list,
        entry: str | None = None,
        *,
        lane_runtimes=None,
        lane_listeners=None,
        vector_listeners=None,
        collect_errors: bool = False,
        collect_metrics: bool = True,
    ):
        """Execute every lane of *args_list* and return per-lane results.

        ``lane_runtimes``/``lane_listeners`` give lane *l* its own
        library runtime / listener (default: the engine's own for every
        lane).  Listener events are buffered and replayed per lane after
        the batch succeeds.  ``vector_listeners`` instead receive the
        raw batched events (the profiler's batched listener); with
        vector listeners a fallback raises :class:`VectorFallback` for
        the caller to handle, because the engine cannot split such a
        listener per lane.  With ``collect_errors`` a lane whose scalar
        execution raises :class:`Exception` yields the exception object
        in its slot instead of aborting the whole batch.
        ``collect_metrics=False`` drops the engine's own metrics sink
        (results carry empty collectors) — for callers that consume the
        vector event stream themselves and shouldn't pay twice.
        """
        if vector_listeners and lane_listeners:
            raise ValueError(
                "lane_listeners and vector_listeners are mutually exclusive"
            )
        if not args_list:
            return []
        try:
            return self._run_vector(
                args_list, entry, lane_runtimes, lane_listeners,
                vector_listeners, collect_metrics,
            )
        except VectorFallback:
            if vector_listeners:
                raise
            return self._run_scalar(
                args_list, entry, lane_runtimes, lane_listeners,
                collect_errors,
            )

    # -- vector attempt ------------------------------------------------

    def _run_vector(
        self, args_list, entry, lane_runtimes, lane_listeners,
        vector_listeners, collect_metrics=True,
    ):
        batch = len(args_list)
        self._batch = batch
        self._all = np.arange(batch)
        self._steps = np.zeros(batch, dtype=np.int64)
        self._hi = 0
        self._depth = 0
        self._runtimes = (
            list(lane_runtimes) if lane_runtimes else [self.runtime] * batch
        )
        metrics = BatchedMetrics(batch) if collect_metrics else None
        # Record only when some lane has a real listener: exact NullListener
        # instances (the default) are event sinks that drop everything, so
        # buffering for them would tax listener-free batches for nothing.
        # The check is by exact type — listener subclasses override hooks.
        record = lane_listeners is not None and any(
            lst is not None and type(lst) is not NullListener
            for lst in lane_listeners
        )
        recorder = EventRecorder(batch) if record else None
        sinks = []
        if metrics is not None:
            sinks.append(metrics)
        if recorder is not None:
            sinks.append(recorder)
        if vector_listeners:
            sinks.extend(vector_listeners)
        self._sinks = tuple(sinks)
        # Pre-bound per-event hook lists: the emit helpers below run once
        # per vector event, so the sink-attribute lookups are hoisted.
        self._on_cost_hooks = tuple(s.on_cost for s in sinks)
        self._on_enter_hooks = tuple(s.on_enter for s in sinks)
        self._on_exit_hooks = tuple(s.on_exit for s in sinks)
        self._on_iters_hooks = tuple(s.on_loop_iterations for s in sinks)
        self._on_agg_hooks = tuple(s.on_aggregate_calls for s in sinks)
        try:
            with np.errstate(all="ignore"):
                name = None
                lane_args = []
                for args in args_list:
                    n, _fn, argvals = resolve_entry_args(
                        self.program, args, entry
                    )
                    name = n
                    lane_args.append(argvals)
                entry_args = [
                    self._batch_value([la[i] for la in lane_args])
                    for i in range(len(lane_args[0]))
                ]
                value = self._vec_fn(name).call(entry_args, None)
        except VectorFallback:
            raise
        except Exception as exc:  # any scalar-side error -> per-lane rerun
            raise VectorFallback(f"{type(exc).__name__}: {exc}") from exc
        results = []
        for lane in range(batch):
            results.append(
                RunResult(
                    value=self._lane_value(value, lane),
                    metrics=(
                        metrics.lane(lane)
                        if metrics is not None
                        else MetricsCollector()
                    ),
                    steps=int(self._steps[lane]),
                )
            )
        if recorder is not None:
            for lane, listener in enumerate(lane_listeners):
                if listener is not None and type(listener) is not NullListener:
                    recorder.replay(lane, listener)
        return results

    def _run_scalar(
        self, args_list, entry, lane_runtimes, lane_listeners, collect_errors
    ):
        runtimes = (
            list(lane_runtimes)
            if lane_runtimes
            else [self.runtime] * len(args_list)
        )
        out = []
        for lane, args in enumerate(args_list):
            listener = lane_listeners[lane] if lane_listeners else None
            engine = Interpreter(
                self.program,
                runtime=runtimes[lane],
                config=self.config,
                listener=listener,
            )
            try:
                out.append(engine.run(args, entry=entry))
            except Exception as exc:
                if not collect_errors:
                    raise
                out.append(exc)
        return out

    # -- per-lane value plumbing ---------------------------------------

    def _batch_value(self, column):
        first = column[0]
        if all(type(v) is type(first) and v == first for v in column):
            return first  # uniform: keep the exact Python object
        vec = np.empty(len(column))
        for lane, v in enumerate(column):
            vec[lane] = _uniform_float(v)  # non-numeric/inexact -> fallback
        return vec

    @staticmethod
    def _lane_value(value, lane: int):
        if _is_vec(value):
            return float(value[lane])
        if isinstance(value, BatchedArray):
            return value.lane(lane)
        if type(value) is PartialCell:
            _bail("partially defined return value")
        return value

    # -- frame access --------------------------------------------------

    def _read(self, frame: _Frame, name: str, idx):
        value = frame.vars.get(name, _UNDEF)
        if value is _UNDEF:
            _bail(f"undefined variable {name!r}")  # scalar raises
        if type(value) is _UniformOverlay:
            if idx is value.idx:
                return value.value  # exact Python object, no vector
            value = self._flush_overlay(frame, name, value)
        if type(value) is PartialCell:
            mask = value.mask if idx is None else value.mask[idx]
            if not mask.all():
                _bail(f"variable {name!r} undefined on some lanes")
            return value.vec if idx is None else value.vec[idx]
        if idx is not None and _is_vec(value):
            return value[idx]  # compress to the active lane set
        return value

    def _assign(self, frame: _Frame, name: str, value, idx) -> None:
        lanes = frame.lanes
        if idx is None:
            frame.vars[name] = value
            return
        if lanes is idx or (
            lanes is not None and len(idx) == len(lanes)
        ) or (lanes is None and len(idx) == self._batch):
            # Full-cover write: widen the compressed value to full width
            # (frame slots are always full-width).
            frame.vars[name] = self._widen(value, idx)
            return
        # Partial (divergent) write.
        old = frame.vars.get(name, _UNDEF)
        if type(old) is _UniformOverlay:
            if idx is old.idx:
                if not _is_vec(value):
                    old.value = value  # same region: overwrite in place
                    return
                old = old.backing  # same region overwritten wholesale
            else:
                old = self._flush_overlay(frame, name, old)
        if not _is_vec(value):
            # Defer vector materialization: the common case (a loop
            # variable or body temporary rewritten every iteration on
            # the same active set) never needs it.
            frame.vars[name] = _UniformOverlay(value, idx, old)
            return
        frame.vars[name] = self._vec_partial(old, value, idx, lanes, name)

    def _flush_overlay(self, frame: _Frame, name: str, cell):
        """Materialize a uniform overlay into vector form."""
        flushed = self._vec_partial(
            cell.backing,
            _uniform_float(cell.value),
            cell.idx,
            frame.lanes,
            name,
        )
        frame.vars[name] = flushed
        return flushed

    def _vec_partial(self, old, vals, idx, lanes, name: str):
        """Copy-on-write partial vector write (frame slots share vector
        objects by reference — like scalar ``Array`` refs — so mutating
        in place would leak into aliases)."""
        if type(old) is PartialCell:
            vec = old.vec.copy()
            mask = old.mask.copy()
        elif old is _UNDEF:
            vec = np.empty(self._batch)
            mask = np.zeros(self._batch, dtype=bool)
        elif _is_vec(old):
            vec = old.copy()
            mask = np.ones(self._batch, dtype=bool)
        elif isinstance(old, (bool, int, float)):
            vec = np.full(self._batch, _uniform_float(old))
            mask = np.ones(self._batch, dtype=bool)
        else:
            _bail(f"divergent write over non-numeric slot {name!r}")
        vec[idx] = vals
        mask[idx] = True
        covered = mask.all() if lanes is None else mask[lanes].all()
        return vec if covered else PartialCell(vec, mask)

    def _widen(self, value, idx):
        """Full-width image of a context-compressed value."""
        if idx is None or not _is_vec(value):
            return value
        out = np.empty(self._batch)
        out[idx] = value
        return out

    # -- metering ------------------------------------------------------

    def _step(self, idx) -> None:
        steps = self._steps
        if idx is None:
            steps += 1
        else:
            steps[idx] += 1
        self._hi += 1
        if self._hi > self.config.step_limit:
            real = int(steps.max())
            if real > self.config.step_limit:
                _bail("step limit exceeded")  # scalar raises per lane
            self._hi = real

    def _charge(self, kind, amount, idx) -> None:
        for hook in self._on_cost_hooks:
            hook(kind, amount, idx)

    def _charge_stmt(self, idx) -> None:
        for hook in self._on_cost_hooks:
            hook(CostKind.COMPUTE, self.config.stmt_cost, idx)

    def _enter(self, function: str, idx) -> None:
        for hook in self._on_enter_hooks:
            hook(function, idx)

    def _exit(self, function: str, idx) -> None:
        for hook in self._on_exit_hooks:
            hook(function, idx)

    def _iters(self, function: str, loop_id: int, count, idx) -> None:
        for hook in self._on_iters_hooks:
            hook(function, loop_id, count, idx)

    def _agg(self, callee: str, count, uc: float, um: float, idx) -> None:
        for hook in self._on_agg_hooks:
            hook(callee, count, uc, um, idx)

    # -- functions and library calls -----------------------------------

    def _vec_fn(self, name: str) -> _VecFunction:
        fn = self._fns.get(name)
        if fn is None:
            fn = self._fns[name] = _VecFunction(
                self, self.program.function(name)
            )
        return fn

    def _call_library(self, name: str, args, idx):
        """Call every active lane's runtime, in lane order, then emit one
        enter/cost.../exit group per distinct cost-kind sequence: each
        lane still sees its own call's events in the tree-walker's order.
        """
        base = idx if idx is not None else self._all
        lanes = base.tolist()
        runtimes = self._runtimes
        if not all(runtimes[lane].handles(name) for lane in lanes):
            _bail(f"library function {name!r} not handled on all lanes")
        columns = []
        for arg in args:
            if _is_vec(arg):
                columns.append(arg.tolist())
            elif isinstance(arg, (BatchedArray, PartialCell)):
                _bail("array/partial value passed to library call")
            else:
                columns.append([arg] * len(lanes))  # the exact object
        rows = zip(*columns) if columns else [()] * len(lanes)
        results = [
            runtimes[lane].call(name, list(row))
            for lane, row in zip(lanes, rows)
        ]
        groups: dict[tuple, list[int]] = {}
        for pos, result in enumerate(results):
            groups.setdefault(tuple(result.costs), []).append(pos)
        for kinds, members in groups.items():
            sel = idx if len(groups) == 1 else base[members]
            self._enter(name, sel)
            for kind in kinds:
                amounts = [float(results[pos].costs[kind]) for pos in members]
                self._charge(kind, np.array(amounts), sel)
            self._exit(name, sel)
        values = [result.value for result in results]
        first = values[0]
        if all(v is None for v in values):
            return None
        if isinstance(first, Array):
            _bail(f"library call {name!r} returned an array")
        if all(type(v) is type(first) and v == first for v in values):
            return first  # uniform
        vec = np.empty(len(lanes))
        for k, v in enumerate(values):
            vec[k] = _uniform_float(v)
        return vec

    # -- guarded vector arithmetic -------------------------------------

    @staticmethod
    def _guard_exact(res):
        # max-abs catches non-finite too: NaN fails the comparison, inf
        # exceeds the bound
        if not np.abs(res).max() < _EXACT:
            _bail("vector result outside exact float64 range")
        return res

    def _vec_add(self, left, right):
        lc = left if _is_vec(left) else _uniform_float(left)
        rc = right if _is_vec(right) else _uniform_float(right)
        return self._guard_exact(lc + rc)

    def _vec_binop(self, op, left, right):
        lc = left if _is_vec(left) else _uniform_float(left)
        rc = right if _is_vec(right) else _uniform_float(right)
        if op == "+":
            return self._guard_exact(lc + rc)
        if op == "-":
            return self._guard_exact(lc - rc)
        if op == "*":
            return self._guard_exact(lc * rc)
        if op == "/":
            if np.any(rc == 0):
                _bail("zero divisor")  # scalar raises ZeroDivisionError
            res = lc / rc
            if not np.isfinite(res).all():
                _bail("non-finite quotient")
            return res
        if op == "//":
            if np.any(rc == 0):
                _bail("zero divisor")
            return self._guard_exact(np.floor_divide(lc, rc))
        if op == "%":
            if np.any(rc == 0):
                _bail("zero divisor")
            return self._guard_exact(np.mod(lc, rc))
        if op == "min":
            return np.minimum(lc, rc)
        if op == "max":
            return np.maximum(lc, rc)
        if op in ("<", "<=", ">", ">=", "==", "!="):
            if op == "<":
                res = lc < rc
            elif op == "<=":
                res = lc <= rc
            elif op == ">":
                res = lc > rc
            elif op == ">=":
                res = lc >= rc
            elif op == "==":
                res = lc == rc
            else:
                res = lc != rc
            # immediately leave numpy-bool land: True + True must be 2,
            # not True, downstream
            return res.astype(np.float64)
        if op == "**":
            return self._vec_pow(lc, rc)
        _bail(f"unknown vector operator {op!r}")

    def _vec_pow(self, lc, rc):
        n = len(lc) if _is_vec(lc) else len(rc)
        out = np.empty(n)
        for k in range(n):
            lv = float(lc[k]) if _is_vec(lc) else lc
            rv = float(rc[k]) if _is_vec(rc) else rc
            v = lv**rv  # ValueError/OverflowError -> fallback
            if not math.isfinite(v) or abs(v) >= _EXACT:
                _bail("pow outside exact float64 range")
            # When both operands are integral the scalar engine may have
            # computed an exact big-int pow; verify float pow agrees.
            if float(lv).is_integer() and float(rv).is_integer():
                ri = int(rv)
                if ri >= 0 and int(lv) ** ri != v:
                    _bail("inexact integral pow")
            out[k] = v
        return out

    # -- fast-path plans ------------------------------------------------

    def _plan_uniform(self, plan: LoopPlan, tbl, frame: _Frame, idx):
        """Run pure-cost nest *plan* once for every active lane, through
        the scalar planner, when every operand it reads (bounds at every
        level it enters, intrinsic arguments) is uniform.

        Applies the result as ``Interpreter._apply_closed_form`` does,
        with every event on *idx*, and returns True; returns None when
        the plan is invalid (the caller runs the loop genuinely), and
        :data:`_LANE_VECTOR`, with nothing emitted, at the first operand
        that differs by lane (the caller takes the vector mirror)."""

        def evaluate(expr):
            value = tbl[id(expr)](frame, idx)
            if _is_vec(value):
                raise _LaneVector
            return value

        try:
            result = self._planner.execute(plan, evaluate)
        except _LaneVector:
            return _LANE_VECTOR
        if result is None:
            return None
        charge_result(
            result,
            lambda kind, amount: self._charge(kind, amount, idx),
            lambda fn, loop_id, iters: self._iters(fn, loop_id, iters, idx),
            lambda callee, count, uc, um: self._agg(callee, count, uc, um, idx),
        )
        for name, value in result.scalars.items():
            self._assign(frame, name, value, idx)
        loop = plan.loop
        trips = result.loop_iterations.get((plan.function, loop.loop_id), 0)
        start = evaluate(loop.start)
        if trips:
            start = start + trips * evaluate(loop.step)
        self._assign(frame, loop.var, start, idx)
        return True

    def _plan_exec(self, plan: LoopPlan, tbl, frame: _Frame, idx):
        """Vector mirror of ``FastPathPlanner.execute`` + the
        tree-walker's plan-result application.

        Returns the per-lane validity mask over the context lanes (all
        emission for valid lanes is done here), or None when bound
        conversion failed uniformly (caller runs the genuine loop)."""
        n = self._batch if idx is None else len(idx)
        acc = _PlanAcc(n)
        valid = np.ones(n, dtype=bool)
        ok = self._plan_into(
            plan, tbl, frame, idx, acc, np.ones(n), valid
        )
        if ok is None and not valid.any():
            return None
        lanes = idx if idx is not None else self._all
        summaries = (
            self._plan_summaries(plan, *acc.counting, frame, idx, lanes, valid)
            if acc.counting is not None
            else {}
        )
        if not valid.any():
            return valid
        # Emission order mirrors the scalar plan application exactly:
        # compute charge, memory charge, loop iterations, aggregate
        # calls, loop-variable assignment — each only where nonzero.
        emit = valid & (acc.compute != 0)
        if emit.any():
            if emit.all():
                self._charge(CostKind.COMPUTE, acc.compute, idx)
            else:
                self._charge(
                    CostKind.COMPUTE, acc.compute[emit], lanes[emit]
                )
        emit = valid & (acc.memory != 0)
        if emit.any():
            if emit.all():
                self._charge(CostKind.MEMORY, acc.memory, idx)
            else:
                self._charge(CostKind.MEMORY, acc.memory[emit], lanes[emit])
        for (fn_name, loop_id), counts in acc.iters.items():
            emit = valid & (counts > 0)
            if emit.any():
                if emit.all():
                    self._iters(
                        fn_name, loop_id, counts.astype(np.int64), idx
                    )
                else:
                    self._iters(
                        fn_name,
                        loop_id,
                        counts[emit].astype(np.int64),
                        lanes[emit],
                    )
        for callee, (counts, unit) in acc.calls.items():
            emit = valid & (counts > 0)
            if emit.any():
                if emit.all():
                    self._agg(
                        callee,
                        counts.astype(np.int64),
                        unit.compute,
                        unit.memory,
                        idx,
                    )
                else:
                    self._agg(
                        callee,
                        counts[emit].astype(np.int64),
                        unit.compute,
                        unit.memory,
                        lanes[emit],
                    )
        self._apply_summaries(summaries, frame, idx, lanes, n)
        # Loop variables, root then nested in execution order, on the
        # lanes that entered each loop: start + trips * step.
        for name, start_v, step_v, trips, entered in acc.vars:
            mask = valid & entered
            if mask.any():
                self._assign_loop_var(
                    frame, name, start_v, step_v, trips, mask, idx, lanes
                )
        return valid

    def _assign_loop_var(
        self, frame, var, start_v, step_v, trips, mask, idx, lanes
    ) -> None:
        sel = idx if mask.all() else lanes[mask]
        counts = trips[mask]
        if (
            not _is_vec(start_v)
            and not _is_vec(step_v)
            and (counts == counts[0]).all()
        ):
            t = int(counts[0])
            # exact Python arithmetic; just start when no trip ran
            self._assign(frame, var, start_v + t * step_v if t else start_v, sel)
            return
        sc = start_v if _is_vec(start_v) else _uniform_float(start_v)
        pc = step_v if _is_vec(step_v) else _uniform_float(step_v)
        self._assign(frame, var, self._guard_exact((sc + trips * pc)[mask]), sel)

    def _plan_summaries(
        self, plan, start, step, trips, frame: _Frame, idx, lanes, valid
    ):
        """Per-lane :func:`~repro.interp.fastpath.summarize` of a counting
        loop (the one shared summary, lane by lane); lanes whose checks
        fail leave *valid* and run genuinely.  Returns position ->
        (array updates, temporaries' finals)."""
        columns: dict[str, object] = {}
        for name in plan.refs:
            value = columns[name] = self._read(frame, name, idx)
            if isinstance(value, Array):
                # A caller's array: summarising would write it before a
                # later bail reruns the lanes on it (store/load bail too).
                _bail(f"counter in non-batched array {name!r}")
        out = {}
        for pos in np.flatnonzero(valid & (trips > 0)).tolist():
            lane = int(lanes[pos])
            views: dict[int, Array] = {}

            def lookup(name: str):
                value = columns[name]
                if isinstance(value, BatchedArray):
                    view = views.get(id(value))
                    if view is None:
                        view = views[id(value)] = value.row(lane)
                    return view
                return _lane_scalar(value, pos)

            summary = summarize(
                plan,
                _lane_scalar(start, pos),
                _lane_scalar(step, pos),
                int(trips[pos]),
                lookup,
            )
            if summary is None:
                valid[pos] = False
            else:
                out[pos] = summary
        return out

    def _apply_summaries(self, summaries, frame: _Frame, idx, lanes, n):
        """Write per-lane summaries: array rows in place, then each scalar
        output on the lanes that set it (uniform where lanes agree)."""
        outputs: dict[str, list] = {}
        for pos, (arrays, scalars) in summaries.items():
            apply_array_updates(arrays)
            for name, value in scalars.items():
                outputs.setdefault(name, []).append((pos, value))
        for name, entries in outputs.items():
            value = self._batch_value([v for _, v in entries])
            if len(entries) == n:
                self._assign(frame, name, value, idx)
            else:
                self._assign(
                    frame, name, value, lanes[[pos for pos, _ in entries]]
                )

    def _plan_into(
        self, plan: LoopPlan, tbl, frame, idx, acc: _PlanAcc, multiplier,
        valid,
    ):
        """Accumulate one nest level; mirrors ``_execute_into`` per lane.

        Lanes with ``multiplier == 0`` never reach this level in the
        scalar engine and stay valid/uncharged regardless of this
        level's bounds."""
        cfg = self.config
        loop = plan.loop
        live = multiplier > 0
        try:
            start_v = tbl[id(loop.start)](frame, idx)
            stop_v = tbl[id(loop.stop)](frame, idx)
            step_v = tbl[id(loop.step)](frame, idx)
            start = _plan_val(start_v)
            stop = _plan_val(stop_v)
            step = _plan_val(step_v)
        except VectorFallback:
            raise
        except EVAL_ERRORS:
            # scalar: evaluation or float() failed -> plan invalid (live
            # lanes only)
            valid &= ~live
            return None
        n = len(multiplier)
        # the scalar planner's rule, lane by lane: lanes whose closed form
        # would not be exact run genuinely
        trip, ok = trip_counts(start, stop, step)
        if trip.ndim == 0:  # every bound of this level uniform
            trip = np.full(n, trip)
        valid &= ok | ~live
        live = live & ok
        if not live.any():
            return True
        acc.vars.append((loop.var, start_v, step_v, trip, live))
        total = trip * multiplier
        checked = total[live]
        if not np.isfinite(checked).all() or (checked >= _EXACT).any():
            _bail("trip count outside exact float64 range")
        active = live & (total > 0)
        if active.any():
            if plan.counters:  # the root: multiplier is 1 on live lanes
                acc.counting = (start_v, step_v, np.where(active, trip, 0.0))
            key = (plan.function, loop.loop_id)
            counts = acc.iters.get(key)
            if counts is None:
                counts = acc.iters[key] = np.zeros(n)
            counts += np.where(active, total, 0.0)
            per_compute = np.full(
                n, cfg.loop_iter_cost + plan.stmt_count * cfg.stmt_cost
            )
            per_memory = np.zeros(n)
            for iname, iarg in plan.intrinsics:
                try:
                    amount = _plan_val(tbl[id(iarg)](frame, idx))
                except VectorFallback:
                    raise
                except EVAL_ERRORS:
                    valid &= ~active
                    return None
                # scalar: a negative amount runs genuinely (and raises)
                if _is_vec(amount):
                    valid &= ~(active & (amount < 0))
                elif amount < 0:
                    valid &= ~active
                if iname == "work":
                    per_compute = per_compute + amount
                else:
                    per_memory = per_memory + amount
            for callee, unit in plan.calls:
                per_compute = per_compute + cfg.call_cost
                entry = acc.calls.get(callee)
                if entry is None:
                    entry = acc.calls[callee] = [np.zeros(n), unit]
                entry[0] += np.where(active, total, 0.0)
            acc.compute += np.where(active, total * per_compute, 0.0)
            acc.memory += np.where(active, total * per_memory, 0.0)
        sub_mult = np.where(active, total, 0.0)
        for sub in plan.nested:
            self._plan_into(sub, tbl, frame, idx, acc, sub_mult, valid)
        return True


# ----------------------------------------------------------------------
# lane identity (dedup support for the measurement layer)

#: Entry-argument types whose repr is a complete value identity.  An
#: ``Array`` (or any other object) may alias or mutate, so lanes holding
#: one never dedup.
_SIGNATURE_TYPES = (bool, int, float, str)


def lane_signature(args, runtime=None) -> "str | None":
    """Stable identity of one batch lane, or ``None`` when unprovable.

    Two lanes with equal signatures are guaranteed to execute
    identically: engine runs are deterministic functions of the entry
    arguments and the library runtime, so equal inputs yield bit-equal
    :class:`~repro.interp.metrics.RunResult`/profile outcomes.  The
    runtime participates the same way it does in the run-cache
    fingerprint (``repr`` of its ``config``); a runtime type carrying
    state outside a ``config`` attribute cannot prove identity and
    disables dedup for its lane (``None``), as does any non-scalar
    entry argument.
    """
    parts: list[str] = []
    items = (
        sorted(args.items()) if hasattr(args, "items") else enumerate(args)
    )
    for name, value in items:
        if value is not None and type(value) not in _SIGNATURE_TYPES:
            return None
        parts.append(f"{name}={type(value).__name__}:{value!r}")
    if runtime is None:
        rt = "none"
    elif hasattr(runtime, "config"):
        rt = f"{type(runtime).__name__}:{runtime.config!r}"
    elif type(runtime) is NoLibraryRuntime:
        rt = "NoLibraryRuntime"
    else:
        return None  # stateful runtime without a declared config
    return f"args({', '.join(parts)}) runtime({rt})"
