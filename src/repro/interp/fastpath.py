"""Closed-form execution of counted loop nests.

Interpreting a LULESH-sized element loop (``size**3`` iterations, dozens of
kernels, hundreds of measurement configurations) statement-by-statement in
Python would dominate the whole reproduction.  Following the optimization
guidance for numerical Python (vectorize the hot loop; compute aggregates in
closed form), the metered engines recognize counted loop nests whose effect
can be summarised and execute them in closed form.  A summary is the
per-iteration cost, plus per-slot integer deltas of counter arrays, plus the
final values of index temporaries; a pure-cost nest is the summary with no
deltas.

A counted ``For`` loop qualifies when its bounds and step are invariant
within the nest and its body consists solely of

* cost intrinsics (``work``/``mem_work``) with nest-invariant arguments,
* calls to *leaf constant-cost* functions (no loops, branches, calls,
  stores or loads — the C++ getters/setters of the paper's LULESH
  discussion) with the callee's arity and arguments over the enclosing
  loop variables and numeric constants, where neither the arguments nor
  the callee can raise (:func:`_total`),
* nested ``For`` loops satisfying the same conditions, and, in the
  outermost loop only (a *counting loop*),
* **index temporaries** ``t = e``, where ``e`` combines the loop's own
  variable, nest-invariant names and integer constants with ``+ - * %``,
  and ``t`` is assigned once in the nest and read only as the index of
  counter updates, and
* **counter updates** ``a[t] = a[t] ± c`` (same index in the store and its
  load) with a non-zero integer constant ``c``, where the nest reads or
  writes ``a`` nowhere else.  A counting nest may hold no other ``Load``
  at all, so an aliased array cannot change a summarised value.

The paper's section 5.2 loop (LULESH ``SetupRegionSizes``,
``regElemSize[i % regions] += 1``) is the counting loop of the workloads.
A pure nest executes as ``trip_count × per-iteration cost`` with aggregated
call and loop-iteration events.  A counting loop additionally adds, per
array slot, ``c × (how often the index hits the slot)``, counted by one
``np.bincount`` over the index sequence.  All arithmetic is exact integer
arithmetic; runtime checks (integer-valued start, step, operands and
counter values, every slot inside the array, magnitudes below ``2**53``,
distinct arrays per counter name) send anything else to genuine iteration —
including an out-of-range index, which then raises the genuine path's typed
error after its partial updates.  So does a bound or cost amount that fails
to evaluate, and a negative amount: genuine iteration raises the error
where it happens, after the sinks and costs that precede it.  Scalar
counters ``x = x ± c`` and counters in nested loops run genuinely: no
workload has one.

:class:`FastPathPlanner` plans each loop once and computes every summary
(:func:`trip_counts`, :func:`summarize`); the tree-walking and vectorized
engines only apply it, so they stay bit-identical to each other.  The
shadow engine (:class:`~repro.interp.shadowtree.ShadowInterpreter`)
applies pure-cost plans under an analysis domain too: a pure nest's loop
sinks are the same on every trip, so :func:`record_loop_sinks` records
each of them once, with its entry and iteration counts, and
:func:`genuine_steps` charges the steps genuine iteration would take.
Counting nests run genuinely there, because their stores carry control
labels into the shadow heap one slot at a time; the same engine with
``fast_loops`` off iterates every trip and is the reference the closed
form is checked against.  Equivalence of fast and slow paths is
property-tested in ``tests/interp/test_fastpath.py`` and, under the taint
domain, in ``tests/interp/test_engine_differential.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..errors import ReproError
from ..ir.expr import BinOp, Call, Const, Expr, Intrinsic, Load, UnOp, Var
from ..ir.program import Function, Program
from ..ir.stmt import Assign, ExprStmt, For, Return, Store
from .config import ExecConfig
from .events import CostKind
from .semantics import BINOP_FUNCS
from .values import Array, Value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .domain import AnalysisDomain

#: Magnitude from which float64 no longer holds every integer: summarised
#: values, loop variables and counts must stay below it.
EXACT_LIMIT = 2**53

#: Longest index sequence :func:`slot_counts` materializes; longer counting
#: loops run genuinely.
MAX_SEQUENCE = 1 << 20

#: Errors evaluating a bound or cost amount can raise.  The closed form
#: gives up on them, and genuine iteration raises them where they happen.
EVAL_ERRORS = (ReproError, ArithmeticError, TypeError, ValueError)

#: Operators of index expressions (exact on integers below ``2**53`` in
#: float64, with Python's floor semantics for ``%``).
_INDEX_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "%": np.mod,
}


@dataclass(frozen=True)
class LeafCost:
    """Constant per-call cost of a leaf function."""

    compute: float
    memory: float
    #: Statements one call executes (through its first ``Return``).
    steps: int = 0


def leaf_unit_cost(fn: Function, config: ExecConfig) -> LeafCost | None:
    """Constant per-call cost of *fn*, or None if *fn* is not a leaf.

    Leaf functions contain no loops, branches, calls, stores or loads, and
    any cost intrinsic is a statement of its own with a non-negative
    literal argument — i.e. every call costs the same regardless of
    arguments or program state.  Every other expression must be
    :func:`_total` over the parameters and the names assigned before it,
    so a call with numeric arguments cannot raise.  These are exactly the
    "simple constant functions, such as class getters and setters" the
    paper prunes (section A3).
    """
    compute = 0.0
    memory = 0.0
    steps = 0
    bound = set(fn.params)
    for stmt in fn.statements():
        if not isinstance(stmt, (Assign, ExprStmt, Return)):
            return None
        expr = stmt.expr if isinstance(stmt, ExprStmt) else stmt.value
        if isinstance(expr, Intrinsic) and expr.is_cost:
            amount = expr.args[0] if len(expr.args) == 1 else None
            if not (
                isinstance(stmt, ExprStmt)
                and isinstance(amount, Const)
                and _total(amount, ())
                and amount.value >= 0
            ):
                return None
            if expr.name == "work":
                compute += float(amount.value)
            else:
                memory += float(amount.value)
        elif expr is not None and not _total(expr, bound):
            return None
        if isinstance(stmt, Assign):
            bound.add(stmt.name)
        # Return is free in the interpreter's cost model; Assign/ExprStmt
        # charge stmt_cost (must match Interpreter._exec_stmt exactly).
        # Every statement is one step, and nothing after the first Return
        # runs.
        steps += 1
        if isinstance(stmt, Return):
            break
        compute += config.stmt_cost
    return LeafCost(compute, memory, steps)


@dataclass(frozen=True)
class CounterUpdate:
    """``name[index] = name[index] + delta``.  ``index`` has every
    temporary substituted, so it reads only the loop's variable,
    invariant names and constants."""

    name: str
    delta: int
    index: Expr


@dataclass
class LoopPlan:
    """Static shape of a fast-executable loop nest rooted at one ``For``."""

    loop: For
    function: str
    #: (intrinsic name, argument expression) for each cost statement.
    intrinsics: list[tuple[str, Expr]] = field(default_factory=list)
    #: (callee name, per-call LeafCost) for each leaf call statement.
    calls: list[tuple[str, LeafCost]] = field(default_factory=list)
    #: Nested fast sub-loops.
    nested: list["LoopPlan"] = field(default_factory=list)
    #: Number of body statements (for stmt_cost charging).
    stmt_count: int = 0
    #: Counting loop (outermost level only): (name, expression) of each
    #: index temporary, in body order.
    temps: list[tuple[str, Expr]] = field(default_factory=list)
    #: Counting loop: its counter updates.
    counters: list[CounterUpdate] = field(default_factory=list)
    #: Counting loop: every name its summary reads at run time (index
    #: operands and counter arrays), as a ``Var`` the engines evaluate.
    refs: dict[str, Var] = field(default_factory=dict)
    #: Root only: scalar names a result may assign (nested loop variables
    #: and temporaries).
    outputs: tuple[str, ...] = ()

    def levels(self):
        """This plan and every nested plan, outermost first."""
        yield self
        for sub in self.nested:
            yield from sub.levels()


#: Summarised array updates: (array, touched slots, delta per slot).
ArrayUpdates = list


@dataclass
class FastResult:
    """Aggregated outcome of executing a loop nest in closed form."""

    compute: float = 0.0
    memory: float = 0.0
    #: (function, loop_id) -> iterations
    loop_iterations: dict[tuple[str, int], int] = field(default_factory=dict)
    #: callee -> (count, unit LeafCost)
    calls: dict[str, tuple[int, LeafCost]] = field(default_factory=dict)
    #: Array counter updates, applied with :func:`apply_array_updates`.
    arrays: ArrayUpdates = field(default_factory=list)
    #: Final values of nested loop variables and index temporaries (the
    #: root's variable is the engines' to set).
    scalars: dict[str, Value] = field(default_factory=dict)
    #: (level, entries, trips) of every level the nest entered, outermost
    #: first; ``entries`` is the product of the enclosing levels' trips.
    levels: list[tuple["LoopPlan", int, int]] = field(default_factory=list)


class FastPathPlanner:
    """Builds and caches :class:`LoopPlan` objects for a program.

    Every engine of a process shares one planner per (program,
    configuration), kept on the program (:meth:`Program.derived`).  It
    holds the program's function table rather than the program, and
    plans are read-only once built, so threads share it too: two that
    race to plan one loop build it twice and both use the plan kept.
    """

    def __init__(self, program: Program, config: ExecConfig) -> None:
        self._functions = program.functions
        self._config = config
        self._leaf_cache: dict[str, LeafCost | None] = {}
        # (function name, loop_id) -> plan or None
        self._plan_cache: dict[tuple[str, int], LoopPlan | None] = {}

    # -- leaf costs ----------------------------------------------------------

    def leaf_cost(self, name: str) -> LeafCost | None:
        """Cached :func:`leaf_unit_cost` for program function *name*."""
        if name not in self._leaf_cache:
            fn = self._functions.get(name)
            self._leaf_cache[name] = (
                None if fn is None else leaf_unit_cost(fn, self._config)
            )
        return self._leaf_cache[name]

    # -- planning --------------------------------------------------------------

    def plan(self, fn_name: str, loop: For) -> LoopPlan | None:
        """Return a fast plan for *loop* in *fn_name*, or None if ineligible."""
        key = (fn_name, loop.loop_id)
        if key not in self._plan_cache:
            return self._plan_cache.setdefault(key, self._build(fn_name, loop))
        return self._plan_cache[key]

    def _build(self, fn_name: str, loop: For) -> LoopPlan | None:
        plan = self._build_rec(fn_name, loop, frozenset())
        if plan is None or not _check_nest(plan):
            return None
        return plan

    def _build_rec(
        self, fn_name: str, loop: For, enclosing: frozenset[str]
    ) -> LoopPlan | None:
        """Plan *loop* inside the nest levels whose variables are
        *enclosing* (none at the root)."""
        for bound in (loop.start, loop.stop, loop.step):
            if not _pure_arith(bound):
                return None
        root = not enclosing
        enclosing = enclosing | {loop.var}
        plan = LoopPlan(loop=loop, function=fn_name)
        temps: dict[str, Expr] = {}
        used: set[str] = set()
        for stmt in loop.body:
            if isinstance(stmt, For):
                sub = self._build_rec(fn_name, stmt, enclosing)
                if sub is None:
                    return None
                plan.nested.append(sub)
                continue
            plan.stmt_count += 1
            if isinstance(stmt, ExprStmt):
                expr = stmt.expr
                if isinstance(expr, Intrinsic) and expr.is_cost:
                    if len(expr.args) != 1 or not _pure_arith(expr.args[0]):
                        return None
                    plan.intrinsics.append((expr.name, expr.args[0]))
                    continue
                if isinstance(expr, Call):
                    # A call that genuine iteration could see fail (arity,
                    # an unbound or non-numeric argument) iterates.
                    unit = self.leaf_cost(expr.callee)
                    if unit is None or len(expr.args) != len(
                        self._functions[expr.callee].params
                    ):
                        return None
                    if not all(_total(a, enclosing) for a in expr.args):
                        return None
                    plan.calls.append((expr.callee, unit))
                    continue
                return None
            if not root:
                return None  # counting happens in the outermost loop only
            if (
                isinstance(stmt, Assign)
                and stmt.name not in temps
                and _index_expr(stmt.value)
            ):
                temps[stmt.name] = stmt.value
                plan.temps.append((stmt.name, stmt.value))
                continue
            if isinstance(stmt, Store):
                update = _array_update(stmt, temps, used)
                if update is None:
                    return None
                plan.counters.append(update)
                continue
            return None
        if used != set(temps):  # a temporary that indexes no counter
            return None
        return plan

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        plan: LoopPlan,
        eval_expr: Callable[[Expr], Value],
    ) -> FastResult | None:
        """Execute *plan* in closed form using *eval_expr* for bound/arg
        evaluation.  Returns None if runtime values make the plan invalid
        (see :func:`trip_counts`, non-numeric values, or a failed
        :func:`summarize` check)."""
        result = FastResult()
        root = self._execute_into(plan, eval_expr, result, 1)
        if root is None:
            return None
        start, step, trips = root
        if plan.counters and trips:
            summary = summarize(
                plan, start, step, trips, lambda name: eval_expr(plan.refs[name])
            )
            if summary is None:
                return None
            result.arrays, temps = summary
            result.scalars.update(temps)
        return result

    def _execute_into(
        self,
        plan: LoopPlan,
        eval_expr: Callable[[Expr], Value],
        result: FastResult,
        multiplier: int,
        nested: bool = False,
    ) -> tuple[Value, Value, int] | None:
        """Accumulate one level; returns its (start, step, trips) as
        evaluated, or None when the plan is invalid."""
        cfg = self._config
        loop = plan.loop
        try:
            start_v = eval_expr(loop.start)
            stop_v = eval_expr(loop.stop)
            step_v = eval_expr(loop.step)
            trip = trip_count(float(start_v), float(stop_v), float(step_v))
        except EVAL_ERRORS:
            return None
        if trip is None:
            return None
        result.levels.append((plan, multiplier, trip))
        if nested:
            # A nested loop leaves its variable at its final value (just
            # start when no trip ran), as the genuine last pass does.
            result.scalars[loop.var] = start_v + trip * step_v if trip else start_v
        total_trips = trip * multiplier
        if total_trips == 0:
            return start_v, step_v, trip
        key = (plan.function, loop.loop_id)
        result.loop_iterations[key] = (
            result.loop_iterations.get(key, 0) + total_trips
        )

        per_iter_compute = cfg.loop_iter_cost + plan.stmt_count * cfg.stmt_cost
        per_iter_memory = 0.0
        for name, arg in plan.intrinsics:
            try:
                amount = float(eval_expr(arg))
            except EVAL_ERRORS:
                return None
            if amount < 0:
                return None  # check_work_amount's error, raised genuinely
            if name == "work":
                per_iter_compute += amount
            else:
                per_iter_memory += amount
        for callee, unit in plan.calls:
            per_iter_compute += cfg.call_cost
            count, _ = result.calls.get(callee, (0, unit))
            result.calls[callee] = (count + total_trips, unit)

        result.compute += total_trips * per_iter_compute
        result.memory += total_trips * per_iter_memory

        for sub in plan.nested:
            if (
                self._execute_into(sub, eval_expr, result, total_trips, True)
                is None
            ):
                return None
        return start_v, step_v, trip


def trip_counts(
    start: np.ndarray, stop: np.ndarray, step: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Trips of the genuine loop ``var = start; while var < stop: ...;
    var += step``, element by element of float64 arrays, and where that
    closed form is exact (trips are 0 elsewhere).

    Exact means: finite bounds, a positive integer-valued step, an
    integer-valued start, and magnitudes below ``2**53``, so every value
    the genuine loop variable takes is exact; and ``ceil((stop - start)
    / step)`` equals the integer count ``-((start - ceil(stop)) // step)``.
    A fractional step (``0.1`` added ten times is not ``1.0``) or a
    non-finite bound therefore runs genuinely.  This is the one copy of
    the rule: the vectorized engine applies it to lane vectors and
    :func:`trip_count` to one loop.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        ok = (
            np.isfinite(start)
            & np.isfinite(stop)
            & np.isfinite(step)
            & (step > 0)
            & (start == np.floor(start))
            & (step == np.floor(step))
            & (np.abs(start) < EXACT_LIMIT)
            & (np.abs(stop - start) < EXACT_LIMIT)
        )
        trips = np.where(
            stop > start, np.maximum(0.0, np.ceil((stop - start) / step)), 0.0
        )
        ok &= trips == np.maximum(
            0.0, -np.floor_divide(start - np.ceil(stop), step)
        )
        ok &= np.abs(start + trips * step) < EXACT_LIMIT
    return np.where(ok, trips, 0.0), ok


@functools.lru_cache(maxsize=4096)
def trip_count(start: float, stop: float, step: float) -> int | None:
    """:func:`trip_counts` of one loop: its trips, or None unless exact.

    Cached: a loop runs with the same bounds over and over (per call of
    its function, per configuration), and a width-1 numpy evaluation
    costs a hundred times more than the lookup."""
    trips, ok = trip_counts(
        np.array([start]), np.array([stop]), np.array([step])
    )
    return int(trips[0]) if ok[0] else None


# ----------------------------------------------------------------------
# static eligibility


def _pure_arith(expr: Expr) -> bool:
    """True when *expr* contains no calls, cost intrinsics, or allocations
    (so evaluating it is free and side-effect free)."""
    for node in expr.walk():
        if isinstance(node, Call):
            return False
        if isinstance(node, Intrinsic) and (node.is_cost or node.name == "alloc"):
            return False
    return True


#: Binary operators that cannot raise on numbers.
_TOTAL_OPS = frozenset(
    {"+", "-", "*", "min", "max", "<", "<=", ">", ">=", "==", "!="}
)


def _total(expr: Expr, bound) -> bool:
    """True when evaluating *expr* cannot raise while every name in
    *bound* holds a number: numeric constants below ``2**53``, those
    names, :data:`_TOTAL_OPS`, unary operators and ``abs``."""
    if isinstance(expr, Const):
        value = expr.value
        return type(value) is float or (
            type(value) in (int, bool) and abs(value) < EXACT_LIMIT
        )
    if isinstance(expr, Var):
        return expr.name in bound
    if isinstance(expr, UnOp):
        return _total(expr.operand, bound)
    if isinstance(expr, BinOp):
        return (
            expr.op in _TOTAL_OPS
            and _total(expr.lhs, bound)
            and _total(expr.rhs, bound)
        )
    if isinstance(expr, Intrinsic) and expr.name == "abs":
        return len(expr.args) == 1 and _total(expr.args[0], bound)
    return False


def _index_expr(expr: Expr) -> bool:
    """Names and integer constants combined with ``+ - * %``.  Which
    names may appear is checked per nest (:func:`_check_nest`)."""
    if isinstance(expr, Var):
        return True
    if isinstance(expr, Const):
        return type(expr.value) is int
    if isinstance(expr, BinOp) and expr.op in _INDEX_OPS:
        return _index_expr(expr.lhs) and _index_expr(expr.rhs)
    return False


def _array_update(
    stmt: Store, temps: dict[str, Expr], used: set[str]
) -> CounterUpdate | None:
    """The update of ``a[index] = a[index] + c`` / ``- c`` for an integer
    constant ``c`` other than zero (``x - 0`` would map ``-0.0`` to
    ``-0.0`` where ``x + 0`` gives ``0.0``), else None."""
    value = stmt.value
    if not (
        isinstance(value, BinOp)
        and value.op in ("+", "-")
        and value.lhs == Load(stmt.array, stmt.index)
        and isinstance(value.rhs, Const)
        and type(value.rhs.value) is int
        and value.rhs.value != 0
    ):
        return None
    delta = value.rhs.value if value.op == "+" else -value.rhs.value
    index = stmt.index
    if isinstance(index, Var) and index.name in temps:
        used.add(index.name)
        index = temps[index.name]
    elif not _index_expr(index):
        return None
    return CounterUpdate(stmt.array, delta, index)


def _check_nest(plan: LoopPlan) -> bool:
    """Nest-wide eligibility; fills the root's ``refs`` and ``outputs``.

    Bounds and cost arguments may not read any name the nest assigns
    (loop variables, temporaries) or counts in, so trip counts and
    per-iteration costs are nest-invariant.  Counter arrays appear nowhere
    but in their own updates, temporaries nowhere but (substituted) in
    counter indices, and an index reads no name the nest assigns except
    the counting loop's variable.
    """
    levels = list(plan.levels())
    loop_vars = {p.loop.var for p in levels}
    temps = {name for name, _ in plan.temps}
    arrays = {u.name for u in plan.counters}
    assigned = loop_vars | temps
    if temps & loop_vars or arrays & assigned or _rebinds(plan, frozenset()):
        return False  # a name with two roles, or a loop variable reused
    # Whatever the nest evaluates besides the counter updates themselves.
    other: list[Expr] = []
    for p in levels:
        other += [p.loop.start, p.loop.stop, p.loop.step]
        other += [arg for _, arg in p.intrinsics]
    if _free_vars(other) & (assigned | arrays):
        return False
    plan.outputs = tuple(dict.fromkeys(p.loop.var for p in levels[1:])) + tuple(
        name for name, _ in plan.temps
    )
    if not plan.counters:
        return True  # pure-cost nest
    # (Leaf-call arguments read only loop variables and load nothing.)
    if any(isinstance(n, Load) for e in other for n in e.walk()):
        return False
    if _free_vars(other) & (temps | arrays):
        return False
    operands = _free_vars(u.index for u in plan.counters) - {plan.loop.var}
    if operands & (assigned | arrays):
        return False
    plan.refs = {name: Var(name) for name in sorted(operands | arrays)}
    return True


def _free_vars(exprs) -> set[str]:
    names: set[str] = set()
    for expr in exprs:
        names |= expr.free_vars()
    return names


def _rebinds(plan: LoopPlan, enclosing: frozenset[str]) -> bool:
    """True when a nested loop reuses an enclosing loop's variable (the
    genuine inner loop would then move the outer one)."""
    if plan.loop.var in enclosing:
        return True
    inner = enclosing | {plan.loop.var}
    return any(_rebinds(sub, inner) for sub in plan.nested)


# ----------------------------------------------------------------------
# summaries


def _integral(value) -> bool:
    """An ``int`` or an integer-valued finite ``float`` (bools count as
    ints): decided by value, so float64 lanes decide like exact ints."""
    if isinstance(value, int):
        return True
    return isinstance(value, float) and value.is_integer()


def _sequence(expr: Expr, var: str, seq, values: dict):
    """*expr* evaluated in float64 with *var* bound to *seq* (an array) and
    every other name to ``values``; None on a zero divisor or a value not
    exactly representable (so float64 equals exact integer arithmetic)."""
    if isinstance(expr, Var):
        if expr.name == var:
            return seq
        out = float(values[expr.name])
    elif isinstance(expr, Const):
        out = float(expr.value)
    else:
        lhs = _sequence(expr.lhs, var, seq, values)
        rhs = _sequence(expr.rhs, var, seq, values)
        if lhs is None or rhs is None:
            return None
        if expr.op == "%" and np.any(rhs == 0):
            return None
        out = _INDEX_OPS[expr.op](lhs, rhs)
    if not np.all(np.abs(out) < EXACT_LIMIT):
        return None
    return out


def slot_counts(
    index: Expr, var: str, start, step, trips: int, values: dict, size: int
) -> np.ndarray | None:
    """How often ``a[index]`` hits each slot of a *size*-element array over
    *trips* iterations of loop variable *var* (``start``, ``start + step``,
    ...), as an int64 array from one ``np.bincount`` over the index
    sequence; None when the sequence is longer than :data:`MAX_SEQUENCE`,
    an index leaves ``[0, size)`` or is not exactly computable.  The caller
    guarantees integer-valued *start*, *step* and *values* with every
    loop-variable value below ``2**53``.
    """
    if trips > MAX_SEQUENCE:
        return None
    seq = float(start) + float(step) * np.arange(trips, dtype=np.float64)
    hits = _sequence(index, var, seq, values)
    if hits is None:
        return None
    hits = np.broadcast_to(hits, (trips,))
    if hits.min() < 0 or hits.max() >= size:
        return None
    return np.bincount(hits.astype(np.int64), minlength=size)


def _value_at(expr: Expr, var: str, value, values: dict) -> Value:
    """*expr* with Python semantics, *var* bound to *value* — exactly what
    the genuine path computes for a temporary on that iteration."""
    if isinstance(expr, Var):
        return value if expr.name == var else values[expr.name]
    if isinstance(expr, Const):
        return expr.value
    return BINOP_FUNCS[expr.op](
        _value_at(expr.lhs, var, value, values),
        _value_at(expr.rhs, var, value, values),
    )


def summarize(
    plan: LoopPlan, start, step, trips: int, lookup: Callable[[str], Value]
) -> tuple[ArrayUpdates, dict[str, Value]] | None:
    """State effects of one closed-form execution of counting loop *plan*.

    *start*, *step* and *trips* (> 0) are as the engine evaluated them and
    :func:`trip_counts` vetted them; *lookup* resolves a name of the
    plan's ``refs`` to its current value.  Returns the array updates and
    the final values of the temporaries, or None when a runtime check
    fails and the loop must run genuinely.  This is the one place
    summaries are computed: every engine calls it (the vectorized one once
    per lane) and only applies the result.
    """
    var = plan.loop.var
    try:
        values = {name: lookup(name) for name in plan.refs}
    except ReproError:
        return None  # an undefined name: the genuine path raises it
    # trip_counts vetted start and step; the index sequence start + k*step
    # must be exact too.
    if abs(trips * step) >= EXACT_LIMIT:
        return None
    counters = {u.name for u in plan.counters}
    if not all(_integral(v) for n, v in values.items() if n not in counters):
        return None
    counts: dict[str, list] = {}  # name -> [array, abs counts, deltas]
    try:
        for update in plan.counters:
            array = values[update.name]
            if not isinstance(array, Array):
                return None
            hits = slot_counts(
                update.index, var, start, step, trips, values, len(array)
            )
            if hits is None or abs(update.delta) * int(hits.max()) >= EXACT_LIMIT:
                return None
            entry = counts.setdefault(
                update.name,
                [array, np.zeros(len(array), np.int64),
                 np.zeros(len(array), np.int64)],
            )
            entry[1] += hits * abs(update.delta)
            entry[2] += hits * update.delta
        last = start if trips == 1 else start + (trips - 1) * step
        temps = {
            name: _value_at(expr, var, last, values) for name, expr in plan.temps
        }
    except ArithmeticError:
        return None  # an int too large for float64: left to the genuine path

    if len({id(entry[0]) for entry in counts.values()}) != len(counts):
        return None  # two counter names alias one array
    updates: ArrayUpdates = []
    for array, touched, deltas in counts.values():
        slots = np.flatnonzero(touched)
        old = np.array([array.data[s] for s in slots], dtype=np.float64)
        if not (
            np.isfinite(old).all()
            and (old == np.floor(old)).all()
            and (np.abs(old) + touched[slots] < EXACT_LIMIT).all()
        ):
            return None
        updates.append((array, slots, deltas[slots]))
    return updates, temps


def charge_result(result: FastResult, charge, on_iters, on_aggregate) -> None:
    """Feed the costs, loop iterations and aggregated leaf calls of
    *result* to an engine's event sinks."""
    if result.compute:
        charge(CostKind.COMPUTE, result.compute)
    if result.memory:
        charge(CostKind.MEMORY, result.memory)
    for (fn, loop_id), iters in result.loop_iterations.items():
        on_iters(fn, loop_id, iters)
    for callee, (count, unit) in result.calls.items():
        on_aggregate(callee, count, unit.compute, unit.memory)


def genuine_steps(result: FastResult) -> int:
    """Interpreter steps genuine iteration takes for the nest *result*
    summarises, less the root ``For`` statement's own step: per entry of a
    level its ``For`` statement, per trip the iteration and each body
    statement, and per leaf call the statements the callee executes.  A
    shadow engine charges these, so its step budget runs out exactly where
    genuine iteration's would."""
    steps = -1
    for level, entries, trips in result.levels:
        steps += entries * (1 + trips * (1 + level.stmt_count))
    for count, unit in result.calls.values():
        steps += count * unit.steps
    return steps


def record_loop_sinks(
    plan: LoopPlan,
    result: FastResult,
    domain: "AnalysisDomain",
    callpath: tuple[str, ...],
    shadow_of: Callable[[Expr], object],
) -> dict[str, object]:
    """Record into *domain* the loop sinks of one closed-form execution of
    pure-cost nest *plan*, as genuine iteration would, and return the
    shadow of each entered level's loop variable.

    A pure nest's bounds are nest-invariant and its body assigns nothing
    but the nested loop variables, so each level's sink is the same on
    every entry: the join of its bounds' shadows (*shadow_of* evaluates
    one bound), plus, when a trip ran, its loop variable's shadow.  The
    variable reads nothing loop-carried, so its control shadow comes from
    :meth:`~repro.interp.domain.AnalysisDomain.with_control` with no reads,
    i.e. from the regions enclosing the nest alone.  That is sound for a
    domain whose loop regions label only values that read the loop's
    assigned names, as the taint domain's do; a domain whose sinks need
    each trip separately must run with ``ExecConfig.fast_loops`` off.

    Each level is recorded once with ``entries`` the product of the
    enclosing trips and ``iterations`` ``entries × trips``; children
    before parents, the order in which genuine iteration first reaches
    each sink.  Every leaf the nest called enters the domain's executed
    set.
    """
    entered = {id(level): (n, trips) for level, n, trips in result.levels}
    var_shadows: dict[str, object] = {}
    _record_level(plan, entered, domain, callpath, shadow_of, var_shadows)
    for callee in result.calls:
        domain.on_function_entered(callee)
    return var_shadows


def _record_level(level, entered, domain, callpath, shadow_of, var_shadows):
    """:func:`record_loop_sinks` of one entered level and its subtree."""
    entries, trips = entered[id(level)]
    loop = level.loop
    start = shadow_of(loop.start)
    step = shadow_of(loop.step)
    var = domain.with_control(domain.join(start, step))
    var_shadows[loop.var] = var
    sink = domain.join_all((start, shadow_of(loop.stop), step))
    if trips:
        sink = domain.join(sink, var)
        for sub in level.nested:
            _record_level(
                sub, entered, domain, callpath, shadow_of, var_shadows
            )
    domain.on_loop(
        callpath,
        level.function,
        loop.loop_id,
        sink,
        entries * trips,
        entries,
    )


def apply_array_updates(updates: ArrayUpdates) -> None:
    """Write summarised array updates: every touched slot takes the
    genuine ``Store``'s ``float(old + delta)`` (a net delta of zero still
    turns ``-0.0`` into ``0.0``, as the genuine adds do)."""
    for array, slots, deltas in updates:
        data = array.data
        for slot, delta in zip(slots.tolist(), deltas.tolist()):
            data[slot] = float(data[slot] + delta)
