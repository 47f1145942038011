"""Tree-walking interpreter with discrete cost metering.

The interpreter executes finalized :class:`~repro.ir.program.Program`
objects, charging simulated time for every executed operation (see
:class:`~repro.interp.config.ExecConfig`) and emitting
:class:`~repro.interp.events.ExecutionListener` events that the measurement
layer turns into profiles.  Library calls (``MPI_*``) resolve through a
:class:`~repro.interp.runtime.LibraryRuntime`.

Subclasses may override the ``_eval_*``/``_exec_*`` hooks; the
domain-parameterized :class:`~repro.interp.shadowtree.ShadowInterpreter`
extends this class with analysis-domain shadow state (taint being the
bundled shadow domain, see :mod:`repro.taint.domain`).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..errors import (
    ArityError,
    InterpreterError,
    UndefinedFunctionError,
    UndefinedVariableError,
)
from ..ir.expr import BinOp, Call, Const, Expr, Intrinsic, Load, UnOp, Var
from ..ir.program import Program
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
from .events import CostKind, ExecutionListener, NullListener
from .fastpath import (
    FastPathPlanner,
    FastResult,
    apply_array_updates,
    charge_result,
)
from .metrics import MetricsCollector, RunResult
from .runtime import LibraryRuntime, NoLibraryRuntime
from .semantics import (
    FLOW_BREAK,
    FLOW_CONTINUE,
    FLOW_NORMAL,
    FLOW_RETURN,
    MATH_INTRINSICS,
    alloc_array,
    apply_binop,
    apply_unop,
    bad_loop_step,
    call_depth_exceeded,
    check_work_amount,
    execute_library_call,
    require_array,
    resolve_entry_args,
    step_limit_exceeded,
)
from .values import Value, truthy

__all__ = [
    "FLOW_BREAK",
    "FLOW_CONTINUE",
    "FLOW_NORMAL",
    "FLOW_RETURN",
    "Interpreter",
]


class Interpreter:
    """Executes a program, metering simulated cost.

    Parameters
    ----------
    program:
        A finalized program.
    runtime:
        Resolver for library calls (default: none).
    config:
        Cost-model and limit configuration.
    listener:
        Execution event consumer (in addition to the built-in metrics
        collector).
    """

    def __init__(
        self,
        program: Program,
        runtime: LibraryRuntime | None = None,
        config: ExecConfig = DEFAULT_CONFIG,
        listener: ExecutionListener | None = None,
    ) -> None:
        self.program = program
        self.runtime: LibraryRuntime = runtime or NoLibraryRuntime()
        self.config = config
        self.listener: ExecutionListener = listener or NullListener()
        self.metrics = MetricsCollector()
        self._steps = 0
        self._depth = 0
        self._planner = program.derived(FastPathPlanner, config)
        # Current function name, for error messages and loop events.
        self._fn_stack: list[str] = []

    # ------------------------------------------------------------------
    # entry point

    def run(
        self,
        args: Mapping[str, Value] | Sequence[Value] = (),
        entry: str | None = None,
    ) -> RunResult:
        """Execute the entry function with *args* and return the result."""
        name, _fn, argvals = resolve_entry_args(self.program, args, entry)
        value = self._call_function(name, argvals)
        return RunResult(value=value, metrics=self.metrics, steps=self._steps)

    # ------------------------------------------------------------------
    # cost / step accounting

    def _charge(self, kind: CostKind, amount: float) -> None:
        self.metrics.on_cost(kind, amount)
        self.listener.on_cost(kind, amount)

    def _step(self) -> None:
        self._steps += 1
        if self._steps > self.config.step_limit:
            raise step_limit_exceeded(
                self.current_function, self.config.step_limit
            )

    @property
    def current_function(self) -> str:
        """Name of the innermost executing function."""
        return self._fn_stack[-1] if self._fn_stack else "<toplevel>"

    def _on_loop_iterations(self, fn: str, loop_id: int, iters: int) -> None:
        self.metrics.on_loop_iterations(fn, loop_id, iters)
        self.listener.on_loop_iterations(fn, loop_id, iters)

    def _on_aggregate_calls(
        self, callee: str, count: int, compute: float, memory: float
    ) -> None:
        self.metrics.on_aggregate_calls(callee, count, compute, memory)
        self.listener.on_aggregate_calls(callee, count, compute, memory)

    # ------------------------------------------------------------------
    # calls

    def _call_function(self, name: str, args: Sequence[Value]) -> Value:
        fn = self.program.function(name)
        if len(args) != len(fn.params):
            raise ArityError(name, len(fn.params), len(args))
        if self._depth >= self.config.max_call_depth:
            raise call_depth_exceeded(name, self.config.max_call_depth)
        env: dict[str, Value] = dict(zip(fn.params, args))
        self._depth += 1
        self._fn_stack.append(name)
        self.metrics.on_enter(name)
        self.listener.on_enter(name)
        try:
            flow, value = self._exec_block(fn.body, env)
            return value if flow == FLOW_RETURN else None
        finally:
            self.metrics.on_exit(name)
            self.listener.on_exit(name)
            self._fn_stack.pop()
            self._depth -= 1

    def _call_library(self, name: str, args: Sequence[Value]) -> Value:
        return execute_library_call(
            self.runtime, name, args, self.metrics, self.listener, self._charge
        )

    # ------------------------------------------------------------------
    # statements

    def _exec_block(
        self, body: Sequence[Stmt], env: dict[str, Value]
    ) -> tuple[int, Value]:
        for stmt in body:
            flow, value = self._exec_stmt(stmt, env)
            if flow != FLOW_NORMAL:
                return flow, value
        return FLOW_NORMAL, None

    def _exec_stmt(self, stmt: Stmt, env: dict[str, Value]) -> tuple[int, Value]:
        self._step()
        if isinstance(stmt, Assign):
            self._charge(CostKind.COMPUTE, self.config.stmt_cost)
            env[stmt.name] = self._eval(stmt.value, env)
            return FLOW_NORMAL, None
        if isinstance(stmt, ExprStmt):
            self._charge(CostKind.COMPUTE, self.config.stmt_cost)
            self._eval(stmt.expr, env)
            return FLOW_NORMAL, None
        if isinstance(stmt, Store):
            self._charge(CostKind.COMPUTE, self.config.stmt_cost)
            arr = require_array(
                self._lookup(stmt.array, env), stmt.array, self.current_function
            )
            idx = self._eval(stmt.index, env)
            val = self._eval(stmt.value, env)
            arr.store(int(idx), float(val))
            return FLOW_NORMAL, None
        if isinstance(stmt, Return):
            value = self._eval(stmt.value, env) if stmt.value is not None else None
            return FLOW_RETURN, value
        if isinstance(stmt, Break):
            return FLOW_BREAK, None
        if isinstance(stmt, Continue):
            return FLOW_CONTINUE, None
        if isinstance(stmt, If):
            return self._exec_if(stmt, env)
        if isinstance(stmt, For):
            return self._exec_for(stmt, env)
        if isinstance(stmt, While):
            return self._exec_while(stmt, env)
        raise InterpreterError(f"cannot execute {type(stmt).__name__}")

    def _exec_if(self, stmt: If, env: dict[str, Value]) -> tuple[int, Value]:
        cond = self._eval(stmt.cond, env)
        if truthy(cond):
            return self._exec_block(stmt.then_body, env)
        return self._exec_block(stmt.else_body, env)

    def _exec_for(self, stmt: For, env: dict[str, Value]) -> tuple[int, Value]:
        # Fast path: closed-form execution of pure-cost and counting nests.
        if self.config.fast_loops:
            plan = self._planner.plan(self.current_function, stmt)
            if plan is not None:
                result = self._planner.execute(
                    plan, lambda e: self._eval_pure(e, env)
                )
                if result is not None:
                    self._apply_closed_form(stmt, result, env)
                    return FLOW_NORMAL, None

        # Slow path: genuine iteration.  Loop bounds are evaluated once at
        # entry (language semantics; matches the fast path).
        start = self._eval(stmt.start, env)
        stop = self._eval(stmt.stop, env)
        step = self._eval(stmt.step, env)
        if not isinstance(step, (int, float)) or step <= 0:
            raise bad_loop_step(step, self.current_function)
        env[stmt.var] = start
        iters = 0
        flow: int = FLOW_NORMAL
        value: Value = None
        while env[stmt.var] < stop:
            self._step()
            self._charge(CostKind.COMPUTE, self.config.loop_iter_cost)
            iters += 1
            flow, value = self._exec_block(stmt.body, env)
            if flow == FLOW_BREAK:
                flow = FLOW_NORMAL
                break
            if flow == FLOW_RETURN:
                break
            env[stmt.var] = env[stmt.var] + step
        if iters:
            fn = self.current_function
            self._on_loop_iterations(fn, stmt.loop_id, iters)
        if flow == FLOW_RETURN:
            return flow, value
        return FLOW_NORMAL, None

    def _apply_closed_form(
        self, stmt: For, result: FastResult, env: dict[str, Value]
    ) -> None:
        """Apply the closed-form *result* of the nest rooted at *stmt*:
        its costs, loop iterations and leaf calls, its array updates and
        scalar outputs, and the loop variable's final value."""
        charge_result(
            result,
            self._charge,
            self._on_loop_iterations,
            self._on_aggregate_calls,
        )
        apply_array_updates(result.arrays)
        env.update(result.scalars)
        # Loop variable's final value: start + trips * step (just start
        # when no trip ran, as genuinely).
        trips = result.loop_iterations.get(
            (self.current_function, stmt.loop_id), 0
        )
        start = self._eval_pure(stmt.start, env)
        if trips:
            start = start + trips * self._eval_pure(stmt.step, env)
        env[stmt.var] = start

    def _exec_while(self, stmt: While, env: dict[str, Value]) -> tuple[int, Value]:
        iters = 0
        flow: int = FLOW_NORMAL
        value: Value = None
        while truthy(self._eval(stmt.cond, env)):
            self._step()
            self._charge(CostKind.COMPUTE, self.config.loop_iter_cost)
            iters += 1
            flow, value = self._exec_block(stmt.body, env)
            if flow == FLOW_BREAK:
                flow = FLOW_NORMAL
                break
            if flow == FLOW_RETURN:
                break
        if iters:
            fn = self.current_function
            self._on_loop_iterations(fn, stmt.loop_id, iters)
        if flow == FLOW_RETURN:
            return flow, value
        return FLOW_NORMAL, None

    # ------------------------------------------------------------------
    # expressions

    def _lookup(self, name: str, env: dict[str, Value]) -> Value:
        try:
            return env[name]
        except KeyError:
            raise UndefinedVariableError(name, self.current_function) from None

    def _eval(self, expr: Expr, env: dict[str, Value]) -> Value:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            return self._lookup(expr.name, env)
        if isinstance(expr, BinOp):
            return self._eval_binop(expr, env)
        if isinstance(expr, UnOp):
            return apply_unop(expr.op, self._eval(expr.operand, env))
        if isinstance(expr, Load):
            arr = require_array(
                self._lookup(expr.array, env), expr.array, self.current_function
            )
            return arr.load(int(self._eval(expr.index, env)))
        if isinstance(expr, Intrinsic):
            return self._eval_intrinsic(expr, env)
        if isinstance(expr, Call):
            args = [self._eval(a, env) for a in expr.args]
            self._charge(CostKind.COMPUTE, self.config.call_cost)
            if expr.callee in self.program:
                return self._call_function(expr.callee, args)
            if self.runtime.handles(expr.callee):
                return self._call_library(expr.callee, args)
            raise UndefinedFunctionError(expr.callee)
        raise InterpreterError(f"cannot evaluate {type(expr).__name__}")

    def _eval_binop(self, expr: BinOp, env: dict[str, Value]) -> Value:
        op = expr.op
        if op == "and":
            lhs = self._eval(expr.lhs, env)
            return self._eval(expr.rhs, env) if truthy(lhs) else lhs
        if op == "or":
            lhs = self._eval(expr.lhs, env)
            return lhs if truthy(lhs) else self._eval(expr.rhs, env)
        lhs = self._eval(expr.lhs, env)
        rhs = self._eval(expr.rhs, env)
        return apply_binop(op, lhs, rhs)

    def _eval_intrinsic(self, expr: Intrinsic, env: dict[str, Value]) -> Value:
        name = expr.name
        if name == "work" or name == "mem_work":
            amount = check_work_amount(float(self._eval(expr.args[0], env)))
            kind = CostKind.COMPUTE if name == "work" else CostKind.MEMORY
            self._charge(kind, amount)
            return amount
        if name == "alloc":
            arr, cost = alloc_array(self._eval(expr.args[0], env))
            self._charge(CostKind.MEMORY, cost)
            return arr
        arg = self._eval(expr.args[0], env)
        fn = MATH_INTRINSICS.get(name)
        if fn is None:
            raise InterpreterError(f"unknown intrinsic {name!r}")
        return fn(arg)

    def _eval_pure(self, expr: Expr, env: dict[str, Value]) -> Value:
        """Evaluate an expression known to be free of calls/cost intrinsics
        (fast-path bounds and arguments) without charging anything."""
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            return self._lookup(expr.name, env)
        if isinstance(expr, BinOp):
            if expr.op == "and":
                lhs = self._eval_pure(expr.lhs, env)
                return self._eval_pure(expr.rhs, env) if truthy(lhs) else lhs
            if expr.op == "or":
                lhs = self._eval_pure(expr.lhs, env)
                return lhs if truthy(lhs) else self._eval_pure(expr.rhs, env)
            return apply_binop(
                expr.op,
                self._eval_pure(expr.lhs, env),
                self._eval_pure(expr.rhs, env),
            )
        if isinstance(expr, UnOp):
            return apply_unop(expr.op, self._eval_pure(expr.operand, env))
        if isinstance(expr, Load):
            arr = require_array(
                self._lookup(expr.array, env), expr.array, self.current_function
            )
            return arr.load(int(self._eval_pure(expr.index, env)))
        if isinstance(expr, Intrinsic):
            fn = MATH_INTRINSICS.get(expr.name)
            if fn is not None:
                return fn(self._eval_pure(expr.args[0], env))
        raise InterpreterError(
            f"impure expression in pure context: {type(expr).__name__}"
        )
