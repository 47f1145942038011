"""Tree-walking shadow engine: the value semantics × an analysis domain.

``ShadowInterpreter`` executes a program exactly like the plain
:class:`~repro.interp.interpreter.Interpreter` (same costs, same step
accounting, same errors) while tracking one shadow per live value and
invoking the :class:`~repro.interp.domain.AnalysisDomain` hooks at fixed
program points — branch/loop sinks, control-region entry/exit, heap
stores, library calls.  It is the one shadow engine: taint runs execute
on it (see :class:`repro.taint.engine.TaintEngine`).

With ``ExecConfig.fast_loops`` set, a pure-cost loop nest that the
fast-path planner (:mod:`repro.interp.fastpath`) can summarise runs in
closed form: values and metrics exactly as on the concrete engines, each
loop sink recorded once per nest execution with its entry count
(:func:`~repro.interp.fastpath.record_loop_sinks`), and the steps genuine
iteration would take charged (:func:`~repro.interp.fastpath.genuine_steps`).
Counting nests iterate, because their stores carry control labels into
the shadow heap one slot at a time, and so does a nest that would run out
of steps or call depth: genuine iteration then raises where it must.
With ``fast_loops`` off every loop iterates every trip: that is the
genuine-iteration reference the closed form is checked against
(``tests/interp/test_engine_differential.py``).  Reports, values,
metrics, steps and errors of the two modes are identical; listener
events differ, because a closed-form nest reports aggregated costs and
calls, as on the concrete engines.

This module knows nothing about taint: labels, policies and reports are
the domain's business (see :mod:`repro.taint.domain`).
"""

from __future__ import annotations

from typing import Sequence

from ..errors import (
    ArityError,
    InterpreterError,
    UndefinedFunctionError,
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
    assigned_names,
)
from .config import DEFAULT_CONFIG, ExecConfig
from .domain import AnalysisDomain
from .events import CostKind, ExecutionListener
from .fastpath import genuine_steps, record_loop_sinks
from .interpreter import Interpreter
from .metrics import RunResult
from .runtime import LibraryRuntime
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
    require_array,
    resolve_entry_args,
)
from .values import Value, truthy


class ShadowInterpreter(Interpreter):
    """Interpreter threading an analysis domain's shadows through a run.

    Construction mirrors :class:`Interpreter` plus the *domain*.
    ``ExecConfig.fast_loops`` selects closed-form pure-cost nests (on)
    or genuine iteration of every trip (off, the reference mode).
    """

    def __init__(
        self,
        program: Program,
        runtime: LibraryRuntime | None = None,
        config: ExecConfig = DEFAULT_CONFIG,
        listener: ExecutionListener | None = None,
        domain: AnalysisDomain | None = None,
    ) -> None:
        super().__init__(
            program, runtime=runtime, config=config, listener=listener
        )
        self.domain = domain or AnalysisDomain()
        self._shadow: list[dict[str, object]] = []

    def run(
        self,
        args: "dict | Sequence[Value]" = (),
        entry: str | None = None,
    ) -> RunResult:
        """Concrete-compatible run: every argument enters clean.

        Overrides :meth:`Interpreter.run` so the domain observes the run
        (sinks, control regions) exactly as :meth:`call_shadow` does.
        """
        name, _fn, argvals = resolve_entry_args(self.program, args, entry)
        clean = self.domain.clean
        value, _shadow = self.call_shadow(
            name, argvals, [clean] * len(argvals)
        )
        return RunResult(value=value, metrics=self.metrics, steps=self._steps)

    # ------------------------------------------------------------------
    # shadow frame helpers

    @property
    def _frame(self) -> dict[str, object]:
        return self._shadow[-1]

    def _get_shadow(self, name: str):
        return self._frame.get(name, self.domain.clean)

    def _set_shadow(self, name: str, shadow) -> None:
        # Keep the dict sparse: most values stay clean.
        if shadow == self.domain.clean:
            self._frame.pop(name, None)
        else:
            self._frame[name] = shadow

    # ------------------------------------------------------------------
    # calls

    def call_shadow(
        self, name: str, args: Sequence[Value], arg_shadows: Sequence
    ) -> tuple:
        """Invoke program function *name* with shadowed arguments.

        Returns ``(value, shadow)`` of the call's result; the shadow of a
        void call is clean.  This is the shadow engine's entry point —
        analysis drivers (e.g. :class:`repro.taint.engine.TaintEngine`)
        resolve entry arguments and source shadows, then call this.
        """
        domain = self.domain
        fn = self.program.function(name)
        if len(args) != len(fn.params):
            raise ArityError(name, len(fn.params), len(args))
        if name in self._fn_stack:
            domain.on_recursive_call(name)
        if self._depth >= self.config.max_call_depth:
            raise call_depth_exceeded(name, self.config.max_call_depth)
        env: dict[str, Value] = dict(zip(fn.params, args))
        frame: dict[str, object] = {}
        clean = domain.clean
        for pname, pshadow in zip(fn.params, arg_shadows):
            if pshadow != clean:
                frame[pname] = pshadow
        self._depth += 1
        self._fn_stack.append(name)
        self._shadow.append(frame)
        domain.on_function_entered(name)
        self.metrics.on_enter(name)
        self.listener.on_enter(name)
        try:
            flow, value, shadow = self._sexec_block(fn.body, env)
            if flow == FLOW_RETURN:
                return value, domain.with_control(shadow)
            return None, clean  # void call
        finally:
            self.metrics.on_exit(name)
            self.listener.on_exit(name)
            self._shadow.pop()
            self._fn_stack.pop()
            self._depth -= 1

    def _call_library_shadow(
        self, name: str, args: Sequence[Value], arg_shadows: Sequence
    ) -> tuple:
        """Meter the call as the concrete engines do, then ask the domain
        for the return value's shadow (library sources, data flow through
        the call) under the active control regions."""
        value = self._call_library(name, args)
        shadow = self.domain.on_library_call(
            tuple(self._fn_stack),
            self.current_function,
            name,
            args,
            arg_shadows,
        )
        return value, self.domain.with_control(shadow)

    # ------------------------------------------------------------------
    # statements

    def _sexec_block(
        self, body: Sequence[Stmt], env: dict[str, Value]
    ) -> tuple:
        for stmt in body:
            flow, value, shadow = self._sexec_stmt(stmt, env)
            if flow != FLOW_NORMAL:
                return flow, value, shadow
        return FLOW_NORMAL, None, self.domain.clean

    def _sexec_stmt(self, stmt: Stmt, env: dict[str, Value]) -> tuple:
        self._step()
        clean = self.domain.clean
        if isinstance(stmt, Assign):
            self._charge(CostKind.COMPUTE, self.config.stmt_cost)
            value, shadow = self._seval(stmt.value, env)
            env[stmt.name] = value
            self._set_shadow(
                stmt.name,
                self.domain.with_control(shadow, stmt.value.free_vars()),
            )
            return FLOW_NORMAL, None, clean
        if isinstance(stmt, ExprStmt):
            self._charge(CostKind.COMPUTE, self.config.stmt_cost)
            self._seval(stmt.expr, env)
            return FLOW_NORMAL, None, clean
        if isinstance(stmt, Store):
            self._charge(CostKind.COMPUTE, self.config.stmt_cost)
            arr = require_array(
                self._lookup(stmt.array, env), stmt.array, self.current_function
            )
            idx, idx_shadow = self._seval(stmt.index, env)
            val, val_shadow = self._seval(stmt.value, env)
            arr.store(int(idx), float(val))
            # A shadowed index makes the written value's location depend
            # on the analysis facts: both shadows reach the element.
            reads = stmt.index.free_vars() | stmt.value.free_vars()
            shadow = self.domain.with_control(
                self.domain.join(val_shadow, idx_shadow), reads
            )
            self.domain.store_element(arr, int(idx), shadow)
            return FLOW_NORMAL, None, clean
        if isinstance(stmt, Return):
            if stmt.value is None:
                return FLOW_RETURN, None, clean
            value, shadow = self._seval(stmt.value, env)
            return FLOW_RETURN, value, shadow
        if isinstance(stmt, Break):
            return FLOW_BREAK, None, clean
        if isinstance(stmt, Continue):
            return FLOW_CONTINUE, None, clean
        if isinstance(stmt, If):
            return self._sexec_if(stmt, env)
        if isinstance(stmt, For):
            return self._sexec_for(stmt, env)
        if isinstance(stmt, While):
            return self._sexec_while(stmt, env)
        raise InterpreterError(f"cannot execute {type(stmt).__name__}")

    def _sexec_if(self, stmt: If, env: dict[str, Value]) -> tuple:
        domain = self.domain
        cond, cond_shadow = self._seval(stmt.cond, env)
        taken = truthy(cond)
        domain.on_branch(
            tuple(self._fn_stack),
            self.current_function,
            stmt.branch_id,
            cond_shadow,
            taken,
        )
        clean = domain.clean
        if domain.tracks_implicit and cond_shadow != clean:
            skipped = stmt.else_body if taken else stmt.then_body
            for name in assigned_names(skipped):
                if name in env:
                    self._set_shadow(
                        name,
                        domain.on_implicit_flow(
                            cond_shadow, self._get_shadow(name)
                        ),
                    )
        body = stmt.then_body if taken else stmt.else_body
        if domain.tracks_control and cond_shadow != clean:
            domain.push_branch(cond_shadow)
            try:
                return self._sexec_block(body, env)
            finally:
                domain.pop_control()
        return self._sexec_block(body, env)

    def _sexec_for(self, stmt: For, env: dict[str, Value]) -> tuple:
        domain = self.domain
        clean = domain.clean
        if self.config.fast_loops and self._closed_form(stmt, env):
            return FLOW_NORMAL, None, clean
        start, start_shadow = self._seval(stmt.start, env)
        stop, stop_shadow = self._seval(stmt.stop, env)
        step, step_shadow = self._seval(stmt.step, env)
        if not isinstance(step, (int, float)) or step <= 0:
            raise bad_loop_step(step, self.current_function)
        # The loop exit condition is ``var < stop`` with var derived from
        # start and step: its shadow is the join of all three (the sink of
        # the loop-count analysis, paper 4.1).
        cond_shadow = domain.join_all(
            [start_shadow, stop_shadow, step_shadow]
        )
        fn = self.current_function

        env[stmt.var] = start
        var_shadow = domain.with_control(
            domain.join(start_shadow, step_shadow)
        )
        self._set_shadow(stmt.var, var_shadow)  # reads nothing loop-carried

        iters = 0
        flow: int = FLOW_NORMAL
        value: Value = None
        shadow = clean
        push_control = domain.tracks_control and cond_shadow != clean
        if push_control:
            domain.push_loop(
                cond_shadow, assigned_names(stmt.body) | {stmt.var}
            )
        try:
            while env[stmt.var] < stop:
                self._step()
                self._charge(CostKind.COMPUTE, self.config.loop_iter_cost)
                iters += 1
                flow, value, shadow = self._sexec_block(stmt.body, env)
                if flow == FLOW_BREAK:
                    flow = FLOW_NORMAL
                    break
                if flow == FLOW_RETURN:
                    break
                env[stmt.var] = env[stmt.var] + step
                # Body assignments to the loop variable feed the exit
                # condition: fold its current shadow into the sink.
                cond_shadow = domain.join(
                    cond_shadow, self._get_shadow(stmt.var)
                )
        finally:
            if push_control:
                domain.pop_control()

        domain.on_loop(
            tuple(self._fn_stack), fn, stmt.loop_id, cond_shadow, iters
        )
        if iters:
            self._on_loop_iterations(fn, stmt.loop_id, iters)
        if flow == FLOW_RETURN:
            return flow, value, shadow
        return FLOW_NORMAL, None, clean

    def _closed_form(self, stmt: For, env: dict[str, Value]) -> bool:
        """Run the pure-cost nest rooted at *stmt* in closed form and
        record its loop sinks; False when it must iterate (no pure plan,
        a value the plan cannot summarise, or a step or call-depth limit
        genuine iteration would hit, so the error comes where it
        genuinely does)."""
        plan = self._planner.plan(self.current_function, stmt)
        if plan is None or plan.counters:
            return False
        result = self._planner.execute(plan, lambda e: self._eval_pure(e, env))
        if result is None:
            return False
        steps = genuine_steps(result)
        if self._steps + steps > self.config.step_limit or (
            result.calls and self._depth >= self.config.max_call_depth
        ):
            return False
        self._steps += steps
        self._apply_closed_form(stmt, result, env)
        shadows = record_loop_sinks(
            plan,
            result,
            self.domain,
            tuple(self._fn_stack),
            lambda e: self._seval(e, env)[1],
        )
        for name, shadow in shadows.items():
            self._set_shadow(name, shadow)
        return True

    def _sexec_while(self, stmt: While, env: dict[str, Value]) -> tuple:
        domain = self.domain
        clean = domain.clean
        fn = self.current_function
        iters = 0
        flow: int = FLOW_NORMAL
        value: Value = None
        shadow = clean
        sink_shadow = clean
        while True:
            cond, cond_shadow = self._seval(stmt.cond, env)
            sink_shadow = domain.join(sink_shadow, cond_shadow)
            if not truthy(cond):
                break
            self._step()
            self._charge(CostKind.COMPUTE, self.config.loop_iter_cost)
            iters += 1
            push_control = domain.tracks_control and cond_shadow != clean
            if push_control:
                domain.push_loop(cond_shadow, assigned_names(stmt.body))
            try:
                flow, value, shadow = self._sexec_block(stmt.body, env)
            finally:
                if push_control:
                    domain.pop_control()
            if flow == FLOW_BREAK:
                flow = FLOW_NORMAL
                break
            if flow == FLOW_RETURN:
                break
        domain.on_loop(
            tuple(self._fn_stack), fn, stmt.loop_id, sink_shadow, iters
        )
        if iters:
            self._on_loop_iterations(fn, stmt.loop_id, iters)
        if flow == FLOW_RETURN:
            return flow, value, shadow
        return FLOW_NORMAL, None, clean

    # ------------------------------------------------------------------
    # expressions

    def _seval(self, expr: Expr, env: dict[str, Value]) -> tuple:
        domain = self.domain
        if isinstance(expr, Const):
            return expr.value, domain.clean
        if isinstance(expr, Var):
            return self._lookup(expr.name, env), self._get_shadow(expr.name)
        if isinstance(expr, BinOp):
            op = expr.op
            if op in ("and", "or"):
                lhs, lshadow = self._seval(expr.lhs, env)
                take_rhs = truthy(lhs) if op == "and" else not truthy(lhs)
                if take_rhs:
                    rhs, rshadow = self._seval(expr.rhs, env)
                    return rhs, domain.data_join(lshadow, rshadow)
                return lhs, lshadow
            lhs, lshadow = self._seval(expr.lhs, env)
            rhs, rshadow = self._seval(expr.rhs, env)
            return apply_binop(op, lhs, rhs), domain.data_join(lshadow, rshadow)
        if isinstance(expr, UnOp):
            operand, shadow = self._seval(expr.operand, env)
            return apply_unop(expr.op, operand), domain.data(shadow)
        if isinstance(expr, Load):
            arr = require_array(
                self._lookup(expr.array, env), expr.array, self.current_function
            )
            idx, idx_shadow = self._seval(expr.index, env)
            value = arr.load(int(idx))
            elem_shadow = domain.load_element(arr, int(idx))
            return value, domain.data_join(elem_shadow, idx_shadow)
        if isinstance(expr, Intrinsic):
            return self._seval_intrinsic(expr, env)
        if isinstance(expr, Call):
            values: list[Value] = []
            shadows: list = []
            for a in expr.args:
                v, s = self._seval(a, env)
                values.append(v)
                shadows.append(domain.data(s))
            self._charge(CostKind.COMPUTE, self.config.call_cost)
            if expr.callee in self.program:
                return self.call_shadow(expr.callee, values, shadows)
            if self.runtime.handles(expr.callee):
                return self._call_library_shadow(expr.callee, values, shadows)
            raise UndefinedFunctionError(expr.callee)
        raise InterpreterError(f"cannot evaluate {type(expr).__name__}")

    def _seval_intrinsic(self, expr: Intrinsic, env: dict[str, Value]) -> tuple:
        domain = self.domain
        name = expr.name
        if name in ("work", "mem_work"):
            amount, shadow = self._seval(expr.args[0], env)
            amount = check_work_amount(float(amount))
            kind = CostKind.COMPUTE if name == "work" else CostKind.MEMORY
            self._charge(kind, amount)
            return amount, domain.data(shadow)
        if name == "alloc":
            size, _shadow = self._seval(expr.args[0], env)
            arr, cost = alloc_array(size)
            self._charge(CostKind.MEMORY, cost)
            return arr, domain.clean
        value, shadow = self._seval(expr.args[0], env)
        fn = MATH_INTRINSICS.get(name)
        if fn is None:
            raise InterpreterError(f"unknown intrinsic {name!r}")
        return fn(value), domain.data(shadow)


__all__ = ["ShadowInterpreter"]
