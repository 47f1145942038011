"""Compiled shadow engine: the closure compiler × an analysis domain.

``CompiledShadowEngine`` brings the IR-to-closure compilation strategy of
:class:`~repro.interp.compile.CompiledEngine` to shadow-tracking
analyses.  Shadows travel through the same pre-resolved frame slots the
values use — every call frame is a pair of parallel slot lists, one for
values and one for shadows — so shadow propagation pays slot indexing
instead of the per-node ``isinstance`` dispatch and per-name dict
lookups of the tree-walking :class:`~repro.interp.shadowtree.ShadowInterpreter`.

Domain hooks are pre-bound into the closures' cells at compile time
(joins, policy gates, control regions, sinks), and analysis-constant
facts — the ``free_vars`` read sets of assignments, the assigned-name
sets of loop bodies and skipped branches — are computed once during
lowering instead of on every execution.

Pure-cost loop nests that the fast-path planner
(:mod:`repro.interp.fastpath`) can run in closed form take the planner's
closed form here too, when ``ExecConfig.fast_loops`` is set: values and
metrics exactly as in :class:`~repro.interp.compile.CompiledEngine`, each
loop sink recorded once per nest execution
(:func:`~repro.interp.fastpath.record_loop_sinks`) and the steps genuine
iteration would take charged (:func:`~repro.interp.fastpath.genuine_steps`).
Counting nests iterate, because their stores carry control labels into the
shadow heap one slot at a time, and so does a nest the closed form cannot
run without error or within the step and call-depth limits: genuine
iteration then raises where it must.  The tree-walking shadow engine
iterates every trip; reports, values, metrics, steps and errors of the two
are identical, checked by the differential tests in
``tests/interp/test_compiled_differential.py``.  Listener events differ: a
closed-form nest reports aggregated costs and calls, as on the concrete
engines.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ArityError, InterpreterError, UndefinedFunctionError
from ..ir.expr import BinOp, Call, Const, Expr, Intrinsic, Load, UnOp, Var
from ..ir.program import Function, Program
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
from .compile import _UNDEF, CompiledEngine
from .config import DEFAULT_CONFIG, ExecConfig
from .domain import AnalysisDomain
from .events import CostKind, ExecutionListener
from .fastpath import (
    LoopPlan,
    charge_result,
    genuine_steps,
    record_loop_sinks,
)
from .runtime import LibraryRuntime
from .metrics import RunResult
from .semantics import (
    BINOP_FUNCS,
    FLOW_BREAK,
    FLOW_CONTINUE,
    FLOW_NORMAL,
    FLOW_RETURN,
    MATH_INTRINSICS,
    alloc_array,
    bad_loop_step,
    call_depth_exceeded,
    check_work_amount,
    execute_shadow_library_call,
    require_array,
    resolve_entry_args,
    step_limit_exceeded,
    undefined_variable,
)
from .values import Array, Value, truthy


class CompiledShadowFunction:
    """One program function lowered to shadow-propagating closures.

    ``call`` mirrors ``ShadowInterpreter.call_shadow`` exactly: arity
    check, recursion hook, depth check, fresh value+shadow frames,
    enter/exit events around the body, control attachment on the
    returned shadow.
    """

    __slots__ = (
        "name",
        "nparams",
        "engine",
        "max_depth",
        "_template",
        "_shadow_template",
        "_body",
    )

    def __init__(self, engine: "CompiledShadowEngine", fn: Function) -> None:
        self.name = fn.name
        self.nparams = len(fn.params)
        self.engine = engine
        self.max_depth = engine.config.max_call_depth
        # Filled in by _ShadowFunctionCompiler.compile (two-phase, so
        # recursive and mutually recursive calls bind their targets).
        self._template: list[Value] = []
        self._shadow_template: list = []
        self._body = None

    def call(self, args: Sequence[Value], arg_shadows: Sequence) -> tuple:
        """Invoke this function; returns ``(value, shadow)``."""
        if len(args) != self.nparams:
            raise ArityError(self.name, self.nparams, len(args))
        engine = self.engine
        domain = engine.domain
        stack = engine._fn_stack
        if self.name in stack:
            domain.on_recursive_call(self.name)
        if engine._depth >= self.max_depth:
            raise call_depth_exceeded(self.name, self.max_depth)
        n = self.nparams
        frame = self._template.copy()
        frame[:n] = args
        shadow = self._shadow_template.copy()
        shadow[:n] = arg_shadows
        engine._depth += 1
        stack.append(self.name)
        domain.on_function_entered(self.name)
        engine._on_enter(self.name)
        try:
            result = self._body(frame, shadow)
            if result[0] == FLOW_RETURN:
                return result[1], domain.with_control(result[2])
            return None, domain.clean  # void call
        finally:
            engine._on_exit(self.name)
            stack.pop()
            engine._depth -= 1


class _ShadowFunctionCompiler:
    """Lowers one :class:`Function` into value+shadow slot closures."""

    def __init__(self, engine: "CompiledShadowEngine", fn: Function) -> None:
        self.engine = engine
        self.fn = fn
        self.fn_name = fn.name
        self.domain = engine.domain
        self.slots: dict[str, int] = {}
        for param in fn.params:
            self._slot(param)
        # Shared flow singletons (domain-specific clean element).
        clean = self.domain.clean
        self._normal = (FLOW_NORMAL, None, clean)
        self._break = (FLOW_BREAK, None, clean)
        self._continue = (FLOW_CONTINUE, None, clean)
        self._return_none = (FLOW_RETURN, None, clean)

    def _slot(self, name: str) -> int:
        idx = self.slots.get(name)
        if idx is None:
            idx = len(self.slots)
            self.slots[name] = idx
        return idx

    def compile(self, target: CompiledShadowFunction) -> None:
        """Compile the function body into *target*."""
        target._body = self._compile_block(self.fn.body)
        target._template = [_UNDEF] * len(self.slots)
        target._shadow_template = [self.domain.clean] * len(self.slots)

    # ------------------------------------------------------------------
    # expressions: closures (frame, shadow) -> (value, value_shadow)

    def _compile_expr(self, expr: Expr):
        domain = self.domain
        clean = domain.clean
        if isinstance(expr, Const):
            pair = (expr.value, clean)

            def const(frame, shadow):
                return pair

            const._const = expr.value
            return const
        if isinstance(expr, Var):
            idx = self._slot(expr.name)
            name = expr.name
            fn_name = self.fn_name

            def read(frame, shadow):
                value = frame[idx]
                if value is _UNDEF:
                    raise undefined_variable(name, fn_name)
                return value, shadow[idx]

            # Fusion metadata: parent nodes (binops) inline slot reads
            # and constants instead of paying a nested call + tuple.
            read._slot = idx
            read._vname = name
            return read
        if isinstance(expr, BinOp):
            return self._compile_binop(expr)
        if isinstance(expr, UnOp):
            operand = self._compile_expr(expr.operand)
            data = domain.data
            if expr.op == "not":

                def not_(frame, shadow):
                    value, s = operand(frame, shadow)
                    return (not value), (clean if s == clean else data(s))

                return not_

            def neg(frame, shadow):
                value, s = operand(frame, shadow)
                return -value, (clean if s == clean else data(s))

            return neg
        if isinstance(expr, Load):
            aidx = self._slot(expr.array)
            index = self._compile_expr(expr.index)
            name = expr.array
            fn_name = self.fn_name
            data_join = domain.data_join
            load_element = domain.load_element

            def load(frame, shadow):
                arr = frame[aidx]
                if not isinstance(arr, Array):
                    if arr is _UNDEF:
                        raise undefined_variable(name, fn_name)
                    require_array(arr, name, fn_name)  # raises
                idx, idx_shadow = index(frame, shadow)
                i = int(idx)
                es = load_element(arr, i)
                if es == clean and idx_shadow == clean:
                    return arr.load(i), clean
                return arr.load(i), data_join(es, idx_shadow)

            return load
        if isinstance(expr, Intrinsic):
            return self._compile_intrinsic(expr)
        if isinstance(expr, Call):
            return self._compile_call(expr)
        raise InterpreterError(f"cannot evaluate {type(expr).__name__}")

    def _compile_binop(self, expr: BinOp):
        domain = self.domain
        clean = domain.clean
        op = expr.op
        lhs = self._compile_expr(expr.lhs)
        rhs = self._compile_expr(expr.rhs)
        data_join = domain.data_join
        if op == "and":

            def and_(frame, shadow):
                left, ls = lhs(frame, shadow)
                if truthy(left):
                    right, rs = rhs(frame, shadow)
                    if ls == clean and rs == clean:
                        return right, clean
                    return right, data_join(ls, rs)
                return left, ls

            return and_
        if op == "or":

            def or_(frame, shadow):
                left, ls = lhs(frame, shadow)
                if truthy(left):
                    return left, ls
                right, rs = rhs(frame, shadow)
                if ls == clean and rs == clean:
                    return right, clean
                return right, data_join(ls, rs)

            return or_
        fn = BINOP_FUNCS.get(op)
        if fn is None:
            raise InterpreterError(f"unknown operator {op!r}")
        # Operand fusion (mirroring the concrete compiler): when an
        # operand is a slot read or a constant, inline the access and
        # shadow lookup.  Evaluation order and undefined-variable errors
        # are preserved exactly; the all-clean shadow case skips the
        # domain join entirely (sound by the bottom laws).
        fn_name = self.fn_name
        lslot = getattr(lhs, "_slot", None)
        rslot = getattr(rhs, "_slot", None)
        lconst = getattr(lhs, "_const", _UNDEF)
        rconst = getattr(rhs, "_const", _UNDEF)
        if lslot is not None:
            lname = lhs._vname
            if rslot is not None:
                rname = rhs._vname

                def var_var(frame, shadow):
                    left = frame[lslot]
                    if left is _UNDEF:
                        raise undefined_variable(lname, fn_name)
                    right = frame[rslot]
                    if right is _UNDEF:
                        raise undefined_variable(rname, fn_name)
                    ls = shadow[lslot]
                    rs = shadow[rslot]
                    if ls == clean and rs == clean:
                        return fn(left, right), clean
                    return fn(left, right), data_join(ls, rs)

                return var_var
            if rconst is not _UNDEF:

                def var_const(frame, shadow):
                    left = frame[lslot]
                    if left is _UNDEF:
                        raise undefined_variable(lname, fn_name)
                    ls = shadow[lslot]
                    if ls == clean:
                        return fn(left, rconst), clean
                    return fn(left, rconst), data_join(ls, clean)

                return var_const
        elif lconst is not _UNDEF and rslot is not None:
            rname = rhs._vname

            def const_var(frame, shadow):
                right = frame[rslot]
                if right is _UNDEF:
                    raise undefined_variable(rname, fn_name)
                rs = shadow[rslot]
                if rs == clean:
                    return fn(lconst, right), clean
                return fn(lconst, right), data_join(clean, rs)

            return const_var

        def binop(frame, shadow):
            left, ls = lhs(frame, shadow)
            right, rs = rhs(frame, shadow)
            if ls == clean and rs == clean:
                return fn(left, right), clean
            return fn(left, right), data_join(ls, rs)

        return binop

    def _compile_intrinsic(self, expr: Intrinsic):
        domain = self.domain
        clean = domain.clean
        data = domain.data
        name = expr.name
        arg = self._compile_expr(expr.args[0]) if expr.args else None
        if name == "work" or name == "mem_work":
            kind = CostKind.COMPUTE if name == "work" else CostKind.MEMORY
            charge = self.engine._charge

            def work(frame, shadow):
                amount, s = arg(frame, shadow)
                amount = check_work_amount(float(amount))
                charge(kind, amount)
                return amount, (clean if s == clean else data(s))

            return work
        if name == "alloc":
            charge = self.engine._charge
            memory = CostKind.MEMORY

            def alloc(frame, shadow):
                size, _s = arg(frame, shadow)
                arr, cost = alloc_array(size)
                charge(memory, cost)
                return arr, clean

            return alloc
        fn = MATH_INTRINSICS.get(name)
        if fn is None:
            raise InterpreterError(f"unknown intrinsic {name!r}")

        def math(frame, shadow):
            value, s = arg(frame, shadow)
            return fn(value), (clean if s == clean else data(s))

        return math

    def _compile_call(self, expr: Call):
        domain = self.domain
        clean = domain.clean
        arg_closures = tuple(self._compile_expr(a) for a in expr.args)
        callee = expr.callee
        engine = self.engine
        charge = engine._charge
        call_cost = engine.config.call_cost
        compute = CostKind.COMPUTE
        data = domain.data
        if callee in engine.program:
            # Pre-resolved program call: bind the target's call method once.
            target_call = engine._functions[callee].call

            def call_fn(frame, shadow):
                values = []
                shadows = []
                for c in arg_closures:
                    v, s = c(frame, shadow)
                    values.append(v)
                    shadows.append(clean if s == clean else data(s))
                charge(compute, call_cost)
                return target_call(values, shadows)

            return call_fn

        runtime = engine.runtime
        library = engine._call_library_shadow

        def call_external(frame, shadow):
            values = []
            shadows = []
            for c in arg_closures:
                v, s = c(frame, shadow)
                values.append(v)
                shadows.append(clean if s == clean else data(s))
            charge(compute, call_cost)
            if runtime.handles(callee):
                return library(callee, values, shadows)
            raise UndefinedFunctionError(callee)

        return call_external

    # ------------------------------------------------------------------
    # statements: closures (frame, shadow) -> (flow, value, value_shadow)

    def _compile_block(self, body: Sequence[Stmt]):
        closures = tuple(self._compile_stmt(s) for s in body)
        normal = self._normal
        if not closures:
            return lambda frame, shadow: normal
        if len(closures) == 1:
            return closures[0]

        def block(frame, shadow):
            for closure in closures:
                result = closure(frame, shadow)
                if result[0]:
                    return result
            return normal

        return block

    def _compile_stmt(self, stmt: Stmt):
        engine = self.engine
        domain = self.domain
        state = engine._steps_cell
        limit = engine.config.step_limit
        charge = engine._charge
        stmt_cost = engine.config.stmt_cost
        compute = CostKind.COMPUTE
        fn_name = self.fn_name
        normal = self._normal

        if isinstance(stmt, Assign):
            idx = self._slot(stmt.name)
            value_c = self._compile_expr(stmt.value)
            # The read set is an analysis-time constant: resolve it here
            # instead of recomputing free_vars() per execution.
            reads = stmt.value.free_vars()
            with_control = domain.with_control

            def assign(frame, shadow):
                state[0] = n = state[0] + 1
                if n > limit:
                    raise step_limit_exceeded(fn_name, limit)
                charge(compute, stmt_cost)
                value, s = value_c(frame, shadow)
                frame[idx] = value
                shadow[idx] = with_control(s, reads)
                return normal

            return assign

        if isinstance(stmt, ExprStmt):
            expr_c = self._compile_expr(stmt.expr)

            def expr_stmt(frame, shadow):
                state[0] = n = state[0] + 1
                if n > limit:
                    raise step_limit_exceeded(fn_name, limit)
                charge(compute, stmt_cost)
                expr_c(frame, shadow)
                return normal

            return expr_stmt

        if isinstance(stmt, Store):
            aidx = self._slot(stmt.array)
            index_c = self._compile_expr(stmt.index)
            value_c = self._compile_expr(stmt.value)
            array_name = stmt.array
            reads = stmt.index.free_vars() | stmt.value.free_vars()
            clean = domain.clean
            join = domain.join
            with_control = domain.with_control
            store_element = domain.store_element

            def store(frame, shadow):
                state[0] = n = state[0] + 1
                if n > limit:
                    raise step_limit_exceeded(fn_name, limit)
                charge(compute, stmt_cost)
                arr = frame[aidx]
                if not isinstance(arr, Array):
                    if arr is _UNDEF:
                        raise undefined_variable(array_name, fn_name)
                    require_array(arr, array_name, fn_name)  # raises
                idx, idx_shadow = index_c(frame, shadow)
                val, val_shadow = value_c(frame, shadow)
                i = int(idx)
                arr.store(i, float(val))
                # A shadowed index makes the written value's location
                # depend on the analysis facts: both shadows reach the
                # element.
                if val_shadow == clean and idx_shadow == clean:
                    merged = clean
                else:
                    merged = join(val_shadow, idx_shadow)
                store_element(arr, i, with_control(merged, reads))
                return normal

            return store

        if isinstance(stmt, Return):
            if stmt.value is None:
                return_none = self._return_none

                def return_void(frame, shadow):
                    state[0] = n = state[0] + 1
                    if n > limit:
                        raise step_limit_exceeded(fn_name, limit)
                    return return_none

                return return_void
            value_c = self._compile_expr(stmt.value)

            def return_value(frame, shadow):
                state[0] = n = state[0] + 1
                if n > limit:
                    raise step_limit_exceeded(fn_name, limit)
                value, s = value_c(frame, shadow)
                return (FLOW_RETURN, value, s)

            return return_value

        if isinstance(stmt, Break):
            brk = self._break

            def break_(frame, shadow):
                state[0] = n = state[0] + 1
                if n > limit:
                    raise step_limit_exceeded(fn_name, limit)
                return brk

            return break_

        if isinstance(stmt, Continue):
            cont = self._continue

            def continue_(frame, shadow):
                state[0] = n = state[0] + 1
                if n > limit:
                    raise step_limit_exceeded(fn_name, limit)
                return cont

            return continue_

        if isinstance(stmt, If):
            return self._compile_if(stmt)
        if isinstance(stmt, For):
            return self._compile_for(stmt)
        if isinstance(stmt, While):
            return self._compile_while(stmt)
        raise InterpreterError(f"cannot execute {type(stmt).__name__}")

    def _compile_if(self, stmt: If):
        engine = self.engine
        domain = self.domain
        state = engine._steps_cell
        limit = engine.config.step_limit
        fn_name = self.fn_name
        stack = engine._fn_stack
        clean = domain.clean

        cond_c = self._compile_expr(stmt.cond)
        then_b = self._compile_block(stmt.then_body)
        else_b = self._compile_block(stmt.else_body)
        branch_id = stmt.branch_id
        on_branch = domain.on_branch
        tracks_control = domain.tracks_control
        tracks_implicit = domain.tracks_implicit
        push_branch = domain.push_branch
        pop_control = domain.pop_control
        on_implicit = domain.on_implicit_flow
        # Assigned-name slots of each side, for implicit-flow reporting
        # on the *skipped* side (analysis-time constants).
        then_slots = tuple(
            self._slot(name) for name in sorted(assigned_names(stmt.then_body))
        )
        else_slots = tuple(
            self._slot(name) for name in sorted(assigned_names(stmt.else_body))
        )

        def if_(frame, shadow):
            state[0] = n = state[0] + 1
            if n > limit:
                raise step_limit_exceeded(fn_name, limit)
            cond, cs = cond_c(frame, shadow)
            taken = truthy(cond)
            on_branch(tuple(stack), fn_name, branch_id, cs, taken)
            if tracks_implicit and cs != clean:
                for idx in (else_slots if taken else then_slots):
                    if frame[idx] is not _UNDEF:
                        shadow[idx] = on_implicit(cs, shadow[idx])
            body = then_b if taken else else_b
            if tracks_control and cs != clean:
                push_branch(cs)
                try:
                    return body(frame, shadow)
                finally:
                    pop_control()
            return body(frame, shadow)

        return if_

    def _compile_for(self, stmt: For):
        engine = self.engine
        domain = self.domain
        state = engine._steps_cell
        limit = engine.config.step_limit
        max_depth = engine.config.max_call_depth
        charge = engine._charge
        iter_cost = engine.config.loop_iter_cost
        compute = CostKind.COMPUTE
        fn_name = self.fn_name
        stack = engine._fn_stack
        on_iters = engine._on_loop_iterations
        on_aggregate = engine._on_aggregate_calls
        clean = domain.clean
        normal = self._normal

        start_c = self._compile_expr(stmt.start)
        stop_c = self._compile_expr(stmt.stop)
        step_c = self._compile_expr(stmt.step)
        body_b = self._compile_block(stmt.body)
        var_idx = self._slot(stmt.var)
        loop_id = stmt.loop_id
        loop_key = (fn_name, loop_id)
        assigned = frozenset(assigned_names(stmt.body)) | {stmt.var}
        join = domain.join
        join_all = domain.join_all
        with_control = domain.with_control
        tracks_control = domain.tracks_control
        push_loop = domain.push_loop
        pop_control = domain.pop_control
        on_loop = domain.on_loop

        # Fast-path plan of a pure-cost nest (a counting nest iterates).
        planner = engine._planner
        plan: LoopPlan | None = None
        if engine.config.fast_loops:
            plan = planner.plan(fn_name, stmt)
            if plan is not None and plan.counters:
                plan = None
        closed_form = None
        if plan is not None:
            # Evaluators of every bound and cost argument the plan reads
            # (the root's bounds reuse the closures compiled above).
            pure_tbl = {
                id(stmt.start): start_c,
                id(stmt.stop): stop_c,
                id(stmt.step): step_c,
            }
            var_slots: dict[str, int] = {}
            for level in plan.levels():
                loop = level.loop
                var_slots[loop.var] = self._slot(loop.var)
                exprs = [loop.start, loop.stop, loop.step]
                exprs += [arg for _, arg in level.intrinsics]
                for expr in exprs:
                    if id(expr) not in pure_tbl:
                        pure_tbl[id(expr)] = self._compile_expr(expr)

            def closed_form(frame, shadow) -> bool:
                """Run the planned nest in closed form; False when it must
                iterate."""
                result = planner.execute(
                    plan, lambda e: pure_tbl[id(e)](frame, shadow)[0]
                )
                if result is None:
                    return False
                # A nest that would run out of steps or call depth
                # iterates, so the limit error comes where it genuinely
                # does.
                steps = genuine_steps(result)
                if state[0] + steps > limit or (
                    result.calls and engine._depth >= max_depth
                ):
                    return False
                state[0] += steps
                charge_result(result, charge, on_iters, on_aggregate)
                for name, value in result.scalars.items():
                    frame[var_slots[name]] = value
                shadows = record_loop_sinks(
                    plan,
                    result,
                    domain,
                    tuple(stack),
                    lambda e: pure_tbl[id(e)](frame, shadow)[1],
                )
                for name, var_shadow in shadows.items():
                    shadow[var_slots[name]] = var_shadow
                # Loop variable's final value: start + trips * step (just
                # start when no trip ran, as genuinely).
                start = start_c(frame, shadow)[0]
                trips = result.loop_iterations.get(loop_key, 0)
                if trips:
                    start = start + trips * step_c(frame, shadow)[0]
                frame[var_idx] = start
                return True

        def for_(frame, shadow):
            state[0] = n = state[0] + 1
            if n > limit:
                raise step_limit_exceeded(fn_name, limit)
            if closed_form is not None and closed_form(frame, shadow):
                return normal
            start, start_s = start_c(frame, shadow)
            stop, stop_s = stop_c(frame, shadow)
            step, step_s = step_c(frame, shadow)
            if not isinstance(step, (int, float)) or step <= 0:
                raise bad_loop_step(step, fn_name)
            # The loop exit condition is ``var < stop`` with var derived
            # from start and step: its shadow joins all three (the sink
            # of the loop-count analysis, paper 4.1).
            if start_s == clean and stop_s == clean and step_s == clean:
                cond_shadow = clean
                var_s = clean
            else:
                cond_shadow = join_all((start_s, stop_s, step_s))
                var_s = join(start_s, step_s)
            frame[var_idx] = start
            shadow[var_idx] = with_control(var_s)
            iters = 0
            result = normal
            push = tracks_control and cond_shadow != clean
            if push:
                push_loop(cond_shadow, assigned)
            try:
                while frame[var_idx] < stop:
                    state[0] = n = state[0] + 1
                    if n > limit:
                        raise step_limit_exceeded(fn_name, limit)
                    charge(compute, iter_cost)
                    iters += 1
                    result = body_b(frame, shadow)
                    flow = result[0]
                    if flow:
                        if flow == FLOW_BREAK:
                            result = normal
                            break
                        if flow == FLOW_RETURN:
                            break
                        result = normal  # FLOW_CONTINUE: resume iteration
                    frame[var_idx] = frame[var_idx] + step
                    # Body assignments to the loop variable feed the exit
                    # condition: fold its current shadow into the sink
                    # (a no-op join skipped while the variable is clean).
                    vs = shadow[var_idx]
                    if vs != clean:
                        cond_shadow = join(cond_shadow, vs)
            finally:
                if push:
                    pop_control()
            on_loop(tuple(stack), fn_name, loop_id, cond_shadow, iters)
            if iters:
                on_iters(fn_name, loop_id, iters)
            return result

        return for_

    def _compile_while(self, stmt: While):
        engine = self.engine
        domain = self.domain
        state = engine._steps_cell
        limit = engine.config.step_limit
        charge = engine._charge
        iter_cost = engine.config.loop_iter_cost
        compute = CostKind.COMPUTE
        fn_name = self.fn_name
        stack = engine._fn_stack
        on_iters = engine._on_loop_iterations
        clean = domain.clean
        normal = self._normal

        cond_c = self._compile_expr(stmt.cond)
        body_b = self._compile_block(stmt.body)
        loop_id = stmt.loop_id
        assigned = frozenset(assigned_names(stmt.body))
        join = domain.join
        tracks_control = domain.tracks_control
        push_loop = domain.push_loop
        pop_control = domain.pop_control
        on_loop = domain.on_loop

        def while_(frame, shadow):
            state[0] = n = state[0] + 1
            if n > limit:
                raise step_limit_exceeded(fn_name, limit)
            iters = 0
            result = normal
            sink_shadow = clean
            while True:
                cond, cond_shadow = cond_c(frame, shadow)
                if cond_shadow != clean:
                    sink_shadow = join(sink_shadow, cond_shadow)
                if not truthy(cond):
                    break
                state[0] = n = state[0] + 1
                if n > limit:
                    raise step_limit_exceeded(fn_name, limit)
                charge(compute, iter_cost)
                iters += 1
                push = tracks_control and cond_shadow != clean
                if push:
                    push_loop(cond_shadow, assigned)
                try:
                    result = body_b(frame, shadow)
                finally:
                    if push:
                        pop_control()
                flow = result[0]
                if flow:
                    if flow == FLOW_BREAK:
                        result = normal
                        break
                    if flow == FLOW_RETURN:
                        break
                    result = normal  # FLOW_CONTINUE: resume iteration
            on_loop(tuple(stack), fn_name, loop_id, sink_shadow, iters)
            if iters:
                on_iters(fn_name, loop_id, iters)
            return result

        return while_


class CompiledShadowEngine(CompiledEngine):
    """Closure-compiled execution under a shadow-tracking domain.

    Drop-in shadow sibling of :class:`~repro.interp.compile.CompiledEngine`:
    same constructor plus *domain*, same metering, plus ``call_shadow``
    mirroring :meth:`ShadowInterpreter.call_shadow
    <repro.interp.shadowtree.ShadowInterpreter.call_shadow>`.
    """

    def __init__(
        self,
        program: Program,
        runtime: LibraryRuntime | None = None,
        config: ExecConfig = DEFAULT_CONFIG,
        listener: ExecutionListener | None = None,
        domain: AnalysisDomain | None = None,
    ) -> None:
        self.domain = domain or AnalysisDomain()
        # Call-stack names, for the call paths the domain sinks record.
        self._fn_stack: list[str] = []
        super().__init__(
            program, runtime=runtime, config=config, listener=listener
        )

    def _compile_functions(self) -> None:
        program = self.program
        self._functions: dict[str, CompiledShadowFunction] = {
            name: CompiledShadowFunction(self, fn)
            for name, fn in program.functions.items()
        }
        for name, fn in program.functions.items():
            _ShadowFunctionCompiler(self, fn).compile(self._functions[name])

    # ------------------------------------------------------------------
    # entry points

    def call_shadow(
        self, name: str, args: Sequence[Value], arg_shadows: Sequence
    ) -> tuple:
        """Invoke program function *name* with shadowed arguments."""
        self.program.function(name)  # typed error for unknown entries
        return self._functions[name].call(args, arg_shadows)

    def run(self, args=(), entry=None) -> RunResult:
        """Concrete-compatible run: every argument enters clean."""
        name, _fn, argvals = resolve_entry_args(self.program, args, entry)
        clean = self.domain.clean
        value, _shadow = self._functions[name].call(
            argvals, [clean] * len(argvals)
        )
        return RunResult(
            value=value, metrics=self.metrics, steps=self._steps_cell[0]
        )

    # ------------------------------------------------------------------
    # library calls

    def _call_library_shadow(
        self, name: str, args: Sequence[Value], arg_shadows: Sequence
    ) -> tuple:
        return execute_shadow_library_call(
            self.domain,
            self.runtime,
            name,
            args,
            arg_shadows,
            self.metrics,
            self.listener,
            self._charge,
            tuple(self._fn_stack),
        )


__all__ = ["CompiledShadowEngine", "CompiledShadowFunction"]
