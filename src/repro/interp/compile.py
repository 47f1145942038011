"""IR-to-closure compiler: the measurement hot path's execution engine.

The tree-walking :class:`~repro.interp.interpreter.Interpreter` re-branches
on node type, re-resolves variable names, and re-dispatches operator
strings for every one of the millions of statements a measurement campaign
executes.  This module removes that dispatch cost by lowering a finalized
:class:`~repro.ir.program.Program` **once** into nested Python closures:

* one closure per :class:`~repro.ir.expr.Expr` / :class:`~repro.ir.stmt.Stmt`
  node, built at compile time, so no ``isinstance`` chains run on the hot
  path;
* constants, operator functions, cost amounts and intrinsic handlers are
  pre-resolved into the closures' cells;
* locals live in flat per-call frames (Python lists) addressed by
  pre-computed slots instead of dict lookups;
* loop fast-path plans (:class:`~repro.interp.fastpath.FastPathPlanner`)
  are resolved at compile time and consulted with pre-compiled pure
  bound/argument evaluators.

:class:`CompiledEngine` executes those closures under the exact same
:class:`~repro.interp.config.ExecConfig` limits,
:class:`~repro.interp.events.ExecutionListener` events,
:class:`~repro.interp.runtime.LibraryRuntime` resolution and
:class:`~repro.interp.metrics.RunResult` metrics as the tree-walker —
bit-identical by the shared :mod:`~repro.interp.semantics` core and
enforced by the differential property tests in
``tests/interp/test_compiled_differential.py``.  Single-configuration
measurement runs default to this engine, and the vectorized engine falls
back to it (see :func:`repro.interp.make_engine`).  Shadow-tracking
analyses (taint) run on the tree-walking
:class:`~repro.interp.shadowtree.ShadowInterpreter` instead: a taint run
is one short execution, so lowering the program would cost more than the
dispatch it saves.
"""

from __future__ import annotations

from typing import Mapping, Sequence

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
)
from .config import DEFAULT_CONFIG, ExecConfig
from .events import CostKind, ExecutionListener, NullListener
from .fastpath import (
    FastPathPlanner,
    LoopPlan,
    apply_array_updates,
    charge_result,
)
from .metrics import MetricsCollector, RunResult
from .runtime import LibraryRuntime, NoLibraryRuntime
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
    execute_library_call,
    require_array,
    resolve_entry_args,
    step_limit_exceeded,
    undefined_variable,
)
from .values import Array, Value, truthy


class _Undefined:
    """Sentinel marking a not-yet-assigned frame slot."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<undefined>"


_UNDEF = _Undefined()

#: Shared flow tuples: statement closures return ``(flow, value)`` and
#: normal flow is by far the common case, so it is a singleton.
_NORMAL: tuple[int, Value] = (FLOW_NORMAL, None)
_BREAK: tuple[int, Value] = (FLOW_BREAK, None)
_CONTINUE: tuple[int, Value] = (FLOW_CONTINUE, None)
_RETURN_NONE: tuple[int, Value] = (FLOW_RETURN, None)


class CompiledFunction:
    """One program function lowered to a closure tree.

    ``call`` mirrors ``Interpreter._call_function`` exactly: arity check,
    depth check, fresh frame, enter/exit events around the body.
    """

    __slots__ = (
        "name",
        "nparams",
        "engine",
        "max_depth",
        "_template",
        "_body",
    )

    def __init__(self, engine: "CompiledEngine", fn: Function) -> None:
        self.name = fn.name
        self.nparams = len(fn.params)
        self.engine = engine
        self.max_depth = engine.config.max_call_depth
        # Filled in by _FunctionCompiler.compile (two-phase, so recursive
        # and mutually recursive calls can bind their targets up front).
        self._template: list[Value] = []
        self._body = None

    def call(self, args: Sequence[Value]) -> Value:
        """Invoke this function with evaluated *args*."""
        if len(args) != self.nparams:
            raise ArityError(self.name, self.nparams, len(args))
        engine = self.engine
        if engine._depth >= self.max_depth:
            raise call_depth_exceeded(self.name, self.max_depth)
        frame = self._template.copy()
        frame[: self.nparams] = args
        engine._depth += 1
        engine._on_enter(self.name)
        try:
            result = self._body(frame)
            return result[1] if result[0] == FLOW_RETURN else None
        finally:
            engine._on_exit(self.name)
            engine._depth -= 1


class _FunctionCompiler:
    """Lowers one :class:`Function` into closures over a slot frame."""

    def __init__(self, engine: "CompiledEngine", fn: Function) -> None:
        self.engine = engine
        self.fn = fn
        self.fn_name = fn.name
        self.slots: dict[str, int] = {}
        # Parameters occupy the first slots, in declaration order, so
        # CompiledFunction.call can splice argument values in directly.
        # Every other name gets its slot lazily as compilation reaches it;
        # the frame template is sized once the whole body is lowered.
        for param in fn.params:
            self._slot(param)

    def _slot(self, name: str) -> int:
        idx = self.slots.get(name)
        if idx is None:
            idx = len(self.slots)
            self.slots[name] = idx
        return idx

    def compile(self, target: CompiledFunction) -> None:
        """Compile the function body into *target*."""
        target._body = self._compile_block(self.fn.body)
        target._template = [_UNDEF] * len(self.slots)

    # ------------------------------------------------------------------
    # expressions

    def _compile_var(self, name: str):
        idx = self._slot(name)
        fn_name = self.fn_name

        def read(frame):
            value = frame[idx]
            if value is _UNDEF:
                raise undefined_variable(name, fn_name)
            return value

        # Fusion metadata: closures for slot reads and constants carry
        # enough information for parent nodes (binops, intrinsics) to
        # inline the access instead of paying a nested call.
        read._slot = idx
        read._vname = name
        return read

    def _compile_expr(self, expr: Expr):
        if isinstance(expr, Const):
            value = expr.value

            def const(frame):
                return value

            const._const = value
            return const
        if isinstance(expr, Var):
            return self._compile_var(expr.name)
        if isinstance(expr, BinOp):
            return self._compile_binop(expr)
        if isinstance(expr, UnOp):
            operand = self._compile_expr(expr.operand)
            if expr.op == "not":
                return lambda frame: not operand(frame)
            return lambda frame: -operand(frame)
        if isinstance(expr, Load):
            aidx = self._slot(expr.array)
            index = self._compile_expr(expr.index)
            name = expr.array
            fn_name = self.fn_name
            islot = getattr(index, "_slot", None)
            if islot is not None:
                iname = index._vname

                def load_var(frame):
                    arr = frame[aidx]
                    if isinstance(arr, Array):
                        idx = frame[islot]
                        if idx is _UNDEF:
                            raise undefined_variable(iname, fn_name)
                        return arr.load(int(idx))
                    if arr is _UNDEF:
                        raise undefined_variable(name, fn_name)
                    require_array(arr, name, fn_name)  # raises

                return load_var

            def load(frame):
                arr = frame[aidx]
                if isinstance(arr, Array):
                    return arr.load(int(index(frame)))
                if arr is _UNDEF:
                    raise undefined_variable(name, fn_name)
                require_array(arr, name, fn_name)  # raises

            return load
        if isinstance(expr, Intrinsic):
            return self._compile_intrinsic(expr)
        if isinstance(expr, Call):
            return self._compile_call(expr)
        raise InterpreterError(f"cannot evaluate {type(expr).__name__}")

    def _compile_binop(self, expr: BinOp):
        op = expr.op
        lhs = self._compile_expr(expr.lhs)
        rhs = self._compile_expr(expr.rhs)
        if op == "and":

            def and_(frame):
                left = lhs(frame)
                return rhs(frame) if truthy(left) else left

            return and_
        if op == "or":

            def or_(frame):
                left = lhs(frame)
                return left if truthy(left) else rhs(frame)

            return or_
        fn = BINOP_FUNCS.get(op)
        if fn is None:
            raise InterpreterError(f"unknown operator {op!r}")
        # Operand fusion: when an operand is a slot read or a constant,
        # inline the access into this closure instead of paying a nested
        # call per evaluation.  Evaluation order (lhs before rhs) and the
        # undefined-variable errors are preserved exactly.
        fn_name = self.fn_name
        lslot = getattr(lhs, "_slot", None)
        rslot = getattr(rhs, "_slot", None)
        lconst = getattr(lhs, "_const", _UNDEF)
        rconst = getattr(rhs, "_const", _UNDEF)
        if lslot is not None:
            lname = lhs._vname
            if rslot is not None:
                rname = rhs._vname

                def var_var(frame):
                    left = frame[lslot]
                    if left is _UNDEF:
                        raise undefined_variable(lname, fn_name)
                    right = frame[rslot]
                    if right is _UNDEF:
                        raise undefined_variable(rname, fn_name)
                    return fn(left, right)

                return var_var
            if rconst is not _UNDEF:

                def var_const(frame):
                    left = frame[lslot]
                    if left is _UNDEF:
                        raise undefined_variable(lname, fn_name)
                    return fn(left, rconst)

                return var_const

            def var_any(frame):
                left = frame[lslot]
                if left is _UNDEF:
                    raise undefined_variable(lname, fn_name)
                return fn(left, rhs(frame))

            return var_any
        if rslot is not None:
            rname = rhs._vname

            def any_var(frame):
                left = lhs(frame)
                right = frame[rslot]
                if right is _UNDEF:
                    raise undefined_variable(rname, fn_name)
                return fn(left, right)

            return any_var
        if lconst is not _UNDEF:
            return lambda frame: fn(lconst, rhs(frame))
        if rconst is not _UNDEF:
            return lambda frame: fn(lhs(frame), rconst)
        return lambda frame: fn(lhs(frame), rhs(frame))

    def _compile_intrinsic(self, expr: Intrinsic):
        name = expr.name
        arg = self._compile_expr(expr.args[0]) if expr.args else None
        if name == "work" or name == "mem_work":
            kind = CostKind.COMPUTE if name == "work" else CostKind.MEMORY
            charge = self.engine._charge
            if expr.args and isinstance(expr.args[0], Const):
                # Pre-resolved constant charge (the common shape in
                # generated kernels); negative literals keep the generic
                # path so the error still fires at execution time.
                const_amount = float(expr.args[0].value)
                if const_amount >= 0:

                    def work_const(frame):
                        charge(kind, const_amount)
                        return const_amount

                    return work_const

            def work(frame):
                amount = float(arg(frame))
                if amount < 0:
                    check_work_amount(amount)  # raises
                charge(kind, amount)
                return amount

            return work
        if name == "alloc":
            charge = self.engine._charge
            memory = CostKind.MEMORY

            def alloc(frame):
                arr, cost = alloc_array(arg(frame))
                charge(memory, cost)
                return arr

            return alloc
        fn = MATH_INTRINSICS.get(name)
        if fn is None:
            raise InterpreterError(f"unknown intrinsic {name!r}")
        return lambda frame: fn(arg(frame))

    def _compile_call(self, expr: Call):
        arg_closures = tuple(self._compile_expr(a) for a in expr.args)
        callee = expr.callee
        engine = self.engine
        charge = engine._charge
        call_cost = engine.config.call_cost
        compute = CostKind.COMPUTE
        if callee in engine.program:
            # Pre-resolved program call: bind the target's call method once.
            target_call = engine._functions[callee].call

            def call_fn(frame):
                args = [c(frame) for c in arg_closures]
                charge(compute, call_cost)
                return target_call(args)

            return call_fn

        runtime = engine.runtime

        def call_external(frame):
            args = [c(frame) for c in arg_closures]
            charge(compute, call_cost)
            if runtime.handles(callee):
                return engine._call_library(callee, args)
            raise UndefinedFunctionError(callee)

        return call_external

    # ------------------------------------------------------------------
    # statements

    def _compile_block(self, body: Sequence[Stmt]):
        closures = tuple(self._compile_stmt(s) for s in body)
        if not closures:
            return lambda frame: _NORMAL
        if len(closures) == 1:
            return closures[0]

        def block(frame):
            for closure in closures:
                result = closure(frame)
                if result[0]:
                    return result
            return _NORMAL

        return block

    def _compile_stmt(self, stmt: Stmt):
        engine = self.engine
        state = engine._steps_cell
        limit = engine.config.step_limit
        charge = engine._charge
        stmt_cost = engine.config.stmt_cost
        compute = CostKind.COMPUTE
        fn_name = self.fn_name

        if isinstance(stmt, Assign):
            idx = self._slot(stmt.name)
            value_c = self._compile_expr(stmt.value)

            def assign(frame):
                state[0] = n = state[0] + 1
                if n > limit:
                    raise step_limit_exceeded(fn_name, limit)
                charge(compute, stmt_cost)
                frame[idx] = value_c(frame)
                return _NORMAL

            return assign

        if isinstance(stmt, ExprStmt):
            expr_c = self._compile_expr(stmt.expr)

            def expr_stmt(frame):
                state[0] = n = state[0] + 1
                if n > limit:
                    raise step_limit_exceeded(fn_name, limit)
                charge(compute, stmt_cost)
                expr_c(frame)
                return _NORMAL

            return expr_stmt

        if isinstance(stmt, Store):
            aidx = self._slot(stmt.array)
            index_c = self._compile_expr(stmt.index)
            value_c = self._compile_expr(stmt.value)
            array_name = stmt.array
            islot = getattr(index_c, "_slot", None)
            iname = getattr(index_c, "_vname", None)

            def store(frame):
                state[0] = n = state[0] + 1
                if n > limit:
                    raise step_limit_exceeded(fn_name, limit)
                charge(compute, stmt_cost)
                arr = frame[aidx]
                if not isinstance(arr, Array):
                    if arr is _UNDEF:
                        raise undefined_variable(array_name, fn_name)
                    require_array(arr, array_name, fn_name)  # raises
                if islot is None:
                    idx = index_c(frame)
                else:
                    idx = frame[islot]
                    if idx is _UNDEF:
                        raise undefined_variable(iname, fn_name)
                val = value_c(frame)
                arr.store(int(idx), float(val))
                return _NORMAL

            return store

        if isinstance(stmt, Return):
            if stmt.value is None:

                def return_void(frame):
                    state[0] = n = state[0] + 1
                    if n > limit:
                        raise step_limit_exceeded(fn_name, limit)
                    return _RETURN_NONE

                return return_void
            value_c = self._compile_expr(stmt.value)

            def return_value(frame):
                state[0] = n = state[0] + 1
                if n > limit:
                    raise step_limit_exceeded(fn_name, limit)
                return (FLOW_RETURN, value_c(frame))

            return return_value

        if isinstance(stmt, Break):

            def break_(frame):
                state[0] = n = state[0] + 1
                if n > limit:
                    raise step_limit_exceeded(fn_name, limit)
                return _BREAK

            return break_

        if isinstance(stmt, Continue):

            def continue_(frame):
                state[0] = n = state[0] + 1
                if n > limit:
                    raise step_limit_exceeded(fn_name, limit)
                return _CONTINUE

            return continue_

        if isinstance(stmt, If):
            cond_c = self._compile_expr(stmt.cond)
            then_b = self._compile_block(stmt.then_body)
            else_b = self._compile_block(stmt.else_body)

            def if_(frame):
                state[0] = n = state[0] + 1
                if n > limit:
                    raise step_limit_exceeded(fn_name, limit)
                if truthy(cond_c(frame)):
                    return then_b(frame)
                return else_b(frame)

            return if_

        if isinstance(stmt, For):
            return self._compile_for(stmt)
        if isinstance(stmt, While):
            return self._compile_while(stmt)
        raise InterpreterError(f"cannot execute {type(stmt).__name__}")

    def _compile_for(self, stmt: For):
        engine = self.engine
        state = engine._steps_cell
        limit = engine.config.step_limit
        charge = engine._charge
        iter_cost = engine.config.loop_iter_cost
        compute = CostKind.COMPUTE
        fn_name = self.fn_name
        on_iters = engine._on_loop_iterations
        on_aggregate = engine._on_aggregate_calls

        start_c = self._compile_expr(stmt.start)
        stop_c = self._compile_expr(stmt.stop)
        step_c = self._compile_expr(stmt.step)
        body_b = self._compile_block(stmt.body)
        var_idx = self._slot(stmt.var)
        loop_id = stmt.loop_id
        loop_key = (fn_name, loop_id)

        # Fast-path plan (compile-time): plans are static per loop; the
        # planner's execute() re-checks runtime validity (step > 0 etc.)
        # and returns None to force the genuine-iteration path, exactly as
        # the tree-walker does.
        plan: LoopPlan | None = None
        pure_tbl: dict[int, object] = {}
        out_slots: dict[str, int] = {}
        if engine.config.fast_loops:
            plan = engine._planner.plan(fn_name, stmt)
            if plan is not None:
                self._collect_plan_exprs(plan, pure_tbl)
                out_slots = {name: self._slot(name) for name in plan.outputs}
        planner = engine._planner
        start_key = id(stmt.start)
        step_key = id(stmt.step)

        def for_(frame):
            state[0] = n = state[0] + 1
            if n > limit:
                raise step_limit_exceeded(fn_name, limit)
            if plan is not None:
                result = planner.execute(
                    plan, lambda e: pure_tbl[id(e)](frame)
                )
                if result is not None:
                    charge_result(result, charge, on_iters, on_aggregate)
                    apply_array_updates(result.arrays)
                    for name, value in result.scalars.items():
                        frame[out_slots[name]] = value
                    # Loop variable's final value: start + trips * step
                    # (just start when no trip ran, as genuinely).
                    trips = result.loop_iterations.get(loop_key, 0)
                    start = pure_tbl[start_key](frame)
                    if trips:
                        start = start + trips * pure_tbl[step_key](frame)
                    frame[var_idx] = start
                    return _NORMAL
            # Genuine iteration.  Bounds are evaluated once at entry
            # (language semantics; matches the fast path).
            start = start_c(frame)
            stop = stop_c(frame)
            step = step_c(frame)
            if not isinstance(step, (int, float)) or step <= 0:
                raise bad_loop_step(step, fn_name)
            frame[var_idx] = start
            iters = 0
            result = _NORMAL
            while frame[var_idx] < stop:
                state[0] = n = state[0] + 1
                if n > limit:
                    raise step_limit_exceeded(fn_name, limit)
                charge(compute, iter_cost)
                iters += 1
                result = body_b(frame)
                flow = result[0]
                if flow:
                    if flow == FLOW_BREAK:
                        result = _NORMAL
                        break
                    if flow == FLOW_RETURN:
                        break
                    result = _NORMAL  # FLOW_CONTINUE: resume iteration
                frame[var_idx] = frame[var_idx] + step
            if iters:
                on_iters(fn_name, loop_id, iters)
            return result

        return for_

    def _collect_plan_exprs(self, plan: LoopPlan, table: dict[int, object]) -> None:
        """Pre-compile every pure expression a fast-path plan evaluates."""
        loop = plan.loop
        for expr in (loop.start, loop.stop, loop.step):
            if id(expr) not in table:
                table[id(expr)] = self._compile_expr(expr)
        for expr in [arg for _, arg in plan.intrinsics] + list(plan.refs.values()):
            if id(expr) not in table:
                table[id(expr)] = self._compile_expr(expr)
        for sub in plan.nested:
            self._collect_plan_exprs(sub, table)

    def _compile_while(self, stmt: While):
        engine = self.engine
        state = engine._steps_cell
        limit = engine.config.step_limit
        charge = engine._charge
        iter_cost = engine.config.loop_iter_cost
        compute = CostKind.COMPUTE
        fn_name = self.fn_name
        on_iters = engine._on_loop_iterations

        cond_c = self._compile_expr(stmt.cond)
        body_b = self._compile_block(stmt.body)
        loop_id = stmt.loop_id

        def while_(frame):
            state[0] = n = state[0] + 1
            if n > limit:
                raise step_limit_exceeded(fn_name, limit)
            iters = 0
            result = _NORMAL
            while truthy(cond_c(frame)):
                state[0] = n = state[0] + 1
                if n > limit:
                    raise step_limit_exceeded(fn_name, limit)
                charge(compute, iter_cost)
                iters += 1
                result = body_b(frame)
                flow = result[0]
                if flow:
                    if flow == FLOW_BREAK:
                        result = _NORMAL
                        break
                    if flow == FLOW_RETURN:
                        break
                    result = _NORMAL  # FLOW_CONTINUE: resume iteration
            if iters:
                on_iters(fn_name, loop_id, iters)
            return result

        return while_


class CompiledEngine:
    """Executes a program compiled to closures, metering simulated cost.

    Drop-in equivalent of :class:`~repro.interp.interpreter.Interpreter`
    (same constructor, same :meth:`run` contract, bit-identical
    :class:`~repro.interp.metrics.RunResult`, events and errors), minus
    the per-node ``_eval_*``/``_exec_*`` override hooks.

    The program is lowered once at construction; every subsequent
    :meth:`run` executes pre-dispatched closures.
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
        self._steps_cell = [0]
        self._depth = 0
        self._planner = FastPathPlanner(program, config)
        self._bind_event_sinks()
        self._compile_functions()

    def _compile_functions(self) -> None:
        """Lower every program function.

        Two-phase compile: create every function shell first so call
        sites (including recursive ones) bind their targets directly,
        then lower the bodies.
        """
        program = self.program
        self._functions: dict[str, CompiledFunction] = {
            name: CompiledFunction(self, fn)
            for name, fn in program.functions.items()
        }
        for name, fn in program.functions.items():
            _FunctionCompiler(self, fn).compile(self._functions[name])

    def _bind_event_sinks(self) -> None:
        """Pre-bind the metrics+listener event fan-out.

        When the listener is exactly a do-nothing :class:`NullListener`
        the listener half is dropped from the hot path entirely — an
        unobservable optimization (every dropped call was a no-op).
        """
        metrics = self.metrics
        listener = self.listener
        if type(listener) is NullListener:
            self._charge = metrics.cost_sink()
            self._on_enter = metrics.on_enter
            self._on_exit = metrics.on_exit
            self._on_loop_iterations = metrics.on_loop_iterations
            self._on_aggregate_calls = metrics.on_aggregate_calls
            return

        m_cost = metrics.cost_sink()
        l_cost = listener.on_cost
        m_enter = metrics.on_enter
        l_enter = listener.on_enter
        m_exit = metrics.on_exit
        l_exit = listener.on_exit
        m_iters = metrics.on_loop_iterations
        l_iters = listener.on_loop_iterations
        m_agg = metrics.on_aggregate_calls
        l_agg = listener.on_aggregate_calls

        def charge(kind: CostKind, amount: float) -> None:
            m_cost(kind, amount)
            l_cost(kind, amount)

        def on_enter(name: str) -> None:
            m_enter(name)
            l_enter(name)

        def on_exit(name: str) -> None:
            m_exit(name)
            l_exit(name)

        def on_loop_iterations(fn: str, loop_id: int, count: int) -> None:
            m_iters(fn, loop_id, count)
            l_iters(fn, loop_id, count)

        def on_aggregate_calls(
            callee: str, count: int, unit_compute: float, unit_memory: float
        ) -> None:
            m_agg(callee, count, unit_compute, unit_memory)
            l_agg(callee, count, unit_compute, unit_memory)

        self._charge = charge
        self._on_enter = on_enter
        self._on_exit = on_exit
        self._on_loop_iterations = on_loop_iterations
        self._on_aggregate_calls = on_aggregate_calls

    def close(self) -> None:
        """Release the lowered program.

        Every function's closures refer back to this engine, so an
        engine is a reference cycle that only a full garbage collection
        would free.  Clearing each function's body and engine reference
        breaks the cycle: the engine is freed by reference counting as
        soon as the caller drops it.  The engine cannot run afterwards.
        """
        for fn in self._functions.values():
            fn._body = None
            fn.engine = None
        self._functions.clear()

    # ------------------------------------------------------------------
    # entry point

    @property
    def steps(self) -> int:
        """Statements/iterations executed so far (across runs)."""
        return self._steps_cell[0]

    def run(
        self,
        args: Mapping[str, Value] | Sequence[Value] = (),
        entry: str | None = None,
    ) -> RunResult:
        """Execute the entry function with *args* and return the result."""
        name, _fn, argvals = resolve_entry_args(self.program, args, entry)
        value = self._functions[name].call(argvals)
        return RunResult(
            value=value, metrics=self.metrics, steps=self._steps_cell[0]
        )

    # ------------------------------------------------------------------
    # library calls

    def _call_library(self, name: str, args: Sequence[Value]) -> Value:
        return execute_library_call(
            self.runtime, name, args, self.metrics, self.listener, self._charge
        )
