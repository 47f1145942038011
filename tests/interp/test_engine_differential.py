"""Differential property tests: vectorized engine ≡ tree-walking engine.

The vectorized engine must be *bit-identical* to the tree-walker, the
scalar reference — same ``RunResult`` (value, steps, totals,
per-function metrics, loop iterations), same execution-event streams,
and the same raised errors at the same point — in scalar runs (a batch
of width one) and in every lane of a batch, over randomized IR programs
and over all bundled apps.  These tests are the license for the
measurement layer to default to the vectorized engine.

The **taint** analysis domain has one engine, the shadow-tracking
tree-walker, with two loop modes: with ``fast_loops`` on it runs
pure-cost nests in closed form, with it off it iterates every trip.  The
two must produce identical ``TaintReport`` objects (loop/branch/library
records with their parameter sets and call paths, implicit flows,
warnings, executed-function sets) plus identical values, metrics, steps
and errors — the license for taint runs to take the closed form.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import encode
from repro.interp import (
    CostKind,
    ExecConfig,
    FastPathPlanner,
    Interpreter,
    TableRuntime,
    VectorizedEngine,
    make_engine,
)
from repro.interp.runtime import LibraryCall
from repro.ir.builder import (
    ProgramBuilder,
    add,
    binop,
    call,
    const,
    intrinsic,
    load,
    lt,
    min_,
    mod,
    mul,
    neg,
    sub,
    var,
)
from repro.measure.instrumentation import full_plan
from repro.measure.profiler import profile_run, profile_run_batch


class RecordingListener:
    """Captures the full execution-event stream for exact comparison."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_enter(self, function):
        self.events.append(("enter", function))

    def on_exit(self, function):
        self.events.append(("exit", function))

    def on_cost(self, kind, amount):
        self.events.append(("cost", kind, amount))

    def on_loop_iterations(self, function, loop_id, count):
        self.events.append(("iters", function, loop_id, count))

    def on_aggregate_calls(self, callee, count, unit_compute, unit_memory):
        self.events.append(("agg", callee, count, unit_compute, unit_memory))


def _lib_cost(x) -> LibraryCall:
    """A routine whose cost kinds, their order and their amounts depend
    on its argument, so the lanes of one call site charge differently."""
    amount = float(abs(x)) + 0.5
    costs = (
        {},
        {CostKind.COMM: amount},
        {CostKind.COMPUTE: 1.0, CostKind.COMM: amount},
        {CostKind.COMM: 2.0, CostKind.COMPUTE: amount},
    )[int(x) % 4]
    return LibraryCall(value=x + 1, costs=costs)


def _runtime() -> TableRuntime:
    rt = TableRuntime()
    rt.register(
        "LIB_scale",
        lambda x: LibraryCall(value=x * 2, costs={CostKind.COMM: 5.0}),
    )
    rt.register("LIB_cost", _lib_cost)
    return rt


def run_one(program, engine: str, args, config: ExecConfig):
    """Run *program* on *engine*; canonicalize outcome (result or error)."""
    listener = RecordingListener()
    eng = make_engine(
        program, engine, runtime=_runtime(), config=config, listener=listener
    )
    try:
        result = eng.run(args)
    except Exception as exc:  # noqa: BLE001 - error parity is the point
        return ("error", type(exc).__name__, str(exc), listener.events)
    functions = {
        name: (fm.calls, fm.compute, fm.memory, fm.comm)
        for name, fm in result.metrics.functions.items()
    }
    return (
        "ok",
        result.value,
        result.steps,
        dict(result.metrics.totals),
        functions,
        dict(result.metrics.loop_iterations),
        listener.events,
    )


def assert_equivalent(program, args, config: ExecConfig) -> None:
    tree = run_one(program, "tree", args, config)
    vectorized = run_one(program, "vectorized", args, config)
    assert tree == vectorized, (
        f"engines diverged\ntree:       {tree!r}\n"
        f"vectorized: {vectorized!r}"
    )


# ----------------------------------------------------------------------
# randomized program generation

ARITH_OPS = ("+", "-", "*", "min", "max")
CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


def _gen_expr(draw, names: list[str], depth: int):
    """A random arithmetic expression over the defined *names*."""
    if depth <= 0 or draw(st.integers(0, 3)) == 0:
        if names and draw(st.booleans()):
            return var(draw(st.sampled_from(names)))
        return const(draw(st.integers(-3, 5)))
    choice = draw(st.integers(0, 4))
    if choice <= 1:
        op = draw(st.sampled_from(ARITH_OPS))
        return binop(
            op,
            _gen_expr(draw, names, depth - 1),
            _gen_expr(draw, names, depth - 1),
        )
    if choice == 2:
        return mod(_gen_expr(draw, names, depth - 1), const(draw(st.integers(1, 4))))
    if choice == 3:
        return neg(_gen_expr(draw, names, depth - 1))
    return intrinsic("abs", _gen_expr(draw, names, depth - 1))


def _gen_cond(draw, names: list[str]):
    op = draw(st.sampled_from(CMP_OPS))
    return binop(op, _gen_expr(draw, names, 1), _gen_expr(draw, names, 1))


def _gen_block(draw, f, names: list[str], depth: int, in_loop: bool) -> None:
    """Emit 1-4 random statements into builder *f* (mutates *names*)."""
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.integers(0, 9))
        if kind <= 2:  # assignment (possibly to a fresh local)
            if names and draw(st.booleans()):
                name = draw(st.sampled_from(names))
            else:
                name = f"t{len(names)}"
            f.assign(name, _gen_expr(draw, names, 2))
            if name not in names:
                names.append(name)
        elif kind == 3:  # cost intrinsic (sometimes negative -> error parity)
            amount = _gen_expr(draw, names, 1)
            if draw(st.booleans()):
                amount = intrinsic("abs", amount)
            f.work(amount)
        elif kind == 4 and depth > 0:  # counted loop
            loop_var = f"i{depth}{len(names)}"
            stop = min_(_gen_expr(draw, names, 1), const(draw(st.integers(0, 5))))
            if draw(st.booleans()):
                # Pure-cost nest: eligible for the O(1) fast path.  Its
                # loop variables are readable afterwards (undefined where
                # a level was never entered).
                if draw(st.booleans()):
                    stop = _gen_stop(draw, names)
                with f.for_(loop_var, 0, stop):
                    nest_vars = _gen_pure_body(draw, f, names, [loop_var], 2)
                names += [loop_var] + nest_vars
            else:
                with f.for_(loop_var, 0, stop):
                    inner = names + [loop_var]
                    _gen_block(draw, f, inner, depth - 1, in_loop=True)
        elif kind == 5 and depth > 0:  # bounded while
            counter = f"w{depth}{len(names)}"
            f.assign(counter, 0)
            bound = draw(st.integers(0, 4))
            with f.while_(lt(var(counter), bound)):
                f.assign(counter, add(var(counter), 1))
                inner = names + [counter]
                _gen_block(draw, f, inner, depth - 1, in_loop=True)
        elif kind == 6 and depth > 0:  # branch
            with f.if_(_gen_cond(draw, names)):
                _gen_block(draw, f, list(names), depth - 1, in_loop)
            with f.else_():
                _gen_block(draw, f, list(names), depth - 1, in_loop)
        elif kind == 7 and in_loop:  # guarded break/continue
            with f.if_(_gen_cond(draw, names)):
                if draw(st.booleans()):
                    f.brk()
                else:
                    f.cont()
        elif kind == 8:  # array traffic (indices mostly in bounds)
            arr = f"arr{len(names)}"
            f.alloc(arr, 4)
            f.store(arr, mod(_gen_expr(draw, names, 1), 4), _gen_expr(draw, names, 1))
            f.assign(f"t{len(names)}", load(arr, mod(_gen_expr(draw, names, 1), 4)))
            names.append(f"t{len(names)}")
        else:  # call (program function or library routine)
            callee = draw(
                st.sampled_from(["leaf", "helper", "LIB_scale", "LIB_cost"])
            )
            target = f"t{len(names)}"
            if callee == "helper":
                f.assign(
                    target,
                    call(callee, _gen_expr(draw, names, 1), _gen_expr(draw, names, 1)),
                )
            else:
                f.assign(target, call(callee, _gen_expr(draw, names, 1)))
            names.append(target)


def _gen_stop(draw, names: list[str]):
    """A loop bound over one defined name, capped at 4 trips."""
    bound = draw(st.sampled_from(names + ["a+1"]))
    bound = add(var("a"), 1) if bound == "a+1" else var(bound)
    return min_(bound, const(draw(st.integers(0, 4))))


def _gen_pure_body(draw, f, names: list[str], loop_vars: list[str], depth: int):
    """Emit a pure-cost loop body: cost intrinsics, ``leaf`` calls and
    nested pure loops whose bounds read the names defined before the nest
    (the tainted entry parameters among them, so levels carry labels and
    may run zero trips).  *loop_vars* are the enclosing loop variables,
    innermost last.  Returns the nested loop variables."""
    nest_vars: list[str] = []
    for k in range(draw(st.integers(1, 3))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            f.work(float(draw(st.integers(1, 9))))
        elif kind == 1:
            f.mem_work(float(draw(st.integers(1, 9))))
        elif kind == 2:
            # An argument over the enclosing loop variables (the
            # workloads' form, planned) or over any name defined before
            # the nest (possibly unbound: the nest then iterates).
            scope = loop_vars if draw(st.booleans()) else names
            f.call("leaf", _gen_expr(draw, scope, 1))
        elif depth > 0:
            inner = f"{loop_vars[-1]}_{k}"
            start = draw(st.sampled_from([const(0), const(1), var("b")]))
            step = draw(
                st.sampled_from([const(1), const(2), add(mod(var("a"), 2), 1)])
            )
            with f.for_(inner, start, _gen_stop(draw, names), step):
                nest_vars.append(inner)
                nest_vars += _gen_pure_body(
                    draw, f, names, loop_vars + [inner], depth - 1
                )
    return nest_vars


@st.composite
def programs(draw):
    pb = ProgramBuilder()
    with pb.function("leaf", ["x"], kind="accessor") as f:
        f.assign("v", mul(var("x"), 2.0))
        f.work(3.0)
        f.ret(var("v"))
    with pb.function("helper", ["n", "m"]) as f:
        f.assign("acc", 0)
        with f.for_("i", 0, min_(var("n"), 6)):
            f.assign("acc", add(var("acc"), call("leaf", var("i"))))
            f.work(2.0)
        f.ret(add(var("acc"), var("m")))
    with pb.function("main", ["a", "b"]) as f:
        names = ["a", "b"]
        _gen_block(draw, f, names, depth=2, in_loop=False)
        f.ret(_gen_expr(draw, names, 1))
    return pb.build(entry="main")


def _gen_total_expr(draw, names: list[str], depth: int):
    """A random expression the planner proves cannot raise (``+ - *
    min max`` over *names* and small constants), as a planned leaf call's
    argument must be."""
    if depth <= 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return var(draw(st.sampled_from(names)))
        return const(draw(st.integers(-3, 5)))
    return binop(
        draw(st.sampled_from(ARITH_OPS)),
        _gen_total_expr(draw, names, depth - 1),
        _gen_total_expr(draw, names, depth - 1),
    )


def _gen_nest_level(draw, f, loop_vars: list[str], levels: int) -> None:
    """Open one level of a planned pure-cost nest inside builder *f*.

    Its start, stop and step read the tainted entry parameters as in
    :func:`_gen_pure_body` (so a level may run zero trips); its body
    holds cost intrinsics, ``leaf`` calls over the enclosing loop
    variables, and, while *levels* remain, the next level."""
    name = f"n{len(loop_vars)}"
    start = draw(st.sampled_from([const(0), const(1), var("b")]))
    step = draw(st.sampled_from([const(1), const(2), add(mod(var("a"), 2), 1)]))
    with f.for_(name, start, _gen_stop(draw, ["a", "b"]), step):
        scope = loop_vars + [name]
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.integers(0, 2))
            if kind == 0:
                f.work(float(draw(st.integers(1, 9))))
            elif kind == 1:
                f.mem_work(float(draw(st.integers(1, 9))))
            else:
                f.call("leaf", _gen_total_expr(draw, scope, 1))
        if levels > 1:
            _gen_nest_level(draw, f, scope, levels - 1)


@st.composite
def planned_nests(draw):
    """``main(a, b)`` is one planned pure-cost nest of 2-3 levels."""
    pb = ProgramBuilder()
    with pb.function("leaf", ["x"], kind="accessor") as f:
        f.assign("v", mul(var("x"), 2.0))
        f.work(3.0)
        f.ret(var("v"))
    with pb.function("main", ["a", "b"]) as f:
        _gen_nest_level(draw, f, [], draw(st.integers(2, 3)))
        f.ret(var("a"))
    return pb.build(entry="main")


class TestRandomizedDifferential:
    @given(program=programs(), a=st.integers(0, 6), b=st.integers(0, 6))
    @settings(max_examples=25, deadline=None)
    def test_step_limit_errors_identical(self, program, a, b):
        """Tiny step budget: both engines must fail at the same step with
        the same message (which names the function and the limit)."""
        config = ExecConfig(step_limit=7)
        tree = run_one(program, "tree", {"a": a, "b": b}, config)
        vectorized = run_one(program, "vectorized", {"a": a, "b": b}, config)
        assert tree == vectorized


def _canon_lane(result, events):
    """Canonicalize one lane outcome (RunResult or raised error)."""
    if isinstance(result, Exception):
        return ("error", type(result).__name__, str(result), tuple(events))
    return (
        "ok",
        result.value,
        result.steps,
        dict(result.metrics.totals),
        {
            name: (fm.calls, fm.compute, fm.memory, fm.comm)
            for name, fm in result.metrics.functions.items()
        },
        dict(result.metrics.loop_iterations),
        tuple(events),
    )


class TestVectorizedDifferential:
    """Vectorized engine ≡ tree — scalar runs and every lane of every
    batch width (the license for the batched measurement layer)."""

    @given(
        program=programs(),
        a=st.integers(0, 6),
        b=st.integers(-2, 6),
        fast_loops=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_scalar_run_bit_identical(self, program, a, b, fast_loops):
        # Bounded step budget: random assignments can reset a while
        # counter into an infinite loop; both engines must then raise the
        # identical limit error instead of hanging the test.
        config = ExecConfig(fast_loops=fast_loops, step_limit=20_000)
        assert_equivalent(program, {"a": a, "b": b}, config)

    @given(program=programs())
    @settings(max_examples=60, deadline=None)
    def test_batch_lanes_bit_identical(self, program):
        """Widths 1 and 7, divergent per-lane arguments: every lane's
        result, metrics, and event stream must equal a dedicated
        tree-walker run of that lane — including raised errors."""
        config = ExecConfig(step_limit=20_000)
        for width in (1, 7):
            args_list = [{"a": 3 + lane, "b": 4 - lane} for lane in range(width)]
            reference = []
            for args in args_list:
                listener = RecordingListener()
                engine = Interpreter(
                    program,
                    runtime=_runtime(),
                    config=config,
                    listener=listener,
                )
                try:
                    outcome = engine.run(args)
                except Exception as exc:  # noqa: BLE001 - error parity
                    outcome = exc
                reference.append(_canon_lane(outcome, listener.events))
            listeners = [RecordingListener() for _ in range(width)]
            batch = VectorizedEngine(program, config=config).run_batch(
                args_list,
                lane_runtimes=[_runtime() for _ in range(width)],
                lane_listeners=listeners,
                collect_errors=True,
            )
            got = [
                _canon_lane(outcome, listeners[lane].events)
                for lane, outcome in enumerate(batch)
            ]
            assert got == reference, (
                f"lanes diverged at width {width}\n"
                f"reference: {reference!r}\ngot:       {got!r}"
            )

    @given(program=programs())
    @settings(max_examples=40, deadline=None)
    def test_batch_profiles_bit_identical(self, program):
        """``profile_run_batch`` ≡ the tree-walker's ``profile_run`` on
        every lane: node values, the first-touch node order (which
        the codec's payload sorts away) and the flat view that folds the
        nodes in that order — or the same error."""
        config = ExecConfig(step_limit=20_000)
        plan = full_plan(program)
        args_list = [{"a": 3 + lane, "b": 4 - lane} for lane in range(7)]

        def batch():
            return profile_run_batch(
                program,
                args_list,
                plan,
                runtimes=[_runtime() for _ in args_list],
                exec_config=config,
            )

        try:
            reference = [
                profile_run(
                    program, args, plan, runtime=_runtime(), exec_config=config
                )
                for args in args_list
            ]
        except Exception as exc:  # noqa: BLE001 - error parity
            with pytest.raises(type(exc)) as err:
                batch()
            assert str(err.value) == str(exc)
            return
        for want, got in zip(reference, batch()):
            assert encode(got) == encode(want)
            assert list(got.nodes) == list(want.nodes)
            assert got.flat() == want.flat()


def run_taint(program, args, config: ExecConfig, policy=None):
    """Run taint analysis under *config*; canonicalize outcome or error."""
    from repro.taint.engine import TaintEngine
    from repro.taint.policy import FULL_POLICY

    taint = TaintEngine(
        program,
        runtime=_runtime(),
        config=config,
        policy=policy or FULL_POLICY,
    )
    try:
        result = taint.analyze(args, {"a": "a", "b": "b"})
    except Exception as exc:  # noqa: BLE001 - error parity is the point
        return ("error", type(exc).__name__, str(exc), taint.report)
    return (
        "ok",
        result.value,
        result.report,
        dict(result.metrics.totals),
        dict(result.metrics.loop_iterations),
        {
            name: (fm.calls, fm.compute, fm.memory, fm.comm)
            for name, fm in result.metrics.functions.items()
        },
        taint._engine._steps,  # the closed form charges genuine steps
    )


def assert_closed_form_matches(program, args, config: ExecConfig, policy=None):
    """Closed form (``fast_loops`` on) ≡ genuine iteration (off); returns
    the genuine outcome."""
    genuine = run_taint(
        program, args, replace(config, fast_loops=False), policy
    )
    closed = run_taint(program, args, replace(config, fast_loops=True), policy)
    assert closed == genuine, (
        f"closed form diverged\ngenuine: {genuine!r}\nclosed:  {closed!r}"
    )
    return genuine


def _taint_policy(name: str):
    from repro.taint.policy import DATAFLOW_ONLY, FULL_POLICY, PropagationPolicy

    return {
        "full": FULL_POLICY,
        "dataflow": DATAFLOW_ONLY,
        "implicit": PropagationPolicy(implicit_flow=True),
    }[name]


def _error_programs():
    """Programs genuine iteration fails in at ``a=2, b=0``, or ``b=-1``
    for a negative amount, each inside a loop nest the closed form must
    leave to genuine iteration."""

    def build(body, leaf_params=("x",)):
        pb = ProgramBuilder()
        with pb.function("leaf", list(leaf_params), kind="accessor") as f:
            f.assign("v", mul(var("x"), 2.0))
            f.work(3.0)
            f.ret(var("v"))
        with pb.function("main", ["a", "b"]) as f:
            with f.for_("i", 0, var("a")):
                body(f)
        return pb.build(entry="main")

    def negative_work(f):
        f.work(var("b"))

    def unbound_argument(f):
        f.call("leaf", var("nowhere"))

    def failing_bound_after_sibling(f):
        with f.for_("j", 0, var("a")):
            f.work(1.0)
        with f.for_("k", 0, binop("//", var("a"), var("b"))):
            f.work(1.0)

    out = {
        fn.__name__: build(fn)
        for fn in (negative_work, unbound_argument, failing_bound_after_sibling)
    }
    # Validation rejects a wrong-arity call, so the callee is swapped
    # after it (as for a Program constructed without Program.build).
    wrong = build(lambda f: f.call("leaf", var("i"), var("i")), ("x", "y"))
    wrong.functions["leaf"] = out["negative_work"].function("leaf")
    out["wrong_arity"] = wrong
    return out


class TestTaintDifferential:
    """Closed-form taint ≡ genuine-iteration taint, report-bit-identical:
    the subject runs pure-cost nests in closed form (``fast_loops`` on),
    the reference is the same engine iterating every trip."""

    @given(
        program=programs(),
        a=st.integers(0, 6),
        b=st.integers(-2, 6),
        policy=st.sampled_from(["full", "dataflow", "implicit"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_taint_reports_bit_identical(self, program, a, b, policy):
        config = ExecConfig(step_limit=20_000)
        assert_closed_form_matches(
            program, {"a": a, "b": b}, config, _taint_policy(policy)
        )

    @given(program=planned_nests(), a=st.integers(0, 6), b=st.integers(-2, 6))
    @settings(max_examples=30, deadline=None)
    def test_planned_nest_reports_bit_identical(self, program, a, b):
        """Every level of a planned multi-level nest records its sink in
        closed form as genuine iteration does, under every policy."""
        config = ExecConfig(step_limit=20_000)
        nest = program.function("main").body[0]
        plan = FastPathPlanner(program, config).plan("main", nest)
        assert plan is not None and plan.nested
        for policy in ("full", "dataflow", "implicit"):
            assert_closed_form_matches(
                program, {"a": a, "b": b}, config, _taint_policy(policy)
            )

    @pytest.mark.parametrize("case", sorted(_error_programs()))
    @pytest.mark.parametrize("policy", ["full", "implicit"])
    def test_errors_identical(self, case, policy):
        """The error and the partial report at the point genuine
        iteration raises it."""
        program = _error_programs()[case]
        config = ExecConfig(step_limit=20_000)
        args = {"a": 2, "b": -1 if case == "negative_work" else 0}
        genuine = assert_closed_form_matches(
            program, args, config, _taint_policy(policy)
        )
        assert genuine[0] == "error"

    @given(program=programs(), a=st.integers(0, 6), b=st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_dataflow_only_policy_identical(self, program, a, b):
        from repro.taint.policy import DATAFLOW_ONLY

        config = ExecConfig(step_limit=20_000)
        assert_closed_form_matches(
            program, {"a": a, "b": b}, config, DATAFLOW_ONLY
        )

    @staticmethod
    def _assert_app_taint_matches(workload, genuine_iteration) -> None:
        from repro.core.stages import run_taint_stage
        from repro.libdb.mpi_models import MPI_DATABASE
        from repro.taint.policy import FULL_POLICY

        program = workload.program()
        closed, genuine = (
            run_taint_stage(w, program, FULL_POLICY, MPI_DATABASE.copy())
            for w in (workload, genuine_iteration(workload))
        )
        assert closed == genuine
        # The canonical artifact payload (what campaign workspaces
        # persist) must match bit for bit as well.
        assert encode(closed) == encode(genuine)

    def test_lulesh(self, genuine_iteration):
        from repro.apps.lulesh import LuleshWorkload

        self._assert_app_taint_matches(LuleshWorkload(), genuine_iteration)

    def test_milc(self, genuine_iteration):
        from repro.apps.milc import MilcWorkload

        self._assert_app_taint_matches(MilcWorkload(), genuine_iteration)

    def test_synthetic(self, genuine_iteration):
        from repro.apps.synthetic import make_scaling_workload

        self._assert_app_taint_matches(
            make_scaling_workload(), genuine_iteration
        )


class TestAppDifferential:
    """Bit-identical profiles on every bundled application."""

    def _assert_profiles_match(self, workload, config) -> None:
        program = workload.program()
        plan = full_plan(program)
        profiles = []
        for engine in ("tree", "vectorized"):
            setup = workload.setup(config)
            profiles.append(
                profile_run(
                    program,
                    setup.args,
                    plan,
                    runtime=setup.runtime,
                    exec_config=setup.exec_config,
                    entry=setup.entry,
                    engine=engine,
                )
            )
        tree, vectorized = profiles
        assert encode(tree) == encode(vectorized)
        assert tree.total_time() == vectorized.total_time()

    def test_lulesh(self):
        from repro.apps.lulesh import LuleshWorkload

        workload = LuleshWorkload()
        self._assert_profiles_match(workload, workload.taint_config())

    def test_milc(self):
        from repro.apps.milc import MilcWorkload

        workload = MilcWorkload()
        self._assert_profiles_match(workload, workload.taint_config())

    def test_synthetic(self):
        from repro.apps.synthetic import make_scaling_workload

        workload = make_scaling_workload()
        self._assert_profiles_match(workload, {"p": 6.0, "s": 9.0})
