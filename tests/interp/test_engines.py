"""Unit tests for the engine factory and the two built-in engines.

The randomized differential suite (``test_engine_differential.py``)
covers equivalence in bulk; these tests pin down the factory contract,
the improved limit errors, and specific constructs whose vectorized
lowering is easy to get subtly wrong (short-circuiting, fast-path
fallback, break/continue, recursion, re-runs), each compared with the
tree-walker, the scalar reference.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    ArityError,
    ExecutionLimitError,
    InterpreterError,
    UndefinedFunctionError,
    UndefinedVariableError,
)
from repro.interp import (
    CostKind,
    ExecConfig,
    Interpreter,
    TableRuntime,
    VectorizedEngine,
    make_engine,
)
from repro.interp.runtime import LibraryCall
from repro.interp.vectorize import EventRecorder
from repro.ir.builder import (
    ProgramBuilder,
    add,
    and_,
    call,
    gt,
    lt,
    mod,
    mul,
    or_,
    sub,
    var,
)
from repro.measure.instrumentation import full_plan
from repro.measure.profiler import BatchedScorePListener, profile_run

from test_engine_differential import (
    RecordingListener,
    assert_equivalent,
    run_one,
)


def simple_program():
    pb = ProgramBuilder()
    with pb.function("main", ["n"]) as f:
        f.assign("acc", 0)
        with f.for_("i", 0, var("n")):
            f.assign("acc", add(var("acc"), var("i")))
        f.ret(var("acc"))
    return pb.build(entry="main")


class TestMakeEngine:
    def test_tree_is_interpreter(self):
        engine = make_engine(simple_program(), "tree")
        assert isinstance(engine, Interpreter)

    def test_default_is_tree(self):
        assert isinstance(make_engine(simple_program()), Interpreter)

    def test_unknown_engine_lists_valid_names(self):
        with pytest.raises(ValueError) as err:
            make_engine(simple_program(), "jit")
        assert "jit" in str(err.value)
        assert "tree, vectorized" in str(err.value)

    def test_both_engines_same_value(self):
        for name in ("tree", "vectorized"):
            assert make_engine(simple_program(), name).run({"n": 5}).value == 10


class TestLimitErrors:
    def test_step_limit_names_function_and_limit(self):
        config = ExecConfig(step_limit=10)
        for engine in ("tree", "vectorized"):
            with pytest.raises(ExecutionLimitError) as err:
                make_engine(simple_program(), engine, config=config).run(
                    {"n": 100}
                )
            assert "'main'" in str(err.value)
            assert "10" in str(err.value)
            assert err.value.function == "main"
            assert err.value.limit == 10

    def test_call_depth_names_function_and_limit(self):
        pb = ProgramBuilder()
        with pb.function("down", ["n"]) as f:
            f.ret(call("down", sub(var("n"), 1)))
        with pb.function("main", ["n"]) as f:
            f.ret(call("down", var("n")))
        prog = pb.build(entry="main")
        config = ExecConfig(max_call_depth=16)
        for engine in ("tree", "vectorized"):
            with pytest.raises(ExecutionLimitError) as err:
                make_engine(prog, engine, config=config).run({"n": 99})
            assert "'down'" in str(err.value)
            assert "16" in str(err.value)
            assert err.value.function == "down"
            assert err.value.limit == 16

    def test_limit_errors_identical_across_engines(self):
        config = ExecConfig(step_limit=10)
        tree = run_one(simple_program(), "tree", {"n": 100}, config)
        vectorized = run_one(
            simple_program(), "vectorized", {"n": 100}, config
        )
        assert tree == vectorized
        assert tree[0] == "error"
        assert tree[1] == "ExecutionLimitError"


class TestCompiledConstructs:
    """Targeted lowering cases, each asserted bit-identical to the tree."""

    def _equiv(self, build, args, **config):
        pb = ProgramBuilder()
        build(pb)
        assert_equivalent(
            pb.build(entry="main"), args, ExecConfig(step_limit=50_000, **config)
        )

    def test_short_circuit_skips_side_effects(self):
        # The rhs call must not execute (no events) when lhs decides.
        def build(pb):
            with pb.function("probe", []) as f:
                f.work(7.0)
                f.ret(1)
            with pb.function("main", ["a"]) as f:
                f.assign("x", and_(lt(var("a"), 0), call("probe")))
                f.assign("y", or_(gt(var("a"), -1), call("probe")))
                f.ret(add(var("x"), var("y")))

        self._equiv(build, {"a": 3})

    def test_break_continue_in_nested_loops(self):
        def build(pb):
            with pb.function("main", ["n"]) as f:
                f.assign("acc", 0)
                with f.for_("i", 0, var("n")):
                    with f.for_("j", 0, var("n")):
                        with f.if_(gt(var("j"), 2)):
                            f.brk()
                        with f.if_(mod(var("j"), 2)):
                            f.cont()
                        f.assign("acc", add(var("acc"), 1))
                    with f.if_(gt(var("acc"), 5)):
                        f.brk()
                f.ret(var("acc"))

        self._equiv(build, {"n": 6})

    def test_while_with_continue(self):
        def build(pb):
            with pb.function("main", ["n"]) as f:
                f.assign("k", 0)
                f.assign("acc", 0)
                with f.while_(lt(var("k"), var("n"))):
                    f.assign("k", add(var("k"), 1))
                    with f.if_(mod(var("k"), 2)):
                        f.cont()
                    f.assign("acc", add(var("acc"), var("k")))
                f.ret(var("acc"))

        self._equiv(build, {"n": 9})

    def test_fastpath_nest_with_aggregated_calls(self):
        def build(pb):
            with pb.function("get", ["i"], kind="accessor") as f:
                f.assign("v", mul(var("i"), 2.0))
                f.work(1.5)
                f.ret(var("v"))
            with pb.function("main", ["n"]) as f:
                with f.for_("i", 0, var("n")):
                    with f.for_("j", 0, var("n")):
                        f.work(3.0)
                        f.call("get", var("j"))
                f.ret(var("i"))

        self._equiv(build, {"n": 7}, fast_loops=True)
        self._equiv(build, {"n": 7}, fast_loops=False)

    def test_fastpath_runtime_fallback_zero_trip(self):
        # Eligible shape but zero trips at run time: both engines agree.
        def build(pb):
            with pb.function("main", ["n"]) as f:
                with f.for_("i", 0, var("n")):
                    f.work(5.0)
                f.ret(var("i"))

        self._equiv(build, {"n": 0}, fast_loops=True)

    def test_loop_variable_final_value_after_fastpath(self):
        def build(pb):
            with pb.function("main", ["n"]) as f:
                with f.for_("i", 0, var("n"), step=2):
                    f.work(1.0)
                f.ret(var("i"))

        self._equiv(build, {"n": 9}, fast_loops=True)
        self._equiv(build, {"n": 9}, fast_loops=False)

    def test_recursion(self):
        def build(pb):
            with pb.function("fib", ["n"]) as f:
                with f.if_(lt(var("n"), 2)):
                    f.ret(var("n"))
                f.ret(
                    add(
                        call("fib", sub(var("n"), 1)),
                        call("fib", sub(var("n"), 2)),
                    )
                )
            with pb.function("main", ["n"]) as f:
                f.ret(call("fib", var("n")))

        self._equiv(build, {"n": 9})

    def test_bad_loop_step_error_parity(self):
        def build(pb):
            with pb.function("main", ["n"]) as f:
                with f.for_("i", 0, 10, step=var("n")):
                    f.work(1.0)
                f.ret(0)

        self._equiv(build, {"n": 0})
        self._equiv(build, {"n": -1})

    def test_undefined_variable_and_function_parity(self):
        def build(pb):
            with pb.function("main", ["n"]) as f:
                with f.if_(gt(var("n"), 5)):
                    f.assign("x", var("never_assigned"))
                with f.if_(gt(var("n"), 10)):
                    f.assign("y", call("no_such_function"))
                f.ret(var("n"))

        self._equiv(build, {"n": 3})
        self._equiv(build, {"n": 7})
        self._equiv(build, {"n": 11})

    def test_store_to_non_array_parity(self):
        def build(pb):
            with pb.function("main", ["n"]) as f:
                f.assign("a", 3)
                f.store("a", 0, var("n"))
                f.ret(0)

        self._equiv(build, {"n": 1})

    def test_arity_error_parity(self):
        # Wrong-arity call sites are rejected by IR validation, so the
        # runtime check only triggers through direct engine invocation.
        pb = ProgramBuilder()
        with pb.function("two", ["a", "b"]) as f:
            f.ret(add(var("a"), var("b")))
        with pb.function("main", []) as f:
            f.ret(call("two", 1, 2))
        prog = pb.build(entry="main")
        with pytest.raises(ArityError) as err:
            make_engine(prog, "tree")._call_function("two", [1])
        assert str(err.value) == "function 'two' expects 2 argument(s), got 1"

    def test_missing_entry_argument_parity(self):
        prog = simple_program()
        config = ExecConfig()
        tree = run_one(prog, "tree", {}, config)
        vectorized = run_one(prog, "vectorized", {}, config)
        assert tree == vectorized
        assert tree[0] == "error"


class TestCompiledEngineBehavior:
    def test_metrics_accumulate_across_runs_like_tree(self):
        """A reused tree-walker accumulates: three runs meter what three
        fresh engines meter together."""
        prog = simple_program()
        tree = make_engine(prog, "tree")
        for _ in range(3):
            t = tree.run({"n": 4})
        fresh = [
            make_engine(prog, "vectorized").run({"n": 4}) for _ in range(3)
        ]
        assert t.steps == sum(r.steps for r in fresh) == 33
        assert t.metrics.totals == {
            kind: sum(r.metrics.totals[kind] for r in fresh)
            for kind in CostKind
        }
        assert t.metrics.loop_iterations == {("main", 0): 12}

    def test_library_calls_and_listener_events(self):
        pb = ProgramBuilder()
        with pb.function("main", ["n"]) as f:
            f.assign("x", call("LIB_double", var("n")))
            f.ret(var("x"))
        prog = pb.build(entry="main")

        def run(engine):
            rt = TableRuntime()
            rt.register(
                "LIB_double",
                lambda x: LibraryCall(
                    value=x * 2, costs={CostKind.COMM: 4.0}
                ),
            )
            listener = RecordingListener()
            result = make_engine(
                prog, engine, runtime=rt, listener=listener
            ).run({"n": 21})
            return result.value, listener.events

        assert run("tree") == run("vectorized")
        assert run("vectorized")[0] == 42


class TestUniformNests:
    """Pure-cost nests whose operands are uniform on the active lanes run
    once through the scalar planner, with events on the lane set."""

    def test_batch_matches_tree_per_lane(self):
        pb = ProgramBuilder()
        with pb.function("leaf", ["x"], kind="accessor") as f:
            f.assign("v", mul(var("x"), 2.0))
            f.work(3.0)
            f.ret(var("v"))
        with pb.function("main", ["n", "w"]) as f:
            # 2**56 trips in all: past float64's exact integers
            with f.for_("i", 0, var("n")):
                with f.for_("j", 0, var("n")):
                    f.work(1.0)
            # a fractional step: the plan is invalid, the loop iterates
            with f.for_("k", 0, 3, step=0.5):
                f.work(2.0)
            # uniform bounds, a work amount that differs by lane
            with f.for_("m", 0, 5):
                f.work(var("w"))
            # a leaf call in a uniform nest under a divergent branch
            with f.if_(gt(var("w"), 2)):
                with f.for_("q", 0, 4):
                    f.call("leaf", var("q"))
            f.ret(add(add(var("i"), var("j")), add(var("k"), var("m"))))
        prog = pb.build(entry="main")
        plan = full_plan(prog)
        args_list = [{"n": 2**28, "w": lane} for lane in range(5)]

        # Vector listeners make any fallback raise: the batch must stay
        # in the tensor pass.
        recorder = EventRecorder(len(args_list))
        profiler = BatchedScorePListener(plan, len(args_list))
        batch = VectorizedEngine(prog).run_batch(
            args_list, vector_listeners=[recorder, profiler]
        )
        for lane, args in enumerate(args_list):
            listener = RecordingListener()
            want = Interpreter(prog, listener=listener).run(args)
            got = batch[lane]
            events = RecordingListener()
            recorder.replay(lane, events)
            assert got.value == want.value == 2**29 + 8.0
            assert got.steps == want.steps
            assert got.metrics.totals == want.metrics.totals
            assert got.metrics.functions == want.metrics.functions
            assert got.metrics.loop_iterations == want.metrics.loop_iterations
            assert events.events == listener.events
            profile = profile_run(prog, args, plan)
            nodes = profiler.lane_nodes(lane)
            assert list(nodes) == list(profile.nodes)
            assert nodes == profile.nodes
            assert profiler.lane_loop_iterations(lane) == profile.loop_iterations
