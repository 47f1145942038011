"""Fast-path equivalence: closed-form loop execution must match genuine
iteration exactly — time, loop counts, and call counts."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp import (
    Array,
    BatchedMetrics,
    ExecConfig,
    Interpreter,
    VectorizedEngine,
    make_engine,
)
from repro.interp.fastpath import FastPathPlanner, leaf_unit_cost
from repro.ir import ProgramBuilder, add, call, mul, var
from repro.ir.builder import floordiv, load, mod, sub

ENGINES = ["tree", "vectorized"]


def both_runs(prog, args):
    slow = Interpreter(prog, config=ExecConfig(fast_loops=False)).run(args)
    fast = Interpreter(prog, config=ExecConfig(fast_loops=True)).run(args)
    return slow, fast


def assert_equivalent(prog, args):
    slow, fast = both_runs(prog, args)
    assert slow.time == pytest.approx(fast.time)
    assert dict(slow.metrics.loop_iterations) == dict(
        fast.metrics.loop_iterations
    )
    for name in prog.functions:
        assert slow.metrics.calls_of(name) == fast.metrics.calls_of(name)
    assert slow.value == fast.value


def cost_nest_program(depth=2, with_calls=True):
    pb = ProgramBuilder()
    with pb.function("getter", ["i"], kind="accessor") as f:
        f.assign("v", mul(var("i"), 2.0))
        f.work(2)
        f.ret(var("v"))
    with pb.function("main", ["n", "m"]) as f:
        outer = f.for_("i", 0, f.var("n"))
        with outer:
            f.work(5)
            if with_calls:
                f.call("getter", f.var("i"))
            with f.for_("j", 0, f.var("m")):
                f.mem_work(3)
    return pb.build(entry="main")


class TestEquivalence:
    @given(
        n=st.integers(min_value=0, max_value=40),
        m=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_nest_equivalence(self, n, m):
        assert_equivalent(cost_nest_program(), {"n": n, "m": m})

    def test_empty_loop(self):
        assert_equivalent(cost_nest_program(), {"n": 0, "m": 5})

    def test_fractional_bounds(self):
        pb = ProgramBuilder()
        with pb.function("main", ["n"]) as f:
            with f.for_("i", 0, f.var("n"), 2):
                f.work(1)
        prog = pb.build(entry="main")
        assert_equivalent(prog, {"n": 7})

    def test_loop_var_final_value(self):
        pb = ProgramBuilder()
        with pb.function("main", ["n"]) as f:
            with f.for_("i", 0, f.var("n"), 3):
                f.work(1)
            f.ret(var("i"))
        prog = pb.build(entry="main")
        slow, fast = both_runs(prog, {"n": 10})
        assert slow.value == fast.value

    def test_invariant_cost_amount(self):
        pb = ProgramBuilder()
        with pb.function("main", ["n", "c"]) as f:
            with f.for_("i", 0, f.var("n")):
                f.work(mul(var("c"), 3))
        prog = pb.build(entry="main")
        assert_equivalent(prog, {"n": 9, "c": 4})


class TestFastPathSpeed:
    def test_huge_nest_is_instant(self):
        prog = cost_nest_program()
        res = Interpreter(prog).run({"n": 10**6, "m": 10**6})
        assert res.metrics.iterations_of("main", 1) == 10**12
        # slow path would need 10^12 steps; the fast path uses O(1)
        assert res.steps < 1000


class TestEligibility:
    def test_store_in_body_disables(self):
        pb = ProgramBuilder()
        with pb.function("main", ["n"]) as f:
            f.alloc("a", 100)
            with f.for_("i", 0, 50):
                f.store("a", var("i"), 1)
        prog = pb.build(entry="main")
        planner = FastPathPlanner(prog, ExecConfig())
        loop = prog.function("main").loops()[0]
        assert planner.plan("main", loop) is None

    def test_assign_in_body_disables(self):
        pb = ProgramBuilder()
        with pb.function("main", ["n"]) as f:
            with f.for_("i", 0, f.var("n")):
                f.assign("x", var("i"))
        prog = pb.build(entry="main")
        planner = FastPathPlanner(prog, ExecConfig())
        loop = prog.function("main").loops()[0]
        assert planner.plan("main", loop) is None

    def test_loop_var_in_cost_amount_disables(self):
        pb = ProgramBuilder()
        with pb.function("main", ["n"]) as f:
            with f.for_("i", 0, f.var("n")):
                f.work(var("i"))
        prog = pb.build(entry="main")
        planner = FastPathPlanner(prog, ExecConfig())
        loop = prog.function("main").loops()[0]
        assert planner.plan("main", loop) is None
        # ...but the program still runs correctly on the slow path
        res = Interpreter(prog).run({"n": 5})
        assert res.metrics.iterations_of("main", 0) == 5

    def test_call_to_looping_function_disables(self):
        pb = ProgramBuilder()
        with pb.function("loopy", ["x"]) as f:
            with f.for_("j", 0, 3):
                f.work(1)
        with pb.function("main", ["n"]) as f:
            with f.for_("i", 0, f.var("n")):
                f.call("loopy", f.var("i"))
        prog = pb.build(entry="main")
        planner = FastPathPlanner(prog, ExecConfig())
        loop = prog.function("main").loops()[0]
        assert planner.plan("main", loop) is None
        # slow and fast interpreters still agree (fast falls back)
        assert_equivalent(prog, {"n": 4})

    def test_call_in_bound_disables(self):
        pb = ProgramBuilder()
        with pb.function("bound", []) as f:
            f.ret(5)
        with pb.function("main", []) as f:
            with f.for_("i", 0, call("bound")):
                f.work(1)
        prog = pb.build(entry="main")
        planner = FastPathPlanner(prog, ExecConfig())
        loop = prog.function("main").loops()[0]
        assert planner.plan("main", loop) is None

    def test_inner_bound_depending_on_outer_var_disables(self):
        pb = ProgramBuilder()
        with pb.function("main", ["n"]) as f:
            with f.for_("i", 0, f.var("n")):
                with f.for_("j", 0, f.var("i")):  # triangular
                    f.work(1)
        prog = pb.build(entry="main")
        planner = FastPathPlanner(prog, ExecConfig())
        loop = prog.function("main").loops()[0]
        assert planner.plan("main", loop) is None
        assert_equivalent(prog, {"n": 6})


class TestLeafCost:
    def test_accessor_is_leaf(self):
        prog = cost_nest_program()
        cost = leaf_unit_cost(prog.function("getter"), ExecConfig())
        assert cost is not None
        # Assign + ExprStmt(work 2): 1 + (1 + 2) compute
        assert cost.compute == 4.0
        assert cost.memory == 0.0

    def test_looping_function_not_leaf(self):
        pb = ProgramBuilder()
        with pb.function("f", ["n"]) as f:
            with f.for_("i", 0, f.var("n")):
                f.work(1)
        prog = pb.build(entry="f")
        assert leaf_unit_cost(prog.function("f"), ExecConfig()) is None

    def test_calling_function_not_leaf(self):
        pb = ProgramBuilder()
        with pb.function("g", []) as f:
            f.work(1)
        with pb.function("f", []) as f:
            f.call("g")
        prog = pb.build(entry="f")
        assert leaf_unit_cost(prog.function("f"), ExecConfig()) is None

    def test_variable_cost_not_leaf(self):
        pb = ProgramBuilder()
        with pb.function("f", ["x"]) as f:
            f.work(var("x"))
        prog = pb.build(entry="f")
        assert leaf_unit_cost(prog.function("f"), ExecConfig()) is None

    def test_mem_work_split(self):
        pb = ProgramBuilder()
        with pb.function("f", []) as f:
            f.mem_work(7)
        prog = pb.build(entry="f")
        cost = leaf_unit_cost(prog.function("f"), ExecConfig())
        assert cost.memory == 7.0
        assert cost.compute == 1.0  # the ExprStmt itself

    def test_nothing_after_return_runs(self):
        pb = ProgramBuilder()
        with pb.function("f", ["x"]) as f:
            f.assign("y", var("x"))
            f.ret(var("y"))
            f.work(9)  # unreachable
        with pb.function("main", ["n"]) as f:
            with f.for_("i", 0, f.var("n")):
                f.call("f", var("i"))
        prog = pb.build(entry="main")
        cost = leaf_unit_cost(prog.function("f"), ExecConfig())
        assert (cost.compute, cost.steps) == (1.0, 2)
        assert_equivalent(prog, {"n": 4})

    @pytest.mark.parametrize(
        "body",
        [
            lambda f: f.work(-1),  # negative work amount
            lambda f: f.assign("y", floordiv(6, var("x"))),  # x may be 0
            lambda f: f.ret(load("x", 0)),  # x is no array
            lambda f: f.ret(var("z")),  # z is unbound
        ],
    )
    def test_body_that_can_raise_not_leaf(self, body):
        pb = ProgramBuilder()
        with pb.function("f", ["x"]) as f:
            body(f)
        prog = pb.build(entry="f")
        assert leaf_unit_cost(prog.function("f"), ExecConfig()) is None


def leaf_call_program(arg):
    pb = ProgramBuilder()
    with pb.function("getter", ["x"], kind="accessor") as f:
        f.assign("v", mul(var("x"), 2.0))
        f.work(2)
        f.ret(var("v"))
    with pb.function("main", ["n"]) as f:
        with f.for_("i", 0, f.var("n")):
            with f.for_("j", 0, 3):
                f.call("getter", arg)
    return pb.build(entry="main")


class TestLeafCallArguments:
    """A leaf call is planned only when its arguments cannot raise: built
    from the enclosing loop variables and numeric constants."""

    @pytest.mark.parametrize(
        "arg, planned",
        [
            (var("j"), True),
            (add(mul(var("i"), 3), var("j")), True),
            (-2.5, True),
            (var("n"), False),  # not a loop variable
            (floordiv(var("i"), 2), False),
        ],
    )
    def test_plan(self, arg, planned):
        prog = leaf_call_program(arg)
        planner = FastPathPlanner(prog, ExecConfig())
        loop = prog.function("main").loops()[0]
        assert (planner.plan("main", loop) is not None) == planned
        assert_equivalent(prog, {"n": 3})


def raising_programs():
    """Loops genuine iteration fails in (entry ``main(n, c)``)."""

    def build(body, leaf=lambda f: f.ret(var("x"))):
        pb = ProgramBuilder()
        with pb.function("leaf", ["x"]) as f:
            leaf(f)
        with pb.function("main", ["n", "c"]) as f:
            with f.for_("i", 0, f.var("n")):
                body(f)
        return pb.build(entry="main")

    def nested_bound(f):
        f.mem_work(1)
        with f.for_("j", 0, floordiv(var("n"), var("c"))):
            f.work(1)

    return {
        "negative-amount": build(lambda f: f.work(var("c"))),
        "unbound-argument": build(lambda f: f.call("leaf", var("nowhere"))),
        "raising-leaf": build(
            lambda f: f.call("leaf", var("i")),
            leaf=lambda f: f.ret(floordiv(6, var("x"))),
        ),
        "negative-leaf-cost": build(
            lambda f: f.call("leaf", var("i")), leaf=lambda f: f.work(-1)
        ),
        "raising-nested-bound": build(nested_bound),
    }


class TestErrorParity:
    """What raises genuinely raises with fast loops on too: the closed form
    leaves such a nest to genuine iteration."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("case", sorted(raising_programs()))
    def test_fast_raises_like_genuine(self, engine, case):
        prog = raising_programs()[case]
        args = {"n": 3, "c": 0 if case == "raising-nested-bound" else -1}
        genuine = outcome(engine, prog, args, fast_loops=False)
        assert genuine[0] == "error"
        assert outcome(engine, prog, args, fast_loops=True) == genuine


# ----------------------------------------------------------------------
# inexact bounds


def stepped_program():
    pb = ProgramBuilder()
    with pb.function("main", ["n", "s"]) as f:
        with f.for_("i", 0, f.var("n"), f.var("s")):
            f.work(1)
    return pb.build(entry="main")


def outcome(engine, prog, args, fast_loops, step_limit=10_000):
    config = ExecConfig(fast_loops=fast_loops, step_limit=step_limit)
    try:
        res = make_engine(prog, engine, config=config).run(args)
    except Exception as exc:  # noqa: BLE001 - error parity is the point
        return ("error", type(exc).__name__)
    return ("ok", res.value, res.time, dict(res.metrics.loop_iterations))


class TestInexactBounds:
    """A non-finite bound or a fractional step invalidates the plan, so the
    loop runs genuinely: one trip, the typed step-limit error, or the
    eleven trips ``0.1`` added up takes to pass ``1``."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "args, expected",
        [
            ({"n": 5, "s": math.inf}, ("ok", None, 3.0, {("main", 0): 1})),
            ({"n": math.inf, "s": 1}, ("error", "ExecutionLimitError")),
            ({"n": math.inf, "s": math.inf}, ("ok", None, 3.0, {("main", 0): 1})),
            ({"n": 1, "s": 0.1}, ("ok", None, 33.0, {("main", 0): 11})),
        ],
    )
    def test_fast_matches_genuine(self, engine, args, expected):
        prog = stepped_program()
        assert outcome(engine, prog, args, fast_loops=False) == expected
        assert outcome(engine, prog, args, fast_loops=True) == expected


# ----------------------------------------------------------------------
# counting loops

#: Index shapes of a counter update, as functions of the loop variable
#: (``//`` is no index operator of the planner: that form runs genuinely).
INDEX_FORMS = {
    "identity": lambda i: i,
    "constant": lambda i: var("b"),
    "affine": lambda i: add(mul(i, 2), var("b")),
    "mod": lambda i: mod(i, var("r")),
    "affine-mod": lambda i: mod(add(mul(i, 3), var("b")), var("r")),
    "floordiv": lambda i: floordiv(sub(i, var("lo")), 2),
}


@st.composite
def counting_nests(draw):
    """A counting nest: ``a[index] += c`` (maybe through a temporary
    ``t``), maybe a scalar counter ``x += d`` (which runs genuinely), cost
    and a leaf call, maybe under an outer loop (planned per outer trip);
    with a probe naming what the program returns."""
    use_temp = draw(st.booleans())
    return {
        "form": draw(st.sampled_from(sorted(INDEX_FORMS))),
        "use_temp": use_temp,
        "nested": draw(st.booleans()),
        "step": draw(st.sampled_from([1, 1, 2, 3, 1, 0.5])),
        "c": draw(st.sampled_from([1, 2, -1, 5])),
        "d": draw(st.sampled_from([0, 1, -3])),
        "call": draw(st.booleans()),
        "probe": draw(
            st.sampled_from(["a", "a[0]", "x", "i"] + (["t"] if use_temp else []))
        ),
    }


def counting_program(spec, alloc=None):
    """The nest of *spec* in ``main``; the counter array ``a`` is a
    parameter, or allocated from *alloc* (size, initial values)."""
    pb = ProgramBuilder()
    with pb.function("leaf", [], kind="accessor") as f:
        f.work(2)
    params = ["n", "m", "lo", "r", "b", "x"] + ([] if alloc else ["a"])
    with pb.function("main", params) as f:
        if alloc is not None:
            size, init = alloc
            f.alloc("a", size)
            for slot, value in enumerate(init):
                f.store("a", slot, value)

        def nest():
            with f.for_("i", var("lo"), var("n"), spec["step"]):
                index = INDEX_FORMS[spec["form"]](var("i"))
                if spec["use_temp"]:
                    f.assign("t", index)
                    index = var("t")
                c = spec["c"]
                bump = add(load("a", index), c) if c > 0 else sub(load("a", index), -c)
                f.store("a", index, bump)
                if spec["d"]:
                    f.assign("x", add(var("x"), spec["d"]))
                f.work(3)
                if spec["call"]:
                    f.call("leaf")

        if spec["nested"]:
            with f.for_("j", 0, var("m")):
                f.work(1)
                nest()
        else:
            nest()
        probe = spec["probe"]
        # "a[0]": a load after the loop, which the vector pass cannot do on
        # a caller's array
        f.ret(load("a", 0) if probe == "a[0]" else var(probe))
    return pb.build(entry="main")


def canonical(result, array=None, typed=True):
    """Exact outcome: value (arrays by repr, so -0.0 shows; with *typed*
    also the value's type), loop and call counts, the parameter array's
    contents; time is compared apart."""
    if isinstance(result, Exception):
        return ("error", type(result).__name__, str(result), array), None
    value = result.value
    if isinstance(value, Array):
        value = repr(value.data)
    elif typed:
        value = (type(value), value)
    calls = {name: fm.calls for name, fm in result.metrics.functions.items()}
    return (
        ("ok", value, dict(result.metrics.loop_iterations), calls, array),
        result.time,
    )


def run_scalar(engine, prog, args, init, fast_loops):
    arr = Array(len(init))
    arr.data = [float(v) for v in init]
    config = ExecConfig(fast_loops=fast_loops, step_limit=100_000)
    try:
        result = make_engine(prog, engine, config=config).run(
            dict(args, a=arr)
        )
    except Exception as exc:  # noqa: BLE001 - error parity is the point
        result = exc
    return canonical(result, repr(arr.data))


#: Mostly in-range, integer-valued inputs (summarisable), sometimes a
#: negative start or modulus, an out-of-range offset or a non-integer
#: counter (genuine).
ARGS = st.fixed_dictionaries(
    {
        "n": st.integers(-3, 14),
        "m": st.integers(-1, 3),
        "lo": st.sampled_from([0, 0, 0, 1, 2, -1]),
        "r": st.sampled_from([1, 2, 3, 5, 3, -2]),
        "b": st.sampled_from([0, 1, 2, 3, -1, 30]),
        "x": st.sampled_from([0, 3, -2, 0, 1, 0.5]),
    }
)
#: Initial array contents: integers (summarisable), sometimes a
#: non-integer slot; sizes from 1 (every index at the edge) to 40.
INIT = st.tuples(st.integers(1, 40), st.integers(0, 4)).flatmap(
    lambda shape: st.lists(
        st.sampled_from([0.0, 1.0, -4.0, -0.0] if shape[1] else [0.0, 0.5]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


class TestCountingEquivalence:
    """fast ≡ slow for counting nests, engine by engine: values, array
    contents (also after an out-of-range error), counters, temporaries,
    loop and call counts exactly; time under approx."""

    @pytest.mark.parametrize("engine", ENGINES)
    @given(spec=counting_nests(), args=ARGS, init=INIT)
    @settings(max_examples=150, deadline=None)
    def test_caller_array(self, engine, spec, args, init):
        """One run, the counter array passed in by the caller."""
        prog = counting_program(spec)
        slow, slow_time = run_scalar(engine, prog, args, init, False)
        fast, fast_time = run_scalar(engine, prog, args, init, True)
        assert fast == slow
        assert fast_time == pytest.approx(slow_time)

    @given(
        spec=counting_nests(),
        args=ARGS,
        init=INIT,
        ns=st.lists(st.integers(-3, 14), min_size=7, max_size=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_vectorized_lanes(self, spec, args, init, ns):
        """Widths 1 and 7, trip counts differing by lane: every lane equals
        a genuine (fast loops off) tree run of that lane."""
        prog = counting_program(spec, alloc=(len(init), init))
        for width in (1, 7):
            lanes = [dict(args, n=n) for n in ns[:width]]
            batch = VectorizedEngine(
                prog, config=ExecConfig(step_limit=100_000)
            ).run_batch(lanes, collect_errors=True)
            for args_l, got in zip(lanes, batch):
                config = ExecConfig(fast_loops=False, step_limit=100_000)
                try:
                    want = Interpreter(prog, config=config).run(args_l)
                except Exception as exc:  # noqa: BLE001 - error parity
                    want = exc
                # float64 lanes: values compare by ==, not by type
                got, got_time = canonical(got, typed=False)
                want, want_time = canonical(want, typed=False)
                assert got == want
                assert got_time == pytest.approx(want_time)


def region_program():
    """The paper's section 5.2 loop (LULESH ``SetupRegionSizes``)."""
    pb = ProgramBuilder()
    with pb.function("main", ["numElem", "regions"]) as f:
        f.alloc("regElemSize", var("regions"))
        with f.for_("i", 0, f.var("numElem")):
            f.assign("r", mod(var("i"), var("regions")))
            f.store(
                "regElemSize", var("r"), add(load("regElemSize", var("r")), 1)
            )
        f.ret(var("regElemSize"))
    return pb.build(entry="main")


# Nests the planner must reject (``a`` is an array, ``x`` a scalar).


def bound_reads_array(f):
    with f.for_("i", 0, load("a", 0)):
        f.store("a", 1, add(load("a", 1), 1))


def temp_read_as_cost(f):
    with f.for_("i", 0, f.var("n")):
        f.assign("t", mod(var("i"), 2))
        f.store("a", var("t"), add(load("a", var("t")), 1))
        f.work(var("t"))


def counter_read_elsewhere(f):
    with f.for_("i", 0, f.var("n")):
        f.assign("x", add(var("x"), 1))
        f.work(var("x"))


def index_reads_outer_var(f):
    with f.for_("j", 0, f.var("n")):
        with f.for_("i", 0, f.var("n")):
            f.store("a", var("j"), add(load("a", var("j")), 1))


def non_integer_increment(f):
    with f.for_("i", 0, f.var("n")):
        f.store("a", var("i"), add(load("a", var("i")), 0.5))


def store_of_other_slot(f):
    with f.for_("i", 0, f.var("n")):
        f.store("a", var("i"), add(load("a", 0), 1))


def scalar_counter(f):
    with f.for_("i", 0, f.var("n")):
        f.assign("x", add(var("x"), 1))


def floordiv_index(f):
    with f.for_("i", 0, f.var("n")):
        half = floordiv(var("i"), 2)
        f.store("a", half, add(load("a", half), 1))


def counter_in_nested_loop(f):
    with f.for_("j", 0, f.var("n")):
        with f.for_("i", 0, f.var("n")):
            f.store("a", var("i"), add(load("a", var("i")), 1))


INELIGIBLE_NESTS = [
    bound_reads_array,
    temp_read_as_cost,
    counter_read_elsewhere,
    index_reads_outer_var,
    non_integer_increment,
    store_of_other_slot,
    scalar_counter,
    floordiv_index,
    counter_in_nested_loop,
]


class TestCountingLoops:
    def test_region_loop_is_planned(self):
        prog = region_program()
        plan = FastPathPlanner(prog, ExecConfig()).plan(
            "main", prog.function("main").loops()[0]
        )
        assert plan is not None
        assert [u.name for u in plan.counters] == ["regElemSize"]
        assert plan.outputs == ("r",)

    def test_nested_counter_is_planned_per_outer_trip(self):
        pb = ProgramBuilder()
        with pb.function("main", ["n", "a"]) as f:
            counter_in_nested_loop(f)
        prog = pb.build(entry="main")
        outer, inner = prog.function("main").loops()
        planner = FastPathPlanner(prog, ExecConfig())
        assert planner.plan("main", outer) is None
        assert planner.plan("main", inner).counters

    @pytest.mark.parametrize("engine", ENGINES)
    def test_caller_array_counted_once(self, engine):
        """A counter array passed in by the caller: the load after the
        loop sends the vectorized engine to its scalar rerun, which must
        find the array untouched by the vector attempt — also when the
        lanes of a batch share the array and run one after another."""
        pb = ProgramBuilder()
        with pb.function("main", ["n", "a"]) as f:
            with f.for_("i", 0, f.var("n")):
                slot = mod(var("i"), 2)
                f.store("a", slot, add(load("a", slot), 1))
            f.ret(load("a", 0))
        prog = pb.build(entry="main")
        arr = Array(2)
        assert make_engine(prog, engine).run({"n": 4, "a": arr}).value == 2.0
        assert arr.data == [2.0, 2.0]
        if engine == "vectorized":
            shared = Array(2)
            batch = VectorizedEngine(prog).run_batch([{"n": 4, "a": shared}] * 3)
            assert [r.value for r in batch] == [2.0, 4.0, 6.0]
            assert shared.data == [6.0, 6.0]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_region_counts(self, engine):
        res = make_engine(region_program(), engine).run(
            {"numElem": 5832, "regions": 11}
        )
        assert res.value.data == [531.0] * 2 + [530.0] * 9
        assert res.steps < 20  # closed form, not 5,832 iterations

    def test_vectorized_lanes_stay_on_the_vector_path(self):
        """A vector listener makes any fallback raise: the counting loop
        runs in the tensor pass with per-lane trip counts."""
        prog = region_program()
        lanes = [{"numElem": n**3, "regions": 11} for n in (6, 9, 12, 0)]
        batch = VectorizedEngine(prog).run_batch(
            lanes, vector_listeners=[BatchedMetrics(len(lanes))]
        )
        for args, got in zip(lanes, batch):
            want = Interpreter(prog, config=ExecConfig(fast_loops=False)).run(args)
            assert got.value.data == want.value.data

    def test_aliased_counter_arrays_run_genuinely(self):
        pb = ProgramBuilder()
        with pb.function("main", ["n", "a", "c"]) as f:
            with f.for_("i", 0, f.var("n")):
                f.store("a", 0, add(load("a", 0), 1))
                f.store("c", 0, add(load("c", 0), 1))
        prog = pb.build(entry="main")
        shared = Array(1)
        res = Interpreter(prog).run({"n": 4, "a": shared, "c": shared})
        assert shared.data == [8.0]
        assert res.steps > 8  # genuine iteration

    @pytest.mark.parametrize("body", INELIGIBLE_NESTS)
    def test_ineligible_nests(self, body):
        pb = ProgramBuilder()
        with pb.function("main", ["n", "a", "x"]) as f:
            body(f)
        prog = pb.build(entry="main")
        planner = FastPathPlanner(prog, ExecConfig())
        assert planner.plan("main", prog.function("main").loops()[0]) is None
