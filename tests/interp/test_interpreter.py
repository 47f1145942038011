"""Interpreter semantics tests."""

import pytest

from repro.errors import (
    ArityError,
    ArrayIndexError,
    ExecutionLimitError,
    InterpreterError,
    ReproError,
    UndefinedFunctionError,
    UndefinedVariableError,
)
from repro.interp import (
    ExecConfig,
    Interpreter,
    ShadowInterpreter,
    TableRuntime,
    make_engine,
)
from repro.taint.domain import TaintDomain
from repro.interp.values import Array, truthy
from repro.ir import ProgramBuilder, add, call, intrinsic, load, lt, mul, sub, var


def run(populate, args=(), config=None, runtime=None, params=("n",)):
    pb = ProgramBuilder()
    with pb.function("main", list(params)) as f:
        populate(f)
    prog = pb.build(entry="main")
    interp = Interpreter(
        prog, runtime=runtime, config=config or ExecConfig()
    )
    return interp.run(args)


class TestBasics:
    def test_return_value(self):
        res = run(lambda f: f.ret(add(var("n"), 1)), {"n": 41})
        assert res.value == 42

    def test_no_return_is_none(self):
        res = run(lambda f: f.assign("x", 1), {"n": 0})
        assert res.value is None

    def test_undefined_variable(self):
        with pytest.raises(UndefinedVariableError):
            run(lambda f: f.ret(var("nope")), {"n": 0})

    def test_undefined_function(self):
        with pytest.raises(UndefinedFunctionError):
            run(lambda f: f.call("ghost"), {"n": 0})

    def test_arithmetic_ops(self):
        def body(f):
            f.assign("a", mul(var("n"), 3))
            f.assign("b", sub(var("a"), 2))
            f.ret(var("b"))

        assert run(body, {"n": 5}).value == 13

    def test_division_and_mod(self):
        from repro.ir import div, floordiv, mod

        def body(f):
            f.ret(
                add(
                    add(div(var("n"), 4), floordiv(var("n"), 4)),
                    mod(var("n"), 4),
                )
            )

        assert run(body, {"n": 10}).value == 10 / 4 + 10 // 4 + 10 % 4

    def test_short_circuit_and(self):
        from repro.ir import and_, eq

        def body(f):
            # rhs would divide by zero if evaluated
            from repro.ir import div

            f.ret(and_(eq(var("n"), 999), div(1, var("n"))))

        assert run(body, {"n": 0}).value is False or run(body, {"n": 0}).value == 0

    def test_min_max(self):
        from repro.ir import max_, min_

        def body(f):
            f.ret(add(min_(var("n"), 3), max_(var("n"), 3)))

        assert run(body, {"n": 7}).value == 3 + 7


class TestControlFlow:
    def test_if_else(self):
        def body(f):
            with f.if_(lt(var("n"), 5)):
                f.ret(1)
            with f.else_():
                f.ret(2)

        assert run(body, {"n": 3}).value == 1
        assert run(body, {"n": 8}).value == 2

    def test_for_loop_accumulates(self):
        def body(f):
            f.assign("acc", 0)
            with f.for_("i", 0, f.var("n")):
                f.assign("acc", add(var("acc"), var("i")))
            f.ret(var("acc"))

        assert run(body, {"n": 5}).value == 10

    def test_for_loop_step(self):
        def body(f):
            f.assign("acc", 0)
            with f.for_("i", 0, f.var("n"), 2):
                f.assign("acc", add(var("acc"), 1))
            f.ret(var("acc"))

        assert run(body, {"n": 7}).value == 4

    def test_nonpositive_step_rejected(self):
        def body(f):
            with f.for_("i", 0, f.var("n"), 0):
                f.work(1)

        with pytest.raises(InterpreterError):
            run(body, {"n": 3})

    def test_break(self):
        def body(f):
            f.assign("acc", 0)
            with f.for_("i", 0, f.var("n")):
                with f.if_(lt(var("i"), 3)):
                    f.assign("acc", add(var("acc"), 1))
                with f.else_():
                    f.brk()
            f.ret(var("acc"))

        assert run(body, {"n": 100}).value == 3

    def test_continue(self):
        from repro.ir import mod, eq

        def body(f):
            f.assign("acc", 0)
            with f.for_("i", 0, f.var("n")):
                with f.if_(eq(mod(var("i"), 2), 0)):
                    f.cont()
                f.assign("acc", add(var("acc"), 1))
            f.ret(var("acc"))

        assert run(body, {"n": 10}).value == 5

    def test_while(self):
        def body(f):
            f.assign("i", 0)
            with f.while_(lt(var("i"), var("n"))):
                f.assign("i", add(var("i"), 1))
            f.ret(var("i"))

        assert run(body, {"n": 6}).value == 6

    def test_return_from_loop(self):
        def body(f):
            with f.for_("i", 0, f.var("n")):
                f.ret(var("i"))
            f.ret(-1)

        assert run(body, {"n": 5}).value == 0
        assert run(body, {"n": 0}).value == -1

    def test_step_limit(self):
        def body(f):
            f.assign("i", 0)
            with f.while_(lt(var("i"), var("n"))):
                f.assign("i", add(var("i"), 1))

        cfg = ExecConfig(step_limit=100)
        with pytest.raises(ExecutionLimitError):
            run(body, {"n": 10**9}, config=cfg)


class TestArrays:
    def test_alloc_store_load(self):
        def body(f):
            f.alloc("a", 4)
            f.store("a", 2, var("n"))
            f.ret(load("a", 2))

        assert run(body, {"n": 9}).value == 9.0

    def test_out_of_bounds(self):
        def body(f):
            f.alloc("a", 2)
            f.store("a", 5, 1)

        with pytest.raises(IndexError):
            run(body, {"n": 0})

    @pytest.mark.parametrize(
        "engine, domain",
        [
            ("tree", None),
            ("vectorized", None),
            ("tree", TaintDomain),
        ],
    )
    def test_out_of_bounds_is_typed(self, engine, domain):
        pb = ProgramBuilder()
        with pb.function("main", ["n"]) as f:
            f.alloc("a", 3)
            f.store("a", 5, var("n"))
        prog = pb.build(entry="main")
        if domain is None:
            interp = make_engine(prog, engine)
        else:  # the tree-walker's shadow-tracking subclass
            interp = ShadowInterpreter(prog, domain=domain())
        with pytest.raises(ReproError) as exc:
            interp.run({"n": 1})
        assert isinstance(exc.value, ArrayIndexError)
        assert isinstance(exc.value, IndexError)
        assert "array index 5 out of range [0, 3)" in str(exc.value)

    def test_store_to_scalar_rejected(self):
        def body(f):
            f.assign("a", 3)
            f.store("a", 0, 1)

        with pytest.raises(InterpreterError):
            run(body, {"n": 0})

    def test_array_passed_by_reference(self):
        pb = ProgramBuilder()
        with pb.function("fill", ["arr"]) as f:
            f.store("arr", 0, 7)
        with pb.function("main", []) as f:
            f.alloc("a", 1)
            f.call("fill", var("a"))
            f.ret(load("a", 0))
        prog = pb.build(entry="main")
        assert Interpreter(prog).run({}).value == 7.0


class TestCalls:
    def test_call_chain(self):
        pb = ProgramBuilder()
        with pb.function("sq", ["x"]) as f:
            f.ret(mul(var("x"), var("x")))
        with pb.function("main", ["n"]) as f:
            f.ret(call("sq", call("sq", var("n"))))
        prog = pb.build(entry="main")
        assert Interpreter(prog).run({"n": 2}).value == 16

    def test_arity_error(self):
        pb = ProgramBuilder()
        with pb.function("f", ["a", "b"]) as f:
            f.ret(var("a"))
        prog = pb.build(entry="f")
        with pytest.raises(ArityError):
            Interpreter(prog).run([1])

    def test_missing_entry_args(self):
        pb = ProgramBuilder()
        with pb.function("f", ["a"]) as f:
            f.ret(var("a"))
        prog = pb.build(entry="f")
        with pytest.raises(InterpreterError):
            Interpreter(prog).run({})

    def test_recursion_depth_limit(self):
        pb = ProgramBuilder()
        with pb.function("f", ["n"]) as f:
            f.ret(call("f", add(var("n"), 1)))
        prog = pb.build(entry="f")
        with pytest.raises(InterpreterError):
            Interpreter(prog, config=ExecConfig(max_call_depth=10)).run({"n": 0})

    def test_library_runtime(self):
        rt = TableRuntime()
        rt.register("external_triple", lambda x: x * 3)

        def body(f):
            f.ret(call("external_triple", var("n")))

        assert run(body, {"n": 4}, runtime=rt).value == 12


class TestIntrinsics:
    def test_work_charges_compute(self):
        res = run(lambda f: f.work(100), {"n": 0})
        from repro.interp.events import CostKind

        assert res.metrics.totals[CostKind.COMPUTE] >= 100

    def test_mem_work_charges_memory(self):
        res = run(lambda f: f.mem_work(50), {"n": 0})
        from repro.interp.events import CostKind

        assert res.metrics.totals[CostKind.MEMORY] == 50

    def test_negative_work_rejected(self):
        with pytest.raises(InterpreterError):
            run(lambda f: f.work(-1), {"n": 0})

    def test_math_intrinsics(self):
        from repro.ir import log2, sqrt

        def body(f):
            f.ret(add(log2(8), sqrt(9)))

        assert run(body, {"n": 0}).value == 6.0

    def test_log2_nonpositive_is_zero(self):
        from repro.ir import log2

        assert run(lambda f: f.ret(log2(0)), {"n": 0}).value == 0.0


class TestValues:
    def test_truthy_numbers(self):
        assert truthy(1) and truthy(2.5) and not truthy(0)

    def test_truthy_array_rejected(self):
        with pytest.raises(TypeError):
            truthy(Array(3))

    def test_truthy_none_rejected(self):
        with pytest.raises(TypeError):
            truthy(None)

    def test_array_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Array(-1)
