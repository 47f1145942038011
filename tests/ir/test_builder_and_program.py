"""Builder and Program tests."""

import pytest

from repro.errors import IRError, IRValidationError
from repro.ir import (
    Function,
    Program,
    ProgramBuilder,
    add,
    call,
    iter_branches,
    iter_loops,
    mul,
    var,
    work,
)
from repro.ir.expr import Const
from repro.ir.stmt import (
    Assign,
    Break,
    Continue,
    For,
    If,
    Return,
    While,
    assigned_names,
)


def simple_program():
    pb = ProgramBuilder()
    with pb.function("helper", ["x"]) as f:
        f.ret(mul(var("x"), 2))
    with pb.function("main", ["n"]) as f:
        with f.for_("i", 0, f.var("n")):
            f.work(1)
        with f.if_(var("n")):
            f.assign("y", call("helper", var("n")))
        f.ret(f.var("n"))
    return pb.build(entry="main")


class TestBuilder:
    def test_builds_finalized_program(self):
        prog = simple_program()
        assert prog.entry == "main"
        assert "helper" in prog

    def test_loop_ids_assigned(self):
        prog = simple_program()
        loops = prog.function("main").loops()
        assert [l.loop_id for l in loops] == [0]

    def test_branch_ids_assigned(self):
        prog = simple_program()
        branches = prog.function("main").branches()
        assert [b.branch_id for b in branches] == [0]

    def test_nested_blocks(self):
        pb = ProgramBuilder()
        with pb.function("f", ["n"]) as f:
            with f.for_("i", 0, f.var("n")):
                with f.for_("j", 0, f.var("i")):
                    f.work(1)
        prog = pb.build(entry="f")
        assert len(prog.function("f").loops()) == 2

    def test_else_branch(self):
        pb = ProgramBuilder()
        with pb.function("f", ["n"]) as f:
            with f.if_(var("n")):
                f.assign("x", 1)
            with f.else_():
                f.assign("x", 2)
        prog = pb.build(entry="f")
        branch = prog.function("f").branches()[0]
        assert branch.then_body and branch.else_body

    def test_else_without_if_raises(self):
        pb = ProgramBuilder()
        with pytest.raises(IRError):
            with pb.function("f", []) as f:
                with f.else_():
                    pass

    def test_while_loop(self):
        pb = ProgramBuilder()
        with pb.function("f", ["n"]) as f:
            f.assign("i", 0)
            with f.while_(var("i")):
                f.assign("i", add(var("i"), 1))
        prog = pb.build(entry="f")
        assert isinstance(prog.function("f").loops()[0], While)


class TestProgram:
    def test_duplicate_function_rejected(self):
        fn = Function("f", (), [Return(None)])
        with pytest.raises(IRError):
            Program.build([fn, Function("f", (), [])], entry="f")

    def test_missing_entry_rejected(self):
        fn = Function("f", (), [])
        with pytest.raises(IRError):
            Program.build([fn], entry="nope")

    def test_duplicate_params_rejected(self):
        with pytest.raises(IRError):
            Function("f", ("a", "a"), [])

    def test_external_callees(self):
        pb = ProgramBuilder()
        with pb.function("main", []) as f:
            f.call("MPI_Barrier")
        prog = pb.build(entry="main")
        assert prog.external_callees() == frozenset({"MPI_Barrier"})

    def test_counts(self):
        prog = simple_program()
        assert prog.function_count() == 2
        assert prog.loop_count() == 1

    def test_callees(self):
        prog = simple_program()
        assert prog.function("main").callees() == frozenset({"helper"})


class TestValidation:
    def test_break_outside_loop_rejected(self):
        fn = Function("f", (), [Break()])
        with pytest.raises(IRValidationError):
            Program.build([fn], entry="f")

    @pytest.mark.parametrize(
        "body",
        [
            [Continue()],
            [If(Const(1), [Continue()])],
            [If(Const(1), [], [Assign("x", Const(0)), Continue()])],
            [If(Const(1), [If(Const(0), [Continue()])])],
        ],
        ids=["top-level", "then", "else", "nested-if"],
    )
    def test_continue_outside_loop_rejected(self, body):
        # No loop encloses the continue, however deep in branches it sits:
        # every loop of a valid program is a For/While with one entry.
        fn = Function("f", (), body)
        with pytest.raises(IRValidationError, match="'continue' outside loop"):
            Program.build([fn], entry="f")

    def test_break_inside_loop_ok(self):
        from repro.ir.expr import Const, Var

        loop = For("i", Const(0), Const(10), Const(1), [Break()])
        Program.build([Function("f", (), [loop])], entry="f")

    def test_arity_mismatch_rejected(self):
        pb = ProgramBuilder()
        with pb.function("helper", ["a", "b"]) as f:
            f.ret(var("a"))
        with pb.function("main", []) as f:
            f.call("helper", 1)
        with pytest.raises(IRValidationError):
            pb.build(entry="main")


class TestStmtHelpers:
    def test_iter_loops_nested(self):
        prog = simple_program()
        pb = ProgramBuilder()
        with pb.function("f", ["n"]) as f:
            with f.for_("i", 0, f.var("n")):
                with f.if_(var("i")):
                    with f.for_("j", 0, f.var("i")):
                        f.work(1)
        prog = pb.build(entry="f")
        assert len(list(iter_loops(prog.function("f").body))) == 2
        assert len(list(iter_branches(prog.function("f").body))) == 1

    def test_assigned_names(self):
        pb = ProgramBuilder()
        with pb.function("f", ["n"]) as f:
            f.assign("a", 1)
            with f.for_("i", 0, f.var("n")):
                f.store("arr", 0, 1)
        prog = pb.build(entry="f")
        names = assigned_names(prog.function("f").body)
        assert names == frozenset({"a", "i", "arr"})
