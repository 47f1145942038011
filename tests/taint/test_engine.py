"""Taint-engine semantics: sources, propagation policies, sinks."""

from dataclasses import replace

import pytest

from repro.errors import (
    ExecutionLimitError,
    RecursionUnsupportedError,
    ReproError,
)
from repro.interp import DEFAULT_CONFIG, ExecConfig
from repro.interp.runtime import TableRuntime
from repro.ir import ProgramBuilder, add, call, load, lt, mod, mul, var
from repro.taint import DATAFLOW_ONLY, PropagationPolicy, TaintEngine
from repro.taint.policy import FULL_POLICY


def analyze(populate, args, sources=None, policy=FULL_POLICY, params=None, **kw):
    pb = ProgramBuilder()
    names = params or sorted(args)
    with pb.function("main", names) as f:
        populate(f)
    prog = pb.build(entry="main")
    engine = TaintEngine(prog, policy=policy, **kw)
    return engine.analyze(args, sources or {n: n for n in names}).report


class TestDataFlow:
    def test_loop_bound_direct(self):
        def body(f):
            with f.for_("i", 0, f.var("n")):
                f.work(1)

        rep = analyze(body, {"n": 4})
        assert rep.loop_params("main", 0) == frozenset({"n"})

    def test_loop_bound_via_arithmetic(self):
        def body(f):
            f.assign("m", mul(var("n"), var("n")))
            with f.for_("i", 0, f.var("m")):
                f.work(1)

        rep = analyze(body, {"n": 3})
        assert rep.loop_params("main", 0) == frozenset({"n"})

    def test_untainted_bound(self):
        def body(f):
            f.assign("m", 10)
            with f.for_("i", 0, f.var("m")):
                f.work(1)

        rep = analyze(body, {"n": 3})
        assert rep.loop_params("main", 0) == frozenset()

    def test_strong_update_kills_taint(self):
        def body(f):
            f.assign("m", var("n"))
            f.assign("m", 5)  # overwrite: taint killed
            with f.for_("i", 0, f.var("m")):
                f.work(1)

        rep = analyze(body, {"n": 3})
        assert rep.loop_params("main", 0) == frozenset()

    def test_multiple_labels_in_one_condition(self):
        """The paper's only over-approximation source (5.2)."""

        def body(f):
            f.assign("m", mul(var("a"), var("b")))
            with f.for_("i", 0, f.var("m")):
                f.work(1)

        rep = analyze(body, {"a": 2, "b": 3})
        assert rep.loop_params("main", 0) == frozenset({"a", "b"})

    def test_taint_through_call_return(self):
        pb = ProgramBuilder()
        with pb.function("double", ["x"]) as f:
            f.ret(mul(var("x"), 2))
        with pb.function("main", ["n"]) as f:
            f.assign("m", call("double", var("n")))
            with f.for_("i", 0, f.var("m")):
                f.work(1)
        prog = pb.build(entry="main")
        rep = TaintEngine(prog).analyze({"n": 3}, {"n": "n"}).report
        assert rep.loop_params("main", 0) == frozenset({"n"})

    def test_taint_through_array(self):
        def body(f):
            f.alloc("a", 4)
            f.store("a", 0, var("n"))
            f.assign("m", load("a", 0))
            with f.for_("i", 0, f.var("m")):
                f.work(1)

        rep = analyze(body, {"n": 3})
        assert rep.loop_params("main", 0) == frozenset({"n"})

    def test_step_and_start_labels_join_sink(self):
        def body(f):
            with f.for_("i", var("a"), 100, var("b")):
                f.work(1)

        rep = analyze(body, {"a": 0, "b": 5})
        assert rep.loop_params("main", 0) == frozenset({"a", "b"})

    def test_label_renaming(self):
        def body(f):
            with f.for_("i", 0, f.var("n")):
                f.work(1)

        rep = analyze(body, {"n": 4}, sources={"n": "size"})
        assert rep.loop_params("main", 0) == frozenset({"size"})


class TestControlFlow:
    def test_branch_assignment_tainted(self):
        """Paper 3.2: 'if (b) d++; else d--;' — explicit control dep."""

        def body(f):
            f.assign("d", 0)
            with f.if_(var("b")):
                f.assign("d", 1)
            with f.else_():
                f.assign("d", 2)
            with f.for_("i", 0, f.var("d")):
                f.work(1)

        rep = analyze(body, {"b": 1})
        assert rep.loop_params("main", 0) == frozenset({"b"})

    def test_loop_carried_value_tainted(self):
        """Paper 5.2 regElemSize example: accumulation under a tainted
        loop carries the loop-bound label."""

        def body(f):
            f.assign("acc", 0)
            with f.for_("i", 0, f.var("n")):
                f.assign("acc", add(var("acc"), 1))
            with f.for_("j", 0, f.var("acc")):
                f.work(1)

        rep = analyze(body, {"n": 4})
        assert "n" in rep.loop_params("main", 1)

    def test_loop_invariant_assignment_not_tainted(self):
        """A loop-invariant assignment under a tainted loop does NOT pick
        up the loop label (value does not depend on the trip count)."""

        def body(f):
            f.assign("x", 0)
            with f.for_("i", 0, f.var("n")):
                f.assign("x", var("k"))
            with f.for_("j", 0, f.var("x")):
                f.work(1)

        rep = analyze(body, {"n": 4, "k": 2})
        assert rep.loop_params("main", 1) == frozenset({"k"})

    def test_loop_var_derived_value_tainted(self):
        """r = i % regions: reading the induction variable is loop-carried."""

        def body(f):
            f.assign("r", 0)
            with f.for_("i", 0, f.var("n")):
                f.assign("r", mod(var("i"), 3))
            with f.for_("j", 0, f.var("r")):
                f.work(1)

        rep = analyze(body, {"n": 4})
        assert "n" in rep.loop_params("main", 1)

    def test_dataflow_only_misses_control_dep(self):
        """Ablation: without control-flow propagation the regElemSize
        dependence is lost (paper 5.2)."""

        def body(f):
            f.assign("acc", 0)
            with f.for_("i", 0, f.var("n")):
                f.assign("acc", add(var("acc"), 1))
            with f.for_("j", 0, f.var("acc")):
                f.work(1)

        rep = analyze(body, {"n": 4}, policy=DATAFLOW_ONLY)
        assert "n" not in rep.loop_params("main", 1)

    def test_branch_sink_records_direction(self):
        def body(f):
            with f.if_(lt(var("n"), 10)):
                f.work(1)

        rep = analyze(body, {"n": 4})
        assert rep.branch_params("main", 0) == frozenset({"n"})
        assert rep.branch_directions("main", 0) == frozenset({True})

    def test_untainted_branch_recorded_clean(self):
        def body(f):
            f.assign("x", 1)
            with f.if_(var("x")):
                f.work(1)

        rep = analyze(body, {"n": 0})
        assert rep.branch_params("main", 0) == frozenset()


class TestImplicitFlow:
    def test_implicit_flow_taints_untaken_branch(self):
        """Paper 3.2: 'if (c) d = pow(d, 2)' taints d even when not taken."""

        def body(f):
            f.assign("d", 1)
            with f.if_(var("c")):
                f.assign("d", 2)
            with f.for_("i", 0, f.var("d")):
                f.work(1)

        implicit = PropagationPolicy(implicit_flow=True)
        rep = analyze(body, {"c": 0}, policy=implicit)
        assert "c" in rep.loop_params("main", 0)

    def test_explicit_only_misses_untaken_branch(self):
        def body(f):
            f.assign("d", 1)
            with f.if_(var("c")):
                f.assign("d", 2)
            with f.for_("i", 0, f.var("d")):
                f.work(1)

        rep = analyze(body, {"c": 0})  # branch not taken
        assert "c" not in rep.loop_params("main", 0)

    def test_implicit_requires_control(self):
        with pytest.raises(ValueError):
            PropagationPolicy(control_flow=False, implicit_flow=True).validate()


class TestWhileLoops:
    def test_while_condition_sink(self):
        def body(f):
            f.assign("i", 0)
            with f.while_(lt(var("i"), var("n"))):
                f.assign("i", add(var("i"), 1))

        rep = analyze(body, {"n": 4})
        assert rep.loop_params("main", 0) == frozenset({"n"})

    def test_while_condition_label_grows(self):
        """Labels acquired mid-loop join the sink."""

        def body(f):
            f.assign("i", 0)
            f.assign("limit", 10)
            with f.while_(lt(var("i"), var("limit"))):
                f.assign("limit", var("n"))
                f.assign("i", add(var("i"), 1))

        rep = analyze(body, {"n": 2})
        assert "n" in rep.loop_params("main", 0)


class TestLibraryAndRecursion:
    def test_library_source(self):
        from repro.libdb import MPI_DATABASE
        from repro.mpisim import MPIConfig, MPIRuntime

        pb = ProgramBuilder()
        with pb.function("main", []) as f:
            f.assign("p", call("MPI_Comm_size"))
            with f.for_("i", 0, f.var("p")):
                f.work(1)
        prog = pb.build(entry="main")
        engine = TaintEngine(
            prog,
            runtime=MPIRuntime(MPIConfig(ranks=4)),
            library_taint=MPI_DATABASE,
        )
        rep = engine.analyze({}, {}).report
        assert rep.loop_params("main", 0) == frozenset({"p"})

    def test_library_dependency_recorded(self):
        from repro.libdb import MPI_DATABASE
        from repro.mpisim import MPIConfig, MPIRuntime

        pb = ProgramBuilder()
        with pb.function("main", ["n"]) as f:
            f.call("MPI_Send", var("n"))
        prog = pb.build(entry="main")
        engine = TaintEngine(
            prog,
            runtime=MPIRuntime(MPIConfig(ranks=4)),
            library_taint=MPI_DATABASE,
        )
        rep = engine.analyze({"n": 8}, {"n": "size"}).report
        assert rep.library_params("main") == frozenset({"p", "size"})

    def test_comm_rank_not_relevant(self):
        from repro.libdb import MPI_DATABASE
        from repro.mpisim import MPIConfig, MPIRuntime

        pb = ProgramBuilder()
        with pb.function("main", []) as f:
            f.assign("r", call("MPI_Comm_rank"))
        prog = pb.build(entry="main")
        engine = TaintEngine(
            prog,
            runtime=MPIRuntime(MPIConfig(ranks=4)),
            library_taint=MPI_DATABASE,
        )
        rep = engine.analyze({}, {}).report
        assert rep.library_params("main") == frozenset()

    def test_recursion_warns(self):
        pb = ProgramBuilder()
        with pb.function("rec", ["n"]) as f:
            with f.if_(lt(var("n"), 3)):
                f.call("rec", add(var("n"), 1))
        with pb.function("main", ["n"]) as f:
            f.call("rec", var("n"))
        prog = pb.build(entry="main")
        engine = TaintEngine(prog)
        result = engine.analyze({"n": 0}, {"n": "n"})
        assert any("recursi" in w for w in result.report.warnings)

    def test_strict_recursion_raises(self):
        pb = ProgramBuilder()
        with pb.function("rec", ["n"]) as f:
            with f.if_(lt(var("n"), 3)):
                f.call("rec", add(var("n"), 1))
        with pb.function("main", ["n"]) as f:
            f.call("rec", var("n"))
        prog = pb.build(entry="main")
        engine = TaintEngine(prog, strict_recursion=True)
        with pytest.raises(RecursionUnsupportedError):
            engine.analyze({"n": 0}, {"n": "n"})

    def test_values_match_plain_interpreter(self):
        """Taint execution must not change program semantics."""
        from repro.interp import Interpreter

        pb = ProgramBuilder()
        with pb.function("main", ["n"]) as f:
            f.assign("acc", 0)
            with f.for_("i", 0, f.var("n")):
                with f.if_(lt(var("i"), 3)):
                    f.assign("acc", add(var("acc"), var("i")))
            f.ret(var("acc"))
        prog = pb.build(entry="main")
        plain = Interpreter(prog).run({"n": 10})
        tainted = TaintEngine(prog).analyze({"n": 10}, {"n": "n"})
        assert plain.value == tainted.value


class TestReportViews:
    def test_executed_functions(self):
        pb = ProgramBuilder()
        with pb.function("used", []) as f:
            f.work(1)
        with pb.function("unused", []) as f:
            f.work(1)
        with pb.function("main", []) as f:
            f.call("used")
        prog = pb.build(entry="main")
        rep = TaintEngine(prog).analyze({}, {}).report
        assert "used" in rep.executed_functions
        assert "unused" not in rep.executed_functions

    def test_callpath_sensitivity(self):
        """The same loop reached via different callers yields distinct
        call-path records (calling-context-aware models, paper 5.2)."""
        pb = ProgramBuilder()
        with pb.function("kernel", ["n"]) as f:
            with f.for_("i", 0, f.var("n")):
                f.work(1)
        with pb.function("a", ["n"]) as f:
            f.call("kernel", var("n"))
        with pb.function("b", []) as f:
            f.call("kernel", 5)
        with pb.function("main", ["n"]) as f:
            f.call("a", var("n"))
            f.call("b")
        prog = pb.build(entry="main")
        rep = TaintEngine(prog).analyze({"n": 3}, {"n": "n"}).report
        paths = {
            cp for (cp, fn, lid) in rep.loop_records if fn == "kernel"
        }
        assert len(paths) == 2
        # merged view unions both contexts
        assert rep.loop_params("kernel", 0) == frozenset({"n"})

    def test_merge_reports(self):
        def body(f):
            with f.for_("i", 0, f.var("n")):
                f.work(1)

        rep1 = analyze(body, {"n": 4})
        rep2 = analyze(body, {"n": 8})
        merged = rep1.merge(rep2)
        key = next(iter(merged.loop_records))
        assert merged.loop_records[key].iterations == 12

    def test_merge_adds_entries(self):
        def body(f):
            with f.for_("i", 0, f.var("n")):
                with f.for_("j", 0, 2):
                    f.work(1)

        merged = analyze(body, {"n": 4}).merge(analyze(body, {"n": 3}))
        inner = merged.loop_records[(("main",), "main", 1)]
        assert (inner.entries, inner.iterations) == (7, 14)


@pytest.fixture
def closed_form(monkeypatch):
    """Root loop ids of the nest executions the shadow engine runs in
    closed form."""
    from repro.interp import shadowtree

    roots = []
    record = shadowtree.record_loop_sinks

    def spy(plan, *args):
        roots.append(plan.loop.loop_id)
        return record(plan, *args)

    monkeypatch.setattr(shadowtree, "record_loop_sinks", spy)
    return roots


def analyze_both(
    prog, args, closed_form, policy=FULL_POLICY, config=DEFAULT_CONFIG
):
    """Reports of genuine iteration (``fast_loops`` off: every trip) and
    of the closed form (``fast_loops`` on: planned nests summarised);
    asserts the two are identical, with their records in the same order,
    and that they failed alike."""
    outcomes = []
    for fast_loops in (False, True):
        taint = TaintEngine(
            prog, policy=policy, config=replace(config, fast_loops=fast_loops)
        )
        try:
            report = taint.analyze(args, {n: n for n in args}).report
            error = None
        except ReproError as exc:
            report, error = taint.report, (type(exc), str(exc))
        outcomes.append((report, error))
    (genuine, genuine_error), (closed, error) = outcomes
    assert closed == genuine
    assert list(closed.loop_records) == list(genuine.loop_records)
    assert error == genuine_error
    return closed, error


def _nest_program(populate, params):
    pb = ProgramBuilder()
    with pb.function("leaf", ["x"]) as f:
        f.assign("y", mul(var("x"), 2))
        f.work(3)
        f.ret(var("y"))
    with pb.function("main", params) as f:
        populate(f)
    return pb.build(entry="main")


class TestClosedFormNests:
    """Pure-cost nests the shadow engine runs in closed form record the
    loop sinks genuine iteration records."""

    def test_zero_trip_outer_level(self, closed_form):
        def body(f):
            f.work(1)
            with f.for_("i", 0, var("n")):
                with f.for_("j", 0, var("m")):
                    f.work(1)

        prog = _nest_program(body, ["n", "m"])
        rep, _ = analyze_both(prog, {"n": 0, "m": 3}, closed_form)
        assert closed_form == [0]
        outer = rep.loop_records[(("main",), "main", 0)]
        assert (outer.params, outer.iterations, outer.entries) == (
            frozenset({"n"}),
            0,
            1,
        )
        assert (("main",), "main", 1) not in rep.loop_records

    def test_zero_trip_inner_level(self, closed_form):
        def body(f):
            with f.for_("i", 0, var("n")):
                f.call("leaf", var("i"))
                with f.for_("j", 0, var("m")):
                    f.work(1)

        prog = _nest_program(body, ["n", "m"])
        rep, _ = analyze_both(prog, {"n": 3, "m": 0}, closed_form)
        assert closed_form == [0]
        inner = rep.loop_records[(("main",), "main", 1)]
        assert (inner.params, inner.iterations, inner.entries) == (
            frozenset({"m"}),
            0,
            3,
        )
        assert rep.loop_params("main", 0) == frozenset({"n"})
        assert "leaf" in rep.executed_functions

    def test_entries_and_iterations_multiply(self, closed_form):
        def body(f):
            with f.for_("i", 0, var("n")):
                with f.for_("j", var("m"), 7, 2):
                    f.call("leaf", 1)

        prog = _nest_program(body, ["n", "m"])
        rep, _ = analyze_both(prog, {"n": 4, "m": 1}, closed_form)
        assert closed_form == [0]
        inner = rep.loop_records[(("main",), "main", 1)]
        assert (inner.iterations, inner.entries) == (12, 4)
        # The start's label reaches the sink through the loop variable.
        assert inner.params == frozenset({"m"})

    @pytest.mark.parametrize(
        "policy, labelled",
        [(FULL_POLICY, {"b"}), (DATAFLOW_ONLY, set())],
    )
    def test_nest_inside_tainted_branch(self, policy, labelled, closed_form):
        def body(f):
            f.assign("i", 0)
            with f.if_(lt(0, var("b"))):
                with f.for_("i", 0, 4):
                    with f.for_("j", 0, 2):
                        f.call("leaf", var("j"))
            # The loop variable leaves the nest with the branch's label.
            with f.for_("k", 0, var("i")):
                f.work(1)

        prog = _nest_program(body, ["b"])
        rep, _ = analyze_both(prog, {"b": 1}, closed_form, policy=policy)
        assert closed_form == [0, 2]
        for loop_id in (0, 1, 2):
            assert rep.loop_params("main", loop_id) == frozenset(labelled)
        assert rep.loop_records[(("main",), "main", 1)].entries == 4

    def test_records_inserted_children_first(self, closed_form):
        def body(f):
            with f.for_("i", 0, var("n")):
                with f.for_("j", 0, 2):
                    with f.for_("k", 0, var("n")):
                        f.work(1)
                with f.for_("l", 0, 3):
                    f.work(1)

        prog = _nest_program(body, ["n"])
        rep, _ = analyze_both(prog, {"n": 2}, closed_form)
        assert closed_form == [0]
        assert [lid for (_, _, lid) in rep.loop_records] == [2, 1, 3, 0]

    @pytest.mark.parametrize(
        "limit, roots", [(150, [1, 2]), (114, [1]), (113, [2])]
    )
    def test_step_limit_matches_genuine(self, limit, roots, closed_form):
        def body(f):
            with f.for_("r", 0, 3):
                f.assign("t", var("r"))  # keeps this loop iterating
                with f.for_("i", 0, var("n")):
                    with f.for_("j", 0, 4):
                        f.call("leaf", var("j"))

        prog = _nest_program(body, ["n"])
        # The nest rooted at loop 1 takes 111 steps, after 3.  It runs in
        # closed form when it fits the budget.  Otherwise its outer level
        # iterates (its inner level, loop 2, is a nest of its own) and
        # the limit fails where genuine iteration fails, with the same
        # partial report.
        _, error = analyze_both(
            prog, {"n": 5}, closed_form, config=ExecConfig(step_limit=limit)
        )
        assert error is not None and error[0] is ExecutionLimitError
        assert closed_form[: len(roots)] == roots

    def test_call_depth_limit_matches_genuine(self, closed_form):
        def body(f):
            with f.for_("i", 0, var("n")):
                f.call("leaf", var("i"))

        prog = _nest_program(body, ["n"])
        # A leaf call would exceed the depth limit: the nest iterates and
        # fails on its first call, as genuine iteration does.
        _, error = analyze_both(
            prog, {"n": 3}, closed_form, config=ExecConfig(max_call_depth=1)
        )
        assert error is not None and error[0] is ExecutionLimitError
        assert closed_form == []
