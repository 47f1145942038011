"""Volume calculus tests: symbolic algebra, composition rules, dependency
classification (paper sections 4.2–4.3, A2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import (
    build_additive_example,
    build_multiplicative_example,
)
from repro.taint import TaintEngine
from repro.volume import (
    LoopCount,
    Volume,
    classify_volume,
    compute_volumes,
)
from repro.volume.symbolic import Term


def g(fn, lid, *params):
    return Volume.of_loop(LoopCount(fn, lid, frozenset(params)))


class TestVolumeAlgebra:
    def test_constant(self):
        v = Volume.constant(3)
        assert v.is_constant
        assert v.params == frozenset()

    def test_sequencing_adds(self):
        v = g("f", 0, "a") + g("f", 1, "b")
        assert len(v.terms) == 2
        assert v.params == frozenset({"a", "b"})

    def test_nesting_multiplies(self):
        v = g("f", 0, "a") * g("f", 1, "b")
        assert len(v.terms) == 1
        assert v.terms[0].params == frozenset({"a", "b"})

    def test_distribution(self):
        v = g("f", 0, "a") * (g("f", 1, "b") + Volume.constant(1))
        groups = v.param_groups()
        assert frozenset({"a", "b"}) in groups
        assert frozenset({"a"}) in groups

    def test_merge_equal_terms(self):
        v = g("f", 0, "a") + g("f", 0, "a")
        assert len(v.terms) == 1
        assert v.terms[0].coefficient == 2.0

    def test_zero_coefficient_dropped(self):
        v = Volume([Term(0.0, ())])
        assert v.terms == ()

    def test_scaled(self):
        v = g("f", 0, "a").scaled(3)
        assert v.terms[0].coefficient == 3.0

    def test_degree(self):
        v = g("f", 0, "a") * g("f", 1, "b") * g("f", 2, "c")
        assert v.degree() == 3
        assert Volume.constant(5).degree() == 0

    def test_str_stable(self):
        v = g("f", 1, "b") + g("f", 0, "a")
        assert str(v) == str(g("f", 1, "b") + g("f", 0, "a"))

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3), st.sets(st.sampled_from("abc"), max_size=2)
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_addition_commutative(self, specs):
        vols = [
            Volume.of_loop(LoopCount("f", lid, frozenset(ps)))
            for lid, ps in specs
        ]
        left = Volume.zero()
        for v in vols:
            left = left + v
        right = Volume.zero()
        for v in reversed(vols):
            right = right + v
        assert left == right

    @given(
        st.sets(st.sampled_from("abcd"), min_size=0, max_size=3),
        st.sets(st.sampled_from("abcd"), min_size=0, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_product_params_union(self, xs, ys):
        a = Volume.of_loop(LoopCount("f", 0, frozenset(xs)))
        b = Volume.of_loop(LoopCount("g", 1, frozenset(ys)))
        assert (a * b).params == frozenset(xs) | frozenset(ys)


class TestDependencyClassification:
    def test_additive(self):
        v = g("f", 0, "p") + g("f", 1, "s")
        dep = classify_volume(v)
        assert dep.additive_only
        assert dep.are_additive("p", "s")

    def test_multiplicative(self):
        v = g("f", 0, "p") * g("f", 1, "s")
        dep = classify_volume(v)
        assert not dep.additive_only
        assert dep.are_multiplicative("p", "s")
        assert dep.multiplicative_groups == (frozenset({"p", "s"}),)

    def test_single_condition_multilabel_is_multiplicative(self):
        """The paper's conservative over-approximation (5.2)."""
        v = g("f", 0, "p", "s")
        dep = classify_volume(v)
        assert dep.are_multiplicative("p", "s")

    def test_mixed(self):
        v = g("f", 0, "p") * g("f", 1, "s") + g("f", 2, "q")
        dep = classify_volume(v)
        assert dep.are_multiplicative("p", "s")
        assert dep.are_additive("p", "q")

    def test_constant_volume(self):
        dep = classify_volume(Volume.constant(4))
        assert dep.additive_only
        assert dep.params == frozenset()


class TestVolumeAnalyzer:
    def _taint(self, prog, args, sources=None):
        entry = prog.function(prog.entry)
        sources = sources or {n: n for n in entry.params}
        return TaintEngine(prog).analyze(args, sources).report

    def test_additive_program(self):
        prog = build_additive_example()
        taint = self._taint(prog, {"p": 3, "s": 4})
        report = compute_volumes(prog, taint)
        dep = classify_volume(report.program)
        assert dep.are_additive("p", "s")

    def test_multiplicative_program(self):
        prog = build_multiplicative_example()
        taint = self._taint(prog, {"p": 3, "s": 4})
        report = compute_volumes(prog, taint)
        dep = classify_volume(report.program)
        assert dep.are_multiplicative("p", "s")

    def test_exclusive_vs_inclusive(self):
        prog = build_additive_example()
        taint = self._taint(prog, {"p": 3, "s": 4})
        report = compute_volumes(prog, taint)
        # main has no own loops: exclusive constant, inclusive parametric.
        assert report.exclusive["main"].is_constant
        assert not report.inclusive["main"].is_constant

    def test_static_loops_are_constants(self):
        from repro.ir import ProgramBuilder

        pb = ProgramBuilder()
        with pb.function("main", ["n"]) as f:
            with f.for_("i", 0, 8):
                f.work(1)
        prog = pb.build(entry="main")
        taint = self._taint(prog, {"n": 2})
        report = compute_volumes(prog, taint)
        assert report.program.is_constant

    def test_unexecuted_loop_warns(self):
        from repro.ir import ProgramBuilder, lt, var

        pb = ProgramBuilder()
        with pb.function("main", ["n"]) as f:
            with f.if_(lt(var("n"), 0)):
                with f.for_("i", 0, f.var("n")):
                    f.work(1)
        prog = pb.build(entry="main")
        taint = self._taint(prog, {"n": 5})  # branch not taken
        report = compute_volumes(prog, taint)
        # Exactly once, although the loop is in both the exclusive and
        # the inclusive volume of main.
        assert [w for w in report.warnings if "not executed" in w] == [
            "loop main#0 was not executed during the taint run; its "
            "parameter class is unknown"
        ]

    def test_lulesh_program_volume_params(self, lulesh_program, lulesh_taint):
        report = compute_volumes(lulesh_program, lulesh_taint)
        # every annotated parameter that reaches a loop shows up
        assert {"size", "iters", "regions", "p"} <= report.program.params

    def test_recursion_skips_edge(self):
        from repro.ir import ProgramBuilder, lt, var, call, add

        pb = ProgramBuilder()
        with pb.function("rec", ["n"]) as f:
            with f.for_("i", 0, f.var("n")):
                f.work(1)
            with f.if_(lt(var("n"), 2)):
                f.call("rec", add(var("n"), 1))
        with pb.function("main", ["n"]) as f:
            f.call("rec", var("n"))
        prog = pb.build(entry="main")
        taint = self._taint(prog, {"n": 0})
        report = compute_volumes(prog, taint)
        assert any("recursive" in w for w in report.warnings)
