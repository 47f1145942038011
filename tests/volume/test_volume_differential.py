"""Differential tests: the one-pass volume calculus against the fold.

The oracle below is the calculus as first written: a :class:`FoldVolume`
re-merges and re-sorts the whole running sum on every ``+``, and
:class:`FoldAnalyzer` walks every function twice, once for the exclusive
and once for the inclusive volumes.  :func:`repro.volume.compute_volumes`
must produce the same JSON bytes (:func:`repro.codec.encode`): the same
coefficients, down to the last bit, in the same factor and term order.
Its warnings are the oracle's with duplicates removed, since the oracle
warns about an unexecuted loop once per pass (and per re-walk).  Both
apply one recursion rule: a call to a function on the walk stack counts
1, and a function in a recursive cycle is memoized only when walked with
no other member of its cycle on the stack.

Random programs come from the engine differential's statement generator
plus what only the volume calculus sees: static trip counts (large ones
make the order of floating-point sums visible), ``while`` loops, branches
whose loops the taint run may not have executed, calls to several
functions in one statement, and direct and mutual recursion.  Their taint
reports are drawn, loop by loop: unexecuted, or executed with a drawn set
of parameters.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import encode
from repro.apps.synthetic import (
    build_additive_example,
    build_algorithm_selection_example,
    build_control_flow_example,
    build_foo_example,
    build_multiplicative_example,
)
from repro.ir import ProgramBuilder, add, call, lt, var
from repro.ir.callgraph import build_callgraph
from repro.ir.expr import Call
from repro.ir.program import Program
from repro.ir.stmt import For, If, While
from repro.staticanalysis.scev import static_trip_count
from repro.taint import TaintEngine
from repro.taint.report import TaintReport
from repro.volume import LoopCount, Term, VolumeReport, compute_volumes

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "interp"))
from test_engine_differential import _gen_block  # noqa: E402


# ----------------------------------------------------------------------
# the oracle: fold ``+`` over canonical volumes, two passes


def _count_key(count: LoopCount) -> tuple:
    return (count.function, count.loop_id, tuple(sorted(count.params)))


def _fold_order(item) -> tuple:
    factors = item[0]
    return (len(factors), [_count_key(c) for c in factors])


class FoldVolume:
    """A canonical sum of terms, rebuilt from scratch by every operation."""

    def __init__(self, terms=()) -> None:
        merged: dict = {}
        for term in terms:
            if term.coefficient == 0:
                continue
            merged[term.factors] = (
                merged.get(term.factors, 0.0) + term.coefficient
            )
        self.terms = tuple(
            Term(coef, factors)
            for factors, coef in sorted(merged.items(), key=_fold_order)
            if coef != 0
        )

    def __add__(self, other: "FoldVolume") -> "FoldVolume":
        return FoldVolume(self.terms + other.terms)

    def __mul__(self, other: "FoldVolume") -> "FoldVolume":
        return FoldVolume(
            Term(
                a.coefficient * b.coefficient,
                tuple(sorted(a.factors + b.factors, key=_count_key)),
            )
            for a in self.terms
            for b in other.terms
        )


def _constant(value: float) -> FoldVolume:
    return FoldVolume([Term(float(value), ())])


class FoldAnalyzer:
    """Exclusive volumes in one pass, inclusive volumes in a second."""

    def __init__(self, program, taint: TaintReport) -> None:
        self.program = program
        self.params = taint.loops_by_function()
        self.warnings: list[str] = []
        self.inclusive: dict[str, FoldVolume] = {}
        self.stack: list[str] = []
        self.cycle: dict[str, set[str]] = {}

    def analyze(self) -> VolumeReport:
        graph = build_callgraph(self.program)
        for scc in graph.components:
            if len(scc) > 1:
                for name in scc:
                    self.cycle[name] = set(scc) - {name}
        if graph.has_recursion:
            rec = ", ".join(sorted(graph.recursive_functions()))
            self.warnings.append(
                f"recursive functions ({rec}): volume accumulation skips "
                "recursive call edges (over-approximation, section 4.1)"
            )
        exclusive = {
            fn.name: self.body(fn.name, fn.body, False) for fn in self.program
        }
        inclusive = {fn.name: self.function(fn.name) for fn in self.program}
        return VolumeReport(
            inclusive=inclusive,
            exclusive=exclusive,
            program=inclusive[self.program.entry],
            warnings=list(self.warnings),
        )

    def function(self, name: str) -> FoldVolume:
        if name in self.stack:
            return _constant(1.0)
        memoize = not self.cycle.get(name, set()) & set(self.stack)
        if memoize and name in self.inclusive:
            return self.inclusive[name]
        self.stack.append(name)
        volume = self.body(name, self.program.function(name).body, True)
        self.stack.pop()
        if memoize:
            self.inclusive[name] = volume
        return volume

    def count(self, fn: str, loop) -> FoldVolume:
        static = static_trip_count(loop)
        if static is not None:
            return _constant(float(static))
        params = self.params.get(fn, {}).get(loop.loop_id)
        if params is None:
            self.warnings.append(
                f"loop {fn}#{loop.loop_id} was not executed during the "
                "taint run; its parameter class is unknown"
            )
            params = frozenset()
        return FoldVolume([Term(1.0, (LoopCount(fn, loop.loop_id, params),))])

    def body(self, fn: str, stmts, inline: bool) -> FoldVolume:
        total = _constant(1.0)
        for stmt in stmts:
            total = total + self.stmt(fn, stmt, inline)
        return total

    def stmt(self, fn: str, stmt, inline: bool) -> FoldVolume:
        if isinstance(stmt, (For, While)):
            count = self.count(fn, stmt)
            return count * self.body(fn, stmt.body, inline)
        vol = FoldVolume()
        if isinstance(stmt, If):
            for sub in stmt.then_body + stmt.else_body:
                vol = vol + self.stmt(fn, sub, inline)
            return vol
        if inline:
            for expr in stmt.exprs():
                for node in expr.walk():
                    if (
                        isinstance(node, Call)
                        and node.callee in self.program
                        and node.callee != fn
                    ):
                        vol = vol + self.function(node.callee)
        return vol


def report_bytes(report: VolumeReport) -> str:
    return json.dumps(encode(report))


def assert_same_volumes(program, taint: TaintReport) -> VolumeReport:
    got = compute_volumes(program, taint)
    want = FoldAnalyzer(program, taint).analyze()
    want.warnings = list(dict.fromkeys(want.warnings))
    assert report_bytes(got) == report_bytes(want)
    return got


# ----------------------------------------------------------------------
# random programs and taint reports

#: Static trip counts; the large ones round when summed, so a sum taken
#: in another order shows in the coefficients.
STATIC_TRIPS = (0, 1, 2, 5, 2**53, 2**53 + 2, 3 * 2**52)
#: Program functions and their parameters; any of them may call any
#: other, and the order they are defined in is drawn.
SIGNATURES = {
    "leaf": ["x"],
    "helper": ["n", "m"],
    "rec": ["n"],
    "ping": ["n"],
    "pong": ["n"],
    "main": ["a", "b"],
}


def _gen_volume_block(draw, f, names, depth: int, in_loop: bool) -> None:
    """Emit 1-4 statements into builder *f*."""
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.integers(0, 6))
        fresh = f"v{depth}_{len(names)}_{kind}"
        if kind == 0:  # static trip count
            trips = draw(st.sampled_from(STATIC_TRIPS))
            with f.for_(fresh, 0, trips):
                _gen_body(draw, f, names, depth)
        elif kind == 1:  # trip count from the taint report
            bound = var(draw(st.sampled_from(names)))
            with f.for_(fresh, 0, bound):
                _gen_body(draw, f, names + [fresh], depth)
        elif kind == 2:  # while loop
            with f.while_(lt(var(draw(st.sampled_from(names))), 3)):
                _gen_body(draw, f, names, depth)
        elif kind == 3 and depth > 0:  # branch; its loops may not have run
            with f.if_(lt(var(draw(st.sampled_from(names))), -1)):
                _gen_volume_block(draw, f, names, depth - 1, in_loop)
            if draw(st.booleans()):
                with f.else_():
                    _gen_volume_block(draw, f, names, depth - 1, in_loop)
        elif kind == 4:  # several program calls in one statement
            any_function = st.sampled_from(sorted(SIGNATURES))
            callees = draw(st.lists(any_function, min_size=1, max_size=3))
            calls = [
                call(c, *[var(names[0])] * len(SIGNATURES[c])) for c in callees
            ]
            expr = calls[0]
            for more in calls[1:]:
                expr = add(expr, more)
            f.assign(f"t{len(names)}", expr)
        elif kind == 5:
            f.work(1.0)
        else:  # the engine differential's statement mix
            _gen_block(draw, f, list(names), min(depth, 1), in_loop)


def _gen_body(draw, f, names, depth: int) -> None:
    if depth > 0 and draw(st.booleans()):
        _gen_volume_block(draw, f, names, depth - 1, in_loop=True)
    else:
        f.work(2.0)


@st.composite
def programs_with_reports(draw):
    pb = ProgramBuilder()
    for name in draw(st.permutations(sorted(SIGNATURES))):
        params = SIGNATURES[name]
        with pb.function(name, params) as f:
            depth = 2 if name == "main" else 1
            _gen_volume_block(draw, f, list(params), depth, in_loop=False)
    program = pb.build(entry="main")
    report = TaintReport()
    params = st.frozensets(st.sampled_from(("a", "b", "n")), max_size=2)
    for fn in program:
        for loop in fn.loops():
            executed = draw(st.one_of(st.none(), params))
            if executed is not None:
                report.record_loop(
                    (fn.name,), fn.name, loop.loop_id, executed, 1
                )
    return program, report


class TestRandomPrograms:
    @given(programs_with_reports())
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_as_the_fold(self, case):
        program, report = case
        assert_same_volumes(program, report)


class TestDefinitionOrder:
    """Volumes do not depend on the order functions are defined in,
    recursive cycles included."""

    @staticmethod
    def _ping_pong(order):
        def ping(f):
            with f.for_("i", 0, var("n")):
                f.work(1.0)
            f.call("pong", var("n"))

        def pong(f):
            with f.for_("i", 0, var("n")):
                f.work(1.0)
            with f.if_(lt(var("n"), 0)):
                f.call("ping", var("n"))

        def main(f):
            f.call("ping", var("n"))

        bodies = {"ping": ping, "pong": pong, "main": main}
        pb = ProgramBuilder()
        for name in order:
            with pb.function(name, ["n"]) as f:
                bodies[name](f)
        return pb.build(entry="main")

    @pytest.mark.parametrize(
        "order",
        [("ping", "pong", "main"), ("pong", "ping", "main")],
        ids=["ping-first", "pong-first"],
    )
    def test_mutual_recursion_pinned(self, order):
        program = self._ping_pong(order)
        taint = TaintEngine(program).analyze({"n": 3}, {"n": "n"}).report
        report = assert_same_volumes(program, taint)
        cycle = "3 + g[ping#0](n) + g[pong#0](n)"
        assert {name: str(v) for name, v in report.inclusive.items()} == {
            "main": "4 + g[ping#0](n) + g[pong#0](n)",
            "ping": cycle,
            "pong": cycle,
        }

    @given(programs_with_reports())
    @settings(max_examples=100, deadline=None)
    def test_reversed_definition_order(self, case):
        program, report = case
        reverse = Program.build(reversed(list(program)), program.entry)
        got = compute_volumes(program, report)
        want = compute_volumes(reverse, report)
        assert got.inclusive == want.inclusive
        assert got.program == want.program


# ----------------------------------------------------------------------
# the bundled applications


def _taint(program, args):
    sources = {n: n for n in program.function(program.entry).params}
    return TaintEngine(program).analyze(args, sources).report


class TestApplications:
    def test_lulesh(self, lulesh_program, lulesh_taint):
        got = assert_same_volumes(lulesh_program, lulesh_taint)
        assert got.warnings == []

    def test_milc(self, milc_program, milc_taint):
        got = assert_same_volumes(milc_program, milc_taint)
        assert [w.split()[1] for w in got.warnings] == [
            "gather_linear#0",
            "dslash_special#0",
            "gauge_action#0",
        ]

    def test_synthetic_examples(self):
        cases = [
            (build_foo_example(), {"a": 4, "b": 5}),
            (build_additive_example(), {"p": 3, "s": 4}),
            (build_multiplicative_example(), {"p": 3, "s": 4}),
            (build_control_flow_example(), {"size": 3, "regions": 2}),
            (build_algorithm_selection_example(), {"a": 2}),
        ]
        for program, args in cases:
            assert_same_volumes(program, _taint(program, args))
