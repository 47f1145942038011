"""Dispatch speedup of the compiled engine over the tree-walker.

The workload is deliberately hostile to every shortcut the execution
substrate has: a stateful loop nest whose body mutates an accumulator and
an array each iteration, so the O(1) loop fast path is ineligible and
both engines must genuinely execute every statement.  What remains is
pure dispatch — the cost the IR→closure compiler exists to remove.

Run with ``pytest benchmarks/bench_engine_speedup.py -s``.

Environment knobs:

* ``REPRO_BENCH_ENGINE_N`` — loop-nest extent (default 300; the nest
  executes ~4*N^2 statements).  The CI smoke job uses a tiny grid.
* ``REPRO_BENCH_MIN_SPEEDUP`` — the assertion bar (default 3.0 for a
  real grid; the CI smoke job lowers it to 1.0, i.e. "compiled must
  never be slower").
"""

from __future__ import annotations

import os
import time

from repro.interp import ExecConfig, FastPathPlanner, make_engine
from repro.ir.builder import ProgramBuilder, add, load, mod, mul, sub, var

from conftest import report


def _engine_bench_program():
    """A fastpath-ineligible stateful loop nest (accumulator + array)."""
    pb = ProgramBuilder()
    with pb.function("main", ["n"]) as f:
        f.alloc("a", var("n"))
        f.assign("acc", 0.0)
        with f.for_("i", 0, var("n")):
            with f.for_("j", 0, var("n")):
                # Bounded feedback (mod keeps magnitudes finite) so the
                # value comparison below stays exact over any extent.
                f.assign("acc", mod(add(var("acc"), mul(var("i"), var("j"))), 9973.0))
                f.assign("k", mod(add(var("i"), var("j")), var("n")))
                f.store("a", var("k"), add(load("a", var("k")), var("acc")))
                f.assign(
                    "acc",
                    mod(sub(var("acc"), load("a", mod(var("j"), var("n")))), 9973.0),
                )
        f.ret(var("acc"))
    return pb.build(entry="main")


def _time_engine(program, engine: str, n: int, rounds: int = 3):
    """Best-of-*rounds* wall time plus the run result for identity checks.

    Engine construction sits inside the timed region: the measurement
    layer builds a fresh engine per profiled run, so the compiled
    engine's one-time lowering cost is part of what production pays and
    must not be hidden from the gate.
    """
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = make_engine(program, engine).run({"n": n})
        best = min(best, time.perf_counter() - started)
    return best, result


def test_engine_speedup():
    n = int(os.environ.get("REPRO_BENCH_ENGINE_N", "300"))
    min_speedup = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))
    program = _engine_bench_program()
    # Both loops must stay outside the closed-form planner, or this
    # would time the fast path instead of dispatch.
    planner = FastPathPlanner(program, ExecConfig())
    loops = program.function("main").loops()
    assert len(loops) == 2
    assert all(planner.plan("main", loop) is None for loop in loops)

    tree_time, tree_result = _time_engine(program, "tree", n)
    compiled_time, compiled_result = _time_engine(program, "compiled", n)
    speedup = tree_time / compiled_time

    # The speedup must never come at the cost of a single diverging bit.
    assert tree_result.value == compiled_result.value
    assert tree_result.steps == compiled_result.steps
    assert tree_result.metrics.totals == compiled_result.metrics.totals
    assert (
        tree_result.metrics.loop_iterations
        == compiled_result.metrics.loop_iterations
    )

    statements = tree_result.steps
    lines = [
        f"stateful loop nest, n={n} "
        f"({statements} interpreter steps, fast path ineligible)",
        "",
        f"{'engine':>10}  {'time [s]':>9}  {'Msteps/s':>9}",
        f"{'tree':>10}  {tree_time:>9.3f}  {statements / tree_time / 1e6:>9.2f}",
        f"{'compiled':>10}  {compiled_time:>9.3f}  "
        f"{statements / compiled_time / 1e6:>9.2f}",
        "",
        f"dispatch speedup: {speedup:.2f}x (bar: {min_speedup:.1f}x)",
        "results bit-identical: yes",
    ]
    report(
        "engine_speedup",
        "\n".join(lines),
        data={
            "n": n,
            "steps": statements,
            "tree_seconds": tree_time,
            "compiled_seconds": compiled_time,
            "speedup": speedup,
            "min_speedup_bar": min_speedup,
            "results_identical": True,
        },
    )

    assert speedup >= min_speedup, (
        f"compiled engine speedup {speedup:.2f}x below the "
        f"{min_speedup:.1f}x bar (tree {tree_time:.3f}s vs "
        f"compiled {compiled_time:.3f}s at n={n})"
    )
