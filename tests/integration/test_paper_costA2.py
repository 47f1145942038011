"""Paper section A2 as a tier-1 invariant: design reduction from volumes.

``benchmarks/bench_costA2_design.py`` regenerates the costA2 table but is
not collected by the default test run.  This module recomputes its four
cases, taint run → symbolic volumes → dependency classes → experiment
design, and pins the same numbers, so a change to the volume calculus or
the classification cannot silently change the paper's result:

* two sequenced loops (p, s additive) need single-parameter sweeps, 9
  configurations instead of 25 for 5 x 5 values;
* nested loops (multiplicative) need the full factorial;
* a parameter with no effect on any loop is pruned (section A1);
* LULESH's ``iters``, "a single instance ... in the main loop", is
  collapsed: 27 configurations become 9.
"""

from __future__ import annotations

from repro.apps.synthetic import (
    build_additive_example,
    build_foo_example,
    build_multiplicative_example,
)
from repro.core.experiment_design import design_experiments
from repro.taint import TaintEngine
from repro.volume import classify_program, compute_volumes

FIVE = [2, 4, 8, 16, 32]


def _design_for(program, taint, values):
    volumes = compute_volumes(program, taint)
    deps = classify_program(volumes.inclusive, volumes.program)
    return design_experiments(values, taint, deps, volumes.program)


def _synthetic_design(program, args, values):
    sources = {n: n for n in program.function(program.entry).params}
    taint = TaintEngine(program).analyze(args, sources).report
    return _design_for(program, taint, values)


def test_additive_sweeps_one_parameter_at_a_time():
    design = _synthetic_design(
        build_additive_example(), {"p": 3, "s": 4}, {"p": FIVE, "s": FIVE}
    )
    assert (design.naive_size, design.size) == (25, 9)


def test_multiplicative_needs_full_factorial():
    design = _synthetic_design(
        build_multiplicative_example(),
        {"p": 3, "s": 4},
        {"p": FIVE, "s": FIVE},
    )
    assert (design.naive_size, design.size) == (25, 25)


def test_irrelevant_parameter_pruned():
    design = _synthetic_design(
        build_foo_example(), {"a": 4, "b": 5}, {"a": FIVE, "b": FIVE}
    )
    assert design.pruned_parameters == ("b",)
    assert design.size == 5


def test_lulesh_iters_collapsed(lulesh_program, lulesh_taint):
    design = _design_for(
        lulesh_program,
        lulesh_taint,
        {"p": [8, 27, 64], "size": [5, 10, 15], "iters": [2, 4, 8]},
    )
    assert design.collapsed_parameters == ("iters",)
    assert (design.naive_size, design.size) == (27, 9)
