"""Section A2 — parameter dependencies and reduced experiment designs.

Three cases from the paper:

* the schematic example: two sequenced loops (p, s additive) need only
  single-parameter sweeps (9 instead of 25 configurations for 5x5 values),
  while nesting (multiplicative) requires the full factorial;
* LULESH's ``iters``: "a single instance ... in the main loop" that is
  multiplicative with all other parameters — its dimension is collapsed;
* parameters with no performance effect are dropped outright (A1).
"""

from conftest import report

from repro.apps.synthetic import (
    build_additive_example,
    build_foo_example,
    build_multiplicative_example,
)
from repro.core.experiment_design import design_experiments
from repro.core.pipeline import PerfTaintPipeline
from repro.core.report import format_table
from repro.taint import TaintEngine
from repro.volume import classify_program, compute_volumes

FIVE = [2, 4, 8, 16, 32]


def _design_for(program, args, values):
    entry = program.function(program.entry)
    sources = {n: n for n in entry.params}
    taint = TaintEngine(program).analyze(args, sources).report
    volumes = compute_volumes(program, taint)
    deps = classify_program(volumes.inclusive, volumes.program)
    return design_experiments(values, taint, deps, volumes.program)


def test_costA2_design_reduction(benchmark, lulesh_workload):
    def run():
        additive = _design_for(
            build_additive_example(), {"p": 3, "s": 4}, {"p": FIVE, "s": FIVE}
        )
        mult = _design_for(
            build_multiplicative_example(),
            {"p": 3, "s": 4},
            {"p": FIVE, "s": FIVE},
        )
        pruned = _design_for(
            build_foo_example(), {"a": 4, "b": 5}, {"a": FIVE, "b": FIVE}
        )
        pipe = PerfTaintPipeline(workload=lulesh_workload)
        static, taint, volumes, deps, _ = pipe.analyze()
        lulesh = design_experiments(
            {"p": [8, 27, 64], "size": [5, 10, 15], "iters": [2, 4, 8]},
            taint,
            deps,
            volumes.program,
        )
        return additive, mult, pruned, lulesh

    additive, mult, pruned, lulesh = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    rows = [
        ("additive p+s (paper: 9 vs 25)", additive.naive_size, additive.size,
         additive.strategy),
        ("multiplicative p*s", mult.naive_size, mult.size, mult.strategy),
        ("irrelevant param pruned (foo)", pruned.naive_size, pruned.size,
         f"pruned: {','.join(pruned.pruned_parameters)}"),
        ("LULESH iters collapse", lulesh.naive_size, lulesh.size,
         f"collapsed: {','.join(lulesh.collapsed_parameters)}"),
    ]
    report(
        "costA2_design",
        format_table(("case", "naive", "reduced", "how"), rows),
        data={
            "additive": {"naive": additive.naive_size, "reduced": additive.size},
            "multiplicative": {"naive": mult.naive_size, "reduced": mult.size},
            "pruned": {
                "naive": pruned.naive_size,
                "reduced": pruned.size,
                "pruned_parameters": list(pruned.pruned_parameters),
            },
            "lulesh": {
                "naive": lulesh.naive_size,
                "reduced": lulesh.size,
                "collapsed_parameters": list(lulesh.collapsed_parameters),
            },
        },
    )

    # The paper's schematic: additive -> 9 experiments instead of 25.
    assert additive.size == 9 and additive.naive_size == 25
    assert mult.size == 25  # multiplicative needs the full factorial
    assert pruned.pruned_parameters == ("b",)
    assert pruned.size == 5
    assert lulesh.collapsed_parameters == ("iters",)
    assert lulesh.size == 9 and lulesh.naive_size == 27
