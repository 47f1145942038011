"""Paper Figure 3 as a tier-1 invariant: LULESH instrumentation overhead.

``benchmarks/bench_fig3_lulesh_overhead.py`` regenerates the figure but
is not collected by the default test run.  This module sweeps the same
ranks x size grid with the same four plans and keeps the benchmark's
three assertions with their bounds: the taint filter stays within 5.5%
of native at every point, full instrumentation is more than 8x native
everywhere, and the default filter sits between the two at every point.
"""

from __future__ import annotations

from repro.measure import (
    default_filter_plan,
    full_plan,
    none_plan,
    profile_run,
    taint_filter_plan,
)

#: Same grid as the Figure 3 benchmark.
RANKS = (8, 27, 64)
SIZES = (15, 20, 25, 30)
MODES = ("taint", "default", "full")


def test_fig3_overhead_ordering(lulesh_workload, lulesh_static, lulesh_taint):
    prog = lulesh_workload.program()
    plans = {
        "native": none_plan(),
        "taint": taint_filter_plan(prog, lulesh_taint, lulesh_static),
        "default": default_filter_plan(prog),
        "full": full_plan(prog),
    }
    series = {mode: [] for mode in MODES}
    for p in RANKS:
        for size in SIZES:
            setup = lulesh_workload.setup({"p": p, "size": size})
            times = {
                name: profile_run(
                    prog, setup.args, plan, runtime=setup.runtime
                ).total_time()
                for name, plan in plans.items()
            }
            for mode in MODES:
                series[mode].append(times[mode] / times["native"])

    assert max(series["taint"]) < 1.055  # "differ by at most 5.5%"
    assert min(series["full"]) > 8.0
    assert all(
        t <= d <= f
        for t, d, f in zip(series["taint"], series["default"], series["full"])
    )
