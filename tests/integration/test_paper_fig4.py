"""Paper Figure 4 as a tier-1 invariant: MILC instrumentation overhead.

``benchmarks/bench_fig4_milc_overhead.py`` regenerates the figure but is
not collected by the default test run.  This module sweeps the same full
ranks x size grid with the same four plans and keeps the benchmark's
four assertions with their bounds: the taint filter's geometric-mean
overhead is under 10% (1.6% in the paper) and under 5% at every point of
the largest size, full instrumentation more than doubles the run time,
and the default filter stays within 15% of full ("little to no
benefit").  A smaller corner of the grid would not do: on 2 x 2 the
taint geomean reads about 1.118, above the bound.
"""

from __future__ import annotations

import math

from repro.measure import (
    default_filter_plan,
    full_plan,
    none_plan,
    profile_run,
    taint_filter_plan,
)

#: Same grid as the Figure 4 benchmark.
RANKS = (4, 8, 16, 32, 64)
SIZES = (32, 64, 128, 256, 512)
MODES = ("taint", "default", "full")


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_fig4_overhead_ordering(milc_workload, milc_static, milc_taint):
    prog = milc_workload.program()
    plans = {
        "native": none_plan(),
        "taint": taint_filter_plan(prog, milc_taint, milc_static),
        "default": default_filter_plan(prog),
        "full": full_plan(prog),
    }
    series = {mode: [] for mode in MODES}
    large_taint = []
    for p in RANKS:
        for size in SIZES:
            setup = milc_workload.setup({"p": p, "size": size})
            times = {
                name: profile_run(
                    prog, setup.args, plan, runtime=setup.runtime
                ).total_time()
                for name, plan in plans.items()
            }
            for mode in MODES:
                series[mode].append(times[mode] / times["native"])
            if size == max(SIZES):
                large_taint.append(times["taint"] / times["native"])

    gm = {mode: geomean(values) for mode, values in series.items()}
    assert gm["taint"] - 1 < 0.10
    assert all(v - 1 < 0.05 for v in large_taint)
    assert gm["full"] - 1 > 1.0
    assert gm["default"] > 0.85 * gm["full"]
