"""Paper section A3 as a tier-1 invariant: experiment cost in core-hours.

``benchmarks/bench_costA_corehours.py`` regenerates the costA table but
is not collected by the default test run.  This module measures the
benchmark's LULESH and MILC designs twice each through
``run_measure_stage`` (via :class:`PerfTaintPipeline`) — once fully
instrumented, once under the taint filter — and keeps both of its
assertions with their bounds: taint-based instrumentation saves LULESH
the overwhelming majority of its simulated core-hours, and MILC a more
moderate share.
"""

from __future__ import annotations

from repro.core.pipeline import PerfTaintPipeline, core_hours
from repro.measure import full_plan, taint_filter_plan

#: The benchmark's designs.
LULESH_DESIGN = {"p": [27, 64, 125], "size": [10, 15, 20]}
MILC_DESIGN = {"p": [4, 16, 64], "size": [64, 128, 256]}


def saved_fraction(workload, design_values) -> float:
    """1 - taint-filtered / fully instrumented core-hours of the design."""
    pipe = PerfTaintPipeline(workload=workload, repetitions=1)
    static, taint, volumes, deps, _ = pipe.analyze()
    design = pipe.design(design_values, taint, deps, volumes)
    prog = workload.program()
    _, full_profiles = pipe.measure(design.configurations, full_plan(prog))
    _, taint_profiles = pipe.measure(
        design.configurations, taint_filter_plan(prog, taint, static)
    )
    full_ch = core_hours(full_profiles, workload.parameters)
    taint_ch = core_hours(taint_profiles, workload.parameters)
    return 1 - taint_ch / full_ch


def test_costA_corehours(lulesh_workload, milc_workload):
    lulesh = saved_fraction(lulesh_workload, LULESH_DESIGN)
    milc = saved_fraction(milc_workload, MILC_DESIGN)
    # LULESH saves the overwhelming majority; MILC saves a more moderate
    # share; both save something, and LULESH >> MILC.
    assert lulesh > 0.80
    assert 0.02 < milc < lulesh
