"""Paper section B2 as a tier-1 invariant: instrumentation intrusion.

``benchmarks/bench_qualB2_intrusion.py`` regenerates the B2 comparison
but is not collected by the default test run.  This module measures the
same LULESH design twice through ``run_measure_stage`` (via
:class:`PerfTaintPipeline`) — once fully instrumented, once under the
taint filter — with the benchmark's seed and repetitions, and keeps
every one of its assertions and bounds: the filtered ``CalcQForElems``
model keeps its multiplicative (p, size) structure while full
instrumentation inflates the application and distorts the kernel's
model, and the default Score-P filter does not instrument the kernel.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import PerfTaintPipeline
from repro.measure import default_filter_plan, full_plan, taint_filter_plan

#: Same design, seed and repetitions as the qualB2 benchmark.
DESIGN = {"p": [27, 64, 125, 216, 343], "size": [8, 11, 14, 17, 20]}
FN = "CalcQForElems"


def test_qualB2_intrusion(lulesh_workload):
    pipe = PerfTaintPipeline(workload=lulesh_workload, repetitions=5, seed=4)
    prog = lulesh_workload.program()
    static, taint, volumes, deps, _ = pipe.analyze()
    design = pipe.design(DESIGN, taint, deps, volumes)
    filt_plan = taint_filter_plan(prog, taint, static)
    meas_full, prof_full = pipe.measure(design.configurations, full_plan(prog))
    meas_filt, prof_filt = pipe.measure(design.configurations, filt_plan)
    full_model = pipe.model(meas_full, taint, volumes)[FN].hybrid
    filt_model = pipe.model(meas_filt, taint, volumes)[FN].hybrid

    # The filtered model keeps a multiplicative (p, size) product term.
    assert any(len(t.uses()) == 2 for t in filt_model.terms), filt_model
    # Full instrumentation inflates the application substantially.
    key = next(iter(prof_full))
    app_ratio = prof_full[key].total_time() / prof_filt[key].total_time()
    assert app_ratio > 5
    # ...and distorts the measured times of the kernel itself: measured
    # magnitudes differ by a large factor at the same configuration.
    cfg = next(iter(meas_full.data[FN]))
    t_full = np.mean(meas_full.repetitions(FN, cfg))
    t_filt = np.mean(meas_filt.repetitions(FN, cfg))
    assert t_full > 2 * t_filt
    # The two models disagree qualitatively: their prediction ratio drifts
    # across the domain instead of being a constant offset.
    r_small = full_model.predict_one(
        {"p": 27, "size": 8}
    ) / filt_model.predict_one({"p": 27, "size": 8})
    r_large = full_model.predict_one(
        {"p": 343, "size": 20}
    ) / filt_model.predict_one({"p": 343, "size": 20})
    assert abs(r_large - r_small) / max(r_small, r_large) > 0.15
    # Default filter misses the kernel entirely (false negative).
    assert not default_filter_plan(prog).is_instrumented(FN)
