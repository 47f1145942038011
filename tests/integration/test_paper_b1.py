"""Paper section B1 as a tier-1 invariant: exact counts, both studies.

``benchmarks/bench_qualB1_milc.py`` and ``bench_qualB1_noise.py``
regenerate the B1 tables but are not collected by the default test run.
This module recomputes both studies through :class:`PerfTaintPipeline`
with the same designs, seeds, repetitions and full instrumentation, and
pins today's numbers exactly, so a change to measurement or model search
cannot silently change the paper's result.
"""

from __future__ import annotations

from repro.core.hybrid import HybridModeler
from repro.core.pipeline import PerfTaintPipeline
from repro.measure import APP_KEY, full_plan

#: Same designs, seeds and repetitions as the two qualB1 benchmarks.
MILC_DESIGN = {"p": [4, 16, 64], "size": [64, 160, 256]}
LULESH_DESIGN = {"p": [27, 64, 125, 216, 343], "size": [8, 11, 14, 17, 20]}
RANK_WRAPPERS = ("GetMyRank", "LogRank", "DebugRank", "TraceRank")


def _study(workload, design_values, repetitions, seed):
    pipe = PerfTaintPipeline(
        workload=workload, repetitions=repetitions, seed=seed
    )
    _static, taint, volumes, deps, _ = pipe.analyze()
    design = pipe.design(design_values, taint, deps, volumes)
    meas, _ = pipe.measure(
        design.configurations, full_plan(workload.program())
    )
    models = pipe.model(
        meas, taint, volumes, compare_black_box=True, cov_threshold=0.1
    )
    reliable = [fn for fn in models if fn != APP_KEY]
    constant = [fn for fn in reliable if not taint.function_params(fn)]
    parametric = [
        fn
        for fn in reliable
        if models[fn].black_box is not None
        and models[fn].black_box.used_parameters()
    ]
    return models, reliable, constant, parametric


def test_milc_b1_counts(milc_workload):
    """MILC: 27 of the 29 parametric black-box models sit on functions
    taint proves constant, and the hybrid prior corrects all 27."""
    models, reliable, constant, parametric = _study(
        milc_workload, MILC_DESIGN, repetitions=3, seed=17
    )
    wrong = [fn for fn in constant if fn in parametric]
    corrected = [fn for fn in wrong if models[fn].hybrid.is_constant]
    assert len(reliable) == 122
    assert len(constant) == 64
    assert len(parametric) == 29
    assert len(wrong) == 27
    assert corrected == wrong


def test_lulesh_noise_b1_counts(lulesh_workload):
    """LULESH 5x5 under noise: 43 false dependencies corrected, and
    every taint-constant function -- the four rank wrappers among them
    -- modeled constant by the hybrid modeler."""
    models, reliable, constant, parametric = _study(
        lulesh_workload, LULESH_DESIGN, repetitions=5, seed=3
    )
    false_deps = HybridModeler.false_dependency_report(models)
    corrected = [fn for fn in constant if fn in false_deps]
    assert len(reliable) == 79
    assert len(constant) == 51
    assert len(parametric) == 69
    assert len(corrected) == 43
    assert all(models[fn].hybrid.is_constant for fn in constant)
    wrappers = [fn for fn in RANK_WRAPPERS if fn in models]
    assert len(wrappers) == 4
    assert all(models[fn].hybrid.is_constant for fn in wrappers)
