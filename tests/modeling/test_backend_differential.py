"""Differential suite: loop vs batched model-search backends.

The batched backend's contract is **decision identity**: on every input
it must select the same model — term set, prior metadata, constancy —
as the per-hypothesis ``loop`` oracle, with statistics equal within
float tolerance (QR on the equilibrated design vs lstsq's SVD on the
raw one).  Random designs, noise levels, and priors/restrictions
exercise the property; the three bundled apps exercise it on real
pipeline measurements.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.lulesh import LuleshWorkload
from repro.apps.milc import MilcWorkload
from repro.apps.synthetic import SyntheticWorkload, build_additive_example
from repro.core.pipeline import PerfTaintPipeline
from repro.core.stages import run_model_stage
from repro.measure import InstrumentationMode
from repro.modeling import Modeler, SearchPrior
from repro.modeling.backends import BatchedModelBackend, LoopModelBackend
from repro.modeling.crossval import loocv_smape


def _assert_same_selection(loop_model, batched_model):
    assert loop_model.terms == batched_model.terms
    assert loop_model.metadata == batched_model.metadata
    assert loop_model.is_constant == batched_model.is_constant
    # The documented float tolerance: QR on the equilibrated design vs
    # lstsq's SVD on the raw one diverge by ~eps * condition number, so
    # coefficients of ill-conditioned (but accepted) designs can differ
    # in the 6th digit while the selected structure is identical.
    np.testing.assert_allclose(
        loop_model.coefficients,
        batched_model.coefficients,
        rtol=1e-4,
        atol=1e-8,
    )
    assert loop_model.stats.rss == pytest.approx(
        batched_model.stats.rss, rel=1e-5, abs=1e-8
    )
    assert loop_model.stats.smape == pytest.approx(
        batched_model.stats.smape, rel=1e-5, abs=1e-8
    )


GROUND_TRUTHS = (
    lambda x: np.full(x.shape[0], 50.0),
    lambda x: 5.0 * x[:, 0] + 20.0,
    lambda x: 0.3 * x[:, 0] ** 2 + 10.0,
    lambda x: 4.0 * x[:, 0] * np.log2(x[:, 0]) + 5.0,
    lambda x: 2.0 * np.log2(x[:, 0]) ** 2 + 30.0,
)

GROUND_TRUTHS_2D = (
    lambda x: np.full(x.shape[0], 75.0),
    lambda x: 2.0 * x[:, 0] + 0.5 * x[:, 1] ** 2 + 10.0,
    lambda x: 1e-2 * x[:, 0] * x[:, 1] + 25.0,
    lambda x: 3.0 * np.log2(x[:, 0]) * x[:, 1] + 8.0,
    lambda x: 6.0 * x[:, 1] + 40.0,
)


class TestRandomDesignsDifferential:
    @given(
        truth=st.integers(0, len(GROUND_TRUTHS) - 1),
        sigma=st.sampled_from([0.0, 0.5, 5.0, 25.0]),
        seed=st.integers(0, 2**16),
        n=st.integers(5, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_parameter(self, truth, sigma, seed, n):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.choice(2.0 ** np.arange(1, 11), size=n, replace=False))
        X = x.reshape(-1, 1)
        y = GROUND_TRUTHS[truth](X) + rng.normal(0, sigma, n)
        loop = Modeler(backend="loop").model(X, y, ("p",))
        batched = Modeler(backend="batched").model(X, y, ("p",))
        _assert_same_selection(loop, batched)

    @given(
        truth=st.integers(0, len(GROUND_TRUTHS_2D) - 1),
        sigma=st.sampled_from([0.0, 1.0, 10.0]),
        seed=st.integers(0, 2**16),
        restriction=st.sampled_from(
            ["none", "constant", "p-only", "s-only", "no-products"]
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_multi_parameter_with_priors(
        self, truth, sigma, seed, restriction
    ):
        rng = np.random.default_rng(seed)
        ps = rng.choice([4, 8, 16, 32, 64], size=4, replace=False)
        ss = rng.choice([8, 12, 16, 24, 32, 48], size=4, replace=False)
        X = np.array([[p, s] for p in sorted(ps) for s in sorted(ss)], float)
        y = GROUND_TRUTHS_2D[truth](X) + rng.normal(0, sigma, len(X))
        prior = {
            "none": SearchPrior.black_box(),
            "constant": SearchPrior.constant(),
            "p-only": SearchPrior(allowed_params=frozenset({"p"})),
            "s-only": SearchPrior(allowed_params=frozenset({"s"})),
            "no-products": SearchPrior(
                allowed_params=frozenset({"p", "s"}),
                multiplicative_pairs=frozenset(),
            ),
        }[restriction]
        loop = Modeler(backend="loop").model(X, y, ("p", "s"), prior)
        batched = Modeler(backend="batched").model(X, y, ("p", "s"), prior)
        _assert_same_selection(loop, batched)

    @given(
        truth=st.integers(0, len(GROUND_TRUTHS_2D) - 1),
        sigma=st.sampled_from([0.5, 8.0]),
        seed=st.integers(0, 2**16),
    )
    # Condition number 2.6e7: the refit drifts 3.6e-8 relative here, so
    # this design must take the delegated path.
    @example(truth=4, sigma=0.5, seed=254)
    @settings(max_examples=25, deadline=None)
    def test_loocv_closed_form_equals_refit(self, truth, sigma, seed):
        rng = np.random.default_rng(seed)
        X = np.array(
            [[p, s] for p in (4, 8, 16, 32) for s in (8, 16, 32, 64)], float
        )
        y = GROUND_TRUTHS_2D[truth](X) + rng.normal(0, sigma, len(X))
        model = Modeler(backend="batched").model(X, y, ("p", "s"))
        loop_cv = loocv_smape(X, y, model, backend=LoopModelBackend())
        fast_cv = loocv_smape(X, y, model, backend=BatchedModelBackend())
        # The closed-form/refit identity is exact only in exact
        # arithmetic; the refit's lstsq drifts by ~condition * eps.
        # Designs above CLOSED_FORM_MAX_COND delegate to the refit, so
        # the closed form only runs where that drift stays ~1e-10.
        assert fast_cv == pytest.approx(loop_cv, rel=1e-8, abs=1e-10)


def _models_for(pipeline, values, backend):
    static, taint, volumes, deps, _ = pipeline.analyze()
    design = pipeline.design(values, taint, deps, volumes)
    plan = pipeline.plan_for(InstrumentationMode.TAINT_FILTER, taint, static)
    meas, _ = pipeline.measure(design.configurations, plan)
    return run_model_stage(
        meas,
        taint,
        volumes,
        modeler=replace(pipeline.modeler, backend=backend),
        compare_black_box=True,
        cov_threshold=None,
    )


class TestAppsDifferential:
    """All three bundled apps select identical models on both backends."""

    @pytest.mark.parametrize("app", ["synthetic", "lulesh", "milc"])
    def test_pipeline_models_identical(self, app, request):
        if app == "synthetic":
            workload = SyntheticWorkload(
                builder=build_additive_example,
                parameters=("p", "s"),
                defaults={"p": 4, "s": 4},
                name="additive",
            )
            values = {"p": [2, 4, 8, 16], "s": [2, 4, 8, 16]}
        elif app == "lulesh":
            workload = request.getfixturevalue("lulesh_workload")
            values = {"p": [27, 64, 125], "size": [8, 14, 20]}
        else:
            workload = request.getfixturevalue("milc_workload")
            values = {"p": [4, 8, 16], "size": [16, 24, 32]}
        pipeline = PerfTaintPipeline(workload=workload, repetitions=3, seed=9)
        loop_models = _models_for(pipeline, values, "loop")
        batched_models = _models_for(pipeline, values, "batched")
        assert set(loop_models) == set(batched_models)
        assert len(loop_models) > 0
        for fn in loop_models:
            _assert_same_selection(
                loop_models[fn].hybrid, batched_models[fn].hybrid
            )
            assert (loop_models[fn].black_box is None) == (
                batched_models[fn].black_box is None
            )
            if loop_models[fn].black_box is not None:
                _assert_same_selection(
                    loop_models[fn].black_box, batched_models[fn].black_box
                )
