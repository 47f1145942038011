"""Model-search backend unit tests.

The ``batched`` backend must make the same accept/reject decisions and
produce the same fits (to float tolerance) as the ``loop`` reference on
every rejection category, plus the closed-form LOOCV must match the
refit loop.  The randomized cross-backend property suite lives in
``test_backend_differential.py``; these tests pin the crafted edge
cases and the satellite regressions (deterministic shortlists, k-fold
degenerate folds, vectorized prediction).
"""

import numpy as np
import pytest

from repro.errors import ModelingError, RegistryError
from repro.modeling import (
    DEFAULT_MODEL_BACKEND,
    Modeler,
    fit_constant,
    fit_hypothesis,
    make_model_backend,
    single_param_term,
)
from repro.modeling.backends import (
    BatchedModelBackend,
    LoopModelBackend,
    refit_loocv_smape,
)
from repro.modeling.crossval import kfold_smape, loocv_smape
from repro.modeling.hypothesis import Model, ModelStats, rank_guard
from repro.modeling.search import _shortlist, best_terms_for_parameter
from repro.modeling.terms import TermSpec, evaluate_term_columns
from repro.registry import MODEL_BACKEND_REGISTRY

X1 = np.array([4.0, 8.0, 16.0, 32.0, 64.0]).reshape(-1, 1)
PARAMS = ("p",)


def _term(i, j=0):
    return single_param_term(0, 1, float(i), int(j))


def _assert_same_fits(loop_fits, batched_fits):
    assert len(loop_fits) == len(batched_fits)
    for lm, bm in zip(loop_fits, batched_fits):
        assert (lm is None) == (bm is None)
        if lm is None:
            continue
        assert lm.terms == bm.terms
        np.testing.assert_allclose(
            lm.coefficients, bm.coefficients, rtol=1e-7, atol=1e-10
        )
        assert lm.stats.rss == pytest.approx(bm.stats.rss, rel=1e-6, abs=1e-9)
        assert lm.stats.smape == pytest.approx(
            bm.stats.smape, rel=1e-6, abs=1e-9
        )
        assert lm.stats.n_coefficients == bm.stats.n_coefficients
        assert lm.stats.n_points == bm.stats.n_points


class TestRegistry:
    def test_backends_registered(self):
        assert "loop" in MODEL_BACKEND_REGISTRY
        assert "batched" in MODEL_BACKEND_REGISTRY
        assert DEFAULT_MODEL_BACKEND == "batched"

    def test_make_model_backend(self):
        assert make_model_backend("loop").name == "loop"
        assert make_model_backend("batched").name == "batched"
        with pytest.raises(RegistryError):
            make_model_backend("vectorized-nope")

    def test_identity_includes_import_path(self):
        identity = MODEL_BACKEND_REGISTRY.identity("batched")
        assert "BatchedModelBackend" in identity


class TestFitBatchEquivalence:
    def fit_both(self, X, y, hypotheses, require_nonnegative=True):
        loop = LoopModelBackend().fit_batch(
            X, y, PARAMS, hypotheses, require_nonnegative
        )
        batched = BatchedModelBackend().fit_batch(
            X, y, PARAMS, hypotheses, require_nonnegative
        )
        _assert_same_fits(loop, batched)
        return loop, batched

    def test_exact_fit(self):
        y = 3 * X1[:, 0] ** 2 + 7
        loop, batched = self.fit_both(X1, y, [(_term(2),)])
        assert batched[0].coefficients == pytest.approx([7.0, 3.0])

    def test_mixed_hypothesis_classes(self):
        """One call spanning k=2 and k=3 classes lands results in order."""
        y = 2 * X1[:, 0] + 5 * np.log2(X1[:, 0]) + 1
        hyps = [
            (_term(1),),
            (_term(0, 1),),
            (_term(1), _term(0, 1)),
            (_term(2),),
        ]
        loop, batched = self.fit_both(X1, y, hyps)
        assert batched[2] is not None
        assert batched[2].stats.rss == pytest.approx(0.0, abs=1e-6)

    def test_underdetermined_class_rejected(self):
        y = X1[:2, 0]
        hyps = [(_term(1), _term(2)), (_term(1),)]
        loop, batched = self.fit_both(X1[:2], y, hyps)
        assert batched[0] is None  # n=2 < k=3
        assert batched[1] is not None

    def test_constant_column_rejected(self):
        X = np.full((5, 1), 9.0)  # every term column is constant
        y = np.arange(5.0) + 1
        loop, batched = self.fit_both(X, y, [(_term(1),), (_term(0, 2),)])
        assert batched == [None, None]

    def test_collinear_pair_rejected(self):
        y = 2 * X1[:, 0] + 1
        loop, batched = self.fit_both(X1, y, [(_term(1), _term(1))])
        assert batched[0] is None  # duplicated term: rank-deficient

    def test_nonnegative_rejection(self):
        y = 100 - 2 * X1[:, 0]
        loop, batched = self.fit_both(X1, y, [(_term(1),)])
        assert batched[0] is None
        loop, batched = self.fit_both(
            X1, y, [(_term(1),)], require_nonnegative=False
        )
        assert batched[0] is not None

    def test_nonfinite_column_rejected(self):
        X = np.array([[-4.0], [2.0], [8.0], [16.0], [32.0]])
        y = np.arange(5.0) + 1
        # x^0.5 on a negative configuration value is NaN.
        loop, batched = self.fit_both(
            X, y, [(_term(0.5),)], require_nonnegative=False
        )
        assert batched[0] is None

    def test_empty_inputs(self):
        assert BatchedModelBackend().fit_batch(X1, X1[:, 0], PARAMS, []) == []

    def test_rhs_reuse_across_functions(self):
        """Same design, new y: cached factorization, same answers."""
        backend = BatchedModelBackend()
        hyps = [(_term(1),), (_term(2),), (_term(1), _term(0, 1))]
        for seed in range(4):
            rng = np.random.default_rng(seed)
            y = 3 * X1[:, 0] + rng.normal(0, 1, len(X1)) + 10
            loop = LoopModelBackend().fit_batch(X1, y, PARAMS, hyps)
            batched = backend.fit_batch(X1, y, PARAMS, hyps)
            _assert_same_fits(loop, batched)
        # One fitter, one prepared class per (k, hypotheses) group.
        assert len(backend._fitters) == 1
        fitter = next(iter(backend._fitters.values()))
        assert len(fitter._classes) == 2

    def test_fitter_cache_bounded(self):
        backend = BatchedModelBackend(max_fitters=2)
        for n in (3, 4, 5, 6):
            X = np.linspace(2, 64, n).reshape(-1, 1)
            backend.fit_batch(X, np.ones(n), PARAMS, [(_term(1),)], False)
        assert len(backend._fitters) == 2


class TestRankGuard:
    def test_single_and_batched_agree(self):
        good = np.column_stack([np.ones(5), X1[:, 0], np.log2(X1[:, 0])])
        bad = np.column_stack([np.ones(5), X1[:, 0], 2 * X1[:, 0]])
        stacked = np.stack([good, bad])
        *_, single_good = rank_guard(good)
        *_, single_bad = rank_guard(bad)
        *_, batched = rank_guard(stacked)
        assert not bool(single_good) and bool(single_bad)
        assert list(batched) == [False, True]

    def test_extreme_scaling_survives(self):
        """Column equilibration keeps huge-magnitude terms fittable."""
        x = np.array([1e4, 2e4, 4e4, 8e4, 1.6e5])
        design = np.column_stack([np.ones(5), x**3])
        *_, deficient = rank_guard(design)
        assert not bool(deficient)

    def test_narrow_range_hypotheses_stay_accepted(self):
        """A parameter swept over a narrow relative range (condition
        number ~1e8 after equilibration) is ill-conditioned but solvable;
        lstsq accepted it before the backends split and the shared guard
        must keep accepting it — fit_hypothesis returns a model and both
        backends agree."""
        x = np.linspace(1000.0, 1001.0, 6).reshape(-1, 1)
        terms = (_term(1.0), _term(1.25))
        y = 2.0 * x[:, 0] + 5.0
        loop = LoopModelBackend().fit_batch(
            x, y, PARAMS, [terms], require_nonnegative=False
        )
        batched = BatchedModelBackend().fit_batch(
            x, y, PARAMS, [terms], require_nonnegative=False
        )
        assert loop[0] is not None and batched[0] is not None
        assert loop[0].terms == batched[0].terms
        # At condition ~1e8 the documented tolerance is ~eps * cond, so
        # coefficients agree loosely while predictions agree tightly.
        np.testing.assert_allclose(
            loop[0].coefficients, batched[0].coefficients, rtol=1e-5,
            atol=1e-8,
        )
        np.testing.assert_allclose(
            loop[0].predict(x), batched[0].predict(x), rtol=1e-9
        )


class TestClosedFormLOOCV:
    def test_matches_refit_on_clean_model(self):
        X = np.array(
            [[p, s] for p in (4, 8, 16, 32, 64) for s in (16, 24, 32, 40, 48)],
            dtype=float,
        )
        rng = np.random.default_rng(5)
        y = 2 * X[:, 0] + 0.5 * X[:, 1] ** 2 + rng.normal(0, 3, len(X)) + 40
        model = Modeler(backend="loop").model(X, y, ("p", "size"))
        loop_cv = loocv_smape(X, y, model, backend=LoopModelBackend())
        fast_cv = loocv_smape(X, y, model, backend=BatchedModelBackend())
        assert fast_cv == pytest.approx(loop_cv, rel=1e-9, abs=1e-12)

    def test_matches_refit_on_constant(self):
        y = np.array([3.0, 4.0, 5.0, 4.0, 3.5])
        model = fit_constant(X1, y, PARAMS)
        loop_cv = loocv_smape(X1, y, model, backend=LoopModelBackend())
        fast_cv = loocv_smape(X1, y, model, backend=BatchedModelBackend())
        assert fast_cv == pytest.approx(loop_cv, rel=1e-12)

    def test_degenerate_full_design_scores_two(self):
        """A rank-deficient term set fails every fold in both backends."""
        term_a, term_b = _term(1), _term(1)
        y = 2 * X1[:, 0] + 1
        model = Model(
            PARAMS,
            (term_a, term_b),
            np.array([1.0, 1.0, 1.0]),
            ModelStats(
                rss=0.0, smape=0.0, r_squared=1.0, n_points=5, n_coefficients=3
            ),
        )
        assert refit_loocv_smape(X1, y, model) == pytest.approx(2.0)
        assert loocv_smape(
            X1, y, model, backend=BatchedModelBackend()
        ) == pytest.approx(2.0)

    def test_unique_point_fold_degenerate_in_both(self):
        """A parameter value seen once has leverage 1: fold unscorable."""
        x = np.array([4.0, 4.0, 4.0, 4.0, 32.0]).reshape(-1, 1)
        y = np.array([1.0, 1.1, 0.9, 1.0, 9.0])
        model = fit_hypothesis(x, y, PARAMS, (_term(1),), False)
        assert model is not None
        loop_cv = loocv_smape(x, y, model, backend=LoopModelBackend())
        fast_cv = loocv_smape(x, y, model, backend=BatchedModelBackend())
        # Both charge the maximal 2.0 for the x=32 fold.
        assert loop_cv == pytest.approx(fast_cv, rel=1e-9)
        assert loop_cv > 2.0 / len(y) - 1e-9

    def test_too_few_points_raises(self):
        model = fit_constant(X1[:1], np.array([1.0]), PARAMS)
        for backend in (LoopModelBackend(), BatchedModelBackend()):
            with pytest.raises(ModelingError):
                loocv_smape(X1[:1], np.array([1.0]), model, backend=backend)


class TestKFoldDegenerateFolds:
    def test_small_training_fold_scores_degenerate(self):
        """Folds whose training set cannot determine the coefficients
        count as maximal error instead of silently vanishing."""
        x = np.array([4.0, 8.0, 16.0]).reshape(-1, 1)
        y = np.array([2.0, 4.0, 8.0])
        model = fit_hypothesis(x, y, PARAMS, (_term(1), _term(2)), False)
        if model is None:
            model = fit_hypothesis(x, y, PARAMS, (_term(1),), False)
        # k=3 folds of one point each: training sets have 2 points,
        # fewer than the 3 coefficients of a two-term model.
        err = kfold_smape(x, y, model, k=3)
        assert err == pytest.approx(2.0)

    def test_healthy_folds_unchanged(self):
        X = np.array(
            [[p, s] for p in (4, 8, 16, 32, 64) for s in (16, 24, 32, 40, 48)],
            dtype=float,
        )
        y = 3 * X[:, 1] ** 2 + 10
        model = Modeler().model(X, y, ("p", "size"))
        assert kfold_smape(X, y, model, k=5) < 0.05


class TestDeterministicShortlist:
    def _tied_models(self, rss=1.0):
        """(term, rss) scores tied on RSS."""
        return [(_term(i), rss) for i in (3.0, 1.0, 2.0)]

    def test_ties_break_by_exponents(self):
        ranked = _shortlist(self._tied_models())
        exps = [t.exponents[0][0] for t in ranked]
        assert exps == sorted(exps)

    def test_order_independent_of_input_order(self):
        fitted = self._tied_models()
        assert _shortlist(fitted) == _shortlist(list(reversed(fitted)))

    def test_best_terms_tie_break_enumeration_independent(self):
        """Exact RSS ties (y == 0 fits every term perfectly) rank by
        exponents, so reversing the candidate enumeration changes
        nothing."""
        from repro.modeling.search import SearchConfig, DEFAULT_I

        x = X1[:, 0]
        y = np.zeros_like(x)
        fwd = SearchConfig(require_nonnegative=False)
        rev = SearchConfig(
            i_set=tuple(reversed(DEFAULT_I)), require_nonnegative=False
        )
        top_fwd = best_terms_for_parameter(x, y, "p", fwd, top_k=5)
        top_rev = best_terms_for_parameter(x, y, "p", rev, top_k=5)
        assert top_fwd == top_rev


class TestVectorizedPredict:
    def test_matches_per_term_evaluation(self):
        X = np.array(
            [[p, s] for p in (4, 8, 16) for s in (16, 32, 64)], dtype=float
        )
        terms = (
            TermSpec(((1.0, 0), (0.0, 1))),
            TermSpec(((0.5, 2), (2.0, 0))),
        )
        coef = np.array([3.0, 0.25, 1e-4])
        stats = ModelStats(
            rss=0.0, smape=0.0, r_squared=1.0, n_points=9, n_coefficients=3
        )
        model = Model(("p", "s"), terms, coef, stats)
        manual = np.full(X.shape[0], coef[0])
        for c, t in zip(coef[1:], terms):
            manual = manual + c * t.evaluate(X)
        np.testing.assert_allclose(model.predict(X), manual, rtol=1e-12)

    def test_constant_model_predict(self):
        model = fit_constant(X1, np.full(5, 42.0), PARAMS)
        np.testing.assert_array_equal(model.predict(X1), np.full(5, 42.0))

    def test_term_columns_deduplicate(self):
        term = TermSpec(((1.0, 1),))
        cols = evaluate_term_columns(X1, (term, term, term))
        assert cols.shape == (5, 3)
        np.testing.assert_array_equal(cols[:, 0], cols[:, 2])
