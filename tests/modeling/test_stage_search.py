"""The whole-stage model search: one call for every function of a stage.

``HybridModeler.model_all`` hands every function's hybrid and black-box
search to one ``Modeler.model_many`` call.  These tests pin the
properties that make that safe and fast, on the campaign benchmark's
LULESH and MILC smoke grids:

* width invariance -- a function modeled alone through ``Modeler.model``
  gets exactly the model the whole stage gives it (terms, coefficients
  bit for bit, statistics, metadata), so batch composition never leaks
  into a result; the same holds for the block size of the gathered solve;
* same bits as a per-function search -- the gathered solve equals the
  one-function ``einsum`` kernels, and the phase-1 preselection equals
  ranking every candidate;
* structure -- the batched backend factorizes each hypothesis class at
  most once per (configuration matrix, coefficient count k).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hybrid import HybridModeler
from repro.core.stages import Campaign
from repro.modeling import Modeler, SearchPrior, TermSpec, candidate_terms
from repro.modeling import backends
from repro.modeling.search import (
    DEFAULT_SEARCH,
    _rank_terms,
    _rss_floor,
    _shortlist,
)

GRIDS = {
    "lulesh": {
        "parameters": {"p": [27, 64], "size": [6, 9]},
        "contention": {"model": "logquad", "beta": 0.06},
    },
    "milc": {"parameters": {"p": [4, 8], "size": [16, 32]}},
}


@pytest.fixture(scope="module", params=sorted(GRIDS))
def stage_inputs(request):
    """Measurements, taint report and volumes of a smoke campaign."""
    spec = {
        "app": request.param,
        "noise": "gaussian",
        "repetitions": 5,
        "compare_black_box": True,
        "seed": 21,
        **GRIDS[request.param],
    }
    campaign = Campaign.from_spec(spec)
    campaign.run()
    measurements = campaign.artifacts["measure"][0]
    volumes = campaign.artifacts["volumes"][0]
    return request.param, measurements, campaign.artifacts["taint"], volumes


def _assert_identical(alone, staged):
    assert alone.terms == staged.terms
    assert alone.parameters == staged.parameters
    assert alone.coefficients.dtype == staged.coefficients.dtype
    assert alone.coefficients.tobytes() == staged.coefficients.tobytes()
    assert alone.stats == staged.stats
    assert alone.metadata == staged.metadata


@pytest.mark.parametrize("backend", ["batched", "loop"])
def test_width_invariance(stage_inputs, backend):
    _app, measurements, taint, volumes = stage_inputs
    hybrid = HybridModeler(backend=backend)
    staged = hybrid.model_all(
        measurements, taint, volumes, compare_black_box=True,
        cov_threshold=None,
    )
    assert len(staged) > 10
    for fn, comparison in staged.items():
        X, y = measurements.points(fn)
        alone = Modeler(backend=backend)
        _assert_identical(
            alone.model(X, y, measurements.parameters, comparison.prior),
            comparison.hybrid,
        )
        _assert_identical(
            alone.model(
                X, y, measurements.parameters, SearchPrior.black_box()
            ),
            comparison.black_box,
        )


def test_one_factorization_per_design_and_k(stage_inputs, monkeypatch):
    _app, measurements, taint, volumes = stage_inputs
    calls: list[tuple] = []
    prepare = backends._Fitter._prepare
    guard = backends.rank_guard
    current: list[tuple] = []

    def spy_prepare(self, k, hypotheses):
        current.append((self.X.shape, self.X.tobytes(), k))
        try:
            return prepare(self, k, hypotheses)
        finally:
            current.pop()

    def spy_guard(design):
        calls.append(current[-1])
        return guard(design)

    monkeypatch.setattr(backends._Fitter, "_prepare", spy_prepare)
    monkeypatch.setattr(backends, "rank_guard", spy_guard)
    models = HybridModeler(backend="batched").model_all(
        measurements, taint, volumes, compare_black_box=True,
        cov_threshold=None,
    )
    assert calls, "the stage factorized nothing"
    assert len(calls) == len(set(calls))
    # Far fewer factorizations than searches: the stage is batched.
    assert len(calls) < len(models)


def test_designs_grouped(stage_inputs):
    """Functions missing from some configurations have their own
    configuration matrix; each is modeled on its own points."""
    app, measurements, taint, volumes = stage_inputs
    matrices = {
        measurements.points(fn)[0].tobytes()
        for fn in measurements.functions()
    }
    assert len(matrices) == (3 if app == "milc" else 1)
    models = HybridModeler().model_all(
        measurements, taint, volumes, cov_threshold=None
    )
    for fn, comparison in models.items():
        X, _y = measurements.points(fn)
        assert comparison.hybrid.stats.n_points == X.shape[0]


def test_model_many_keeps_request_order():
    """Requests on different designs interleave freely."""
    rng = np.random.default_rng(4)
    grid_a = np.array(
        [[p, s] for p in (4, 8, 16) for s in (8, 16, 32)], dtype=float
    )
    grid_b = grid_a[:-2]
    requests = []
    for i in range(6):
        X = grid_a if i % 2 else grid_b
        y = 3.0 * X[:, 0] + (i + 1) * X[:, 1] + rng.normal(0, 0.1, len(X))
        requests.append((X, y, ("p", "s"), None))
    together = Modeler().model_many(requests)
    for request, model in zip(requests, together):
        _assert_identical(Modeler().model(*request), model)


def test_pair_blocks_do_not_change_results(stage_inputs, monkeypatch):
    """Large stages solve their pairs in bounded blocks; the block size
    must not change a single bit."""
    _app, measurements, taint, volumes = stage_inputs

    def stage():
        return HybridModeler().model_all(
            measurements, taint, volumes, compare_black_box=True,
            cov_threshold=None,
        )

    whole = stage()
    monkeypatch.setattr(backends, "PAIR_BLOCK", 7)
    blocked = stage()
    assert list(whole) == list(blocked)
    for fn in whole:
        _assert_identical(whole[fn].hybrid, blocked[fn].hybrid)
        _assert_identical(whole[fn].black_box, blocked[fn].black_box)


@given(
    seed=st.integers(0, 2**16),
    limit=st.sampled_from([1, 3, 16]),
    sigma=st.sampled_from([0.0, 1e-9, 0.5, 20.0]),
)
@settings(max_examples=30, deadline=None)
def test_rank_preselection_is_exact(seed, limit, sigma):
    """Phase 1 ranks only the terms near the limit-th RSS; the result
    must equal ranking every accepted candidate."""
    rng = np.random.default_rng(seed)
    x = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    Ys = np.stack(
        [
            np.zeros_like(x),
            3.0 * x + 7.0,
            2.0 * x * np.log2(x),
            50.0 + 0.0 * x,
            5.0 * x**0.5 + 1.0,
        ]
    ) + rng.normal(0, sigma, (5, x.size))
    backend = backends.BatchedModelBackend()
    fast = _rank_terms(backend, x, Ys, "p", DEFAULT_SEARCH, limit)
    candidates = candidate_terms(1, 0)
    for row, ranked in zip(Ys, fast):
        fits = backend.fit_batch(
            x.reshape(-1, 1), row, ("p",), [(t,) for t in candidates]
        )
        scored = [
            (term, model.stats.rss)
            for term, model in zip(candidates, fits)
            if model is not None
        ]
        assert ranked == _shortlist(scored, limit, _rss_floor(row))


def test_gathered_solve_matches_one_function_kernels():
    """The gathered solve reproduces, bit for bit, the one-function
    kernels of a per-function search: ``einsum("vnk,n->vk")`` against the
    function's own prepared class, broadcast ``solve``, projection and
    RSS.  (``matmul`` would not: it sums in a different order.)"""
    rng = np.random.default_rng(11)
    X = np.array([[p, s] for p in (4, 8, 16, 32) for s in (8, 16, 32)], float)
    terms = [
        TermSpec(((i, j), (0.0, 0)))
        for i, j in ((1.0, 0), (2.0, 0), (0.5, 1), (0.0, 1))
    ] + [
        TermSpec(((0.0, 0), (i, j)))
        for i, j in ((1.0, 0), (1.5, 0), (0.0, 2))
    ]
    pool = [(a,) for a in terms] + [
        (a, b) for i, a in enumerate(terms) for b in terms[i + 1 :]
    ]
    Y = 1e3 * rng.random((9, len(X))) + X[:, 0] * rng.random((9, 1))
    per_function = [
        [pool[h] for h in sorted(rng.choice(len(pool), 12, replace=False))]
        for _ in range(len(Y))
    ]
    hypotheses = sorted(set().union(*per_function), key=pool.index)
    rows = np.repeat(np.arange(len(Y)), [len(h) for h in per_function])
    hyps = np.array(
        [hypotheses.index(h) for hs in per_function for h in hs]
    )
    batched = backends.BatchedModelBackend()
    scores = batched.score_pairs(X, Y, ("p", "s"), hypotheses, rows, hyps)

    reference = backends.BatchedModelBackend()._fitter(X)
    p = 0
    for f, hs in enumerate(per_function):
        for k in (2, 3):
            group = tuple(h for h in hs if len(h) + 1 == k)
            prepared = reference.prepared(k, group)
            b = np.einsum("vnk,n->vk", prepared.q, Y[f])
            coef = (
                np.linalg.solve(prepared.r, b[..., None])[..., 0]
                / prepared.scales
            )
            pred = np.einsum("vnk,vk->vn", prepared.q, b)
            resid = Y[f][None, :] - pred
            rss = np.einsum("vn,vn->v", resid, resid)
            for v, h in enumerate(prepared.order.tolist()):
                pair = p + hs.index(group[h])
                assert scores.rss[pair].tobytes() == rss[v].tobytes()
                if scores.accepted[pair]:
                    model = scores.model(pair)
                    assert model.coefficients.tobytes() == coef[v].tobytes()
        p += len(hs)
