"""Model-search backends: the modeling stage's execution substrate.

The model search is the stage the paper's whole pipeline exists to
accelerate ("with as few as three parameters, the model search space
contains more than 10^14 candidates", section 4.5), and after the
measurement and taint stages compiled their hot paths, it was the last
tree-walked one: every PMNF hypothesis cost one ``np.linalg.lstsq`` call
inside a Python loop, with candidate term columns re-evaluated per
hypothesis and leave-one-out CV refitting n times per model.

Mirroring the engines x domains architecture, the fitting strategy is
now a registered component (``repro.registry.MODEL_BACKEND_REGISTRY``):

* ``loop`` — the original implementation, one least-squares call per
  hypothesis and one refit per CV fold.  Kept as the reference oracle
  the differential test suite checks the fast path against.
* ``batched`` — evaluates each unique candidate term exactly once into
  a shared term-column cache keyed by exponents, stacks same-width
  hypotheses into an ``(H, n, k)`` design tensor, factorizes the whole
  class with one stacked-LAPACK QR call, and scores leave-one-out CV in
  closed form from the factors (loo residual = e_i / (1 - h_ii), the
  hat-matrix diagonal being the rowwise squared norms of Q).  Because a
  factorization depends only on the design — not on the measurements —
  one factorization serves every function fitted at the same
  configuration matrix as additional right-hand sides.

Both implement one call, :meth:`ModelSearchBackend.score_pairs`: score
the requested (right-hand side, hypothesis) pairs of one design, so the
model stage scores every function's hypotheses in one call per design
(:func:`repro.modeling.search.search_models`) and builds a
:class:`Model` only for each function's winner.  The batched backend
keeps every per-pair reduction in the order of a one-function solve
(gathered ``einsum`` contractions, broadcast ``solve``; ``matmul`` sums
in a different order), so a function's fit is bit for bit the same
whatever else is scored beside it, and the same as a one-function
search's.

**Decision identity.**  Both backends reject hypotheses through the same
rules evaluated on the same term columns: ``n < k``, non-finite columns
(``np.isfinite``), intercept-duplicating constant columns
(``np.allclose(col, col[0])``, evaluated for all columns at once in the
batched backend), the shared
:func:`~repro.modeling.hypothesis.rank_guard` conditioning test standing
in for ``lstsq``'s rank, and the non-positive-coefficient rule.  Fitted
statistics agree to float tolerance (QR on the equilibrated design vs
SVD on the raw one); selected models — term sets, prior metadata,
constancy — are identical, enforced by the Hypothesis differential
suite in ``tests/modeling/test_backend_differential.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from ..registry import MODEL_BACKEND_REGISTRY, register_model_backend
from .hypothesis import (
    Model,
    ModelStats,
    fit_constant,
    fit_hypothesis,
    rank_guard,
    smape,
)
from .terms import TermSpec

#: Backend the modeler uses unless a caller overrides it.  The ``loop``
#: oracle remains registered for differential testing and bisection.
DEFAULT_MODEL_BACKEND = "batched"

#: A LOOCV fold whose training design loses rank when point *i* leaves
#: (leverage h_ii -> 1) cannot be scored by the hat-matrix identity, and
#: close to that point the refit loop's own screens (its ``np.allclose``
#: constant-column test, its rank guard on the training matrix) start
#: firing.  When any fold's slack ``1 - h_ii`` is at or below this
#: bound, the closed form delegates the whole computation to the refit
#: loop, whose per-fold verdicts are authoritative — so the two LOOCV
#: implementations can never disagree where degeneracy is in play.
CLOSED_FORM_MIN_SLACK = 1e-6

#: The closed form and the refit loop agree only to ~cond * eps: the
#: refit's ``lstsq`` on the raw design loses that much.  Designs whose
#: 2-norm condition number exceeds this bound delegate to the refit loop
#: like near-degenerate folds, so the two agree to ~1e-10 relative
#: wherever the closed form runs.
CLOSED_FORM_MAX_COND = 1e6

#: Pairs solved per gathered block: bounds the (pairs, n, k) copies of
#: the Q factors on large stages.  Per-pair reductions do not depend on
#: the block, so neither do the results.
PAIR_BLOCK = 4096


@dataclass
class PairScores:
    """Verdicts of (right-hand side, hypothesis) pairs on one design.

    ``accepted[p]`` and ``rss[p]`` are all the selection fold reads;
    ``model(p)`` builds the fitted :class:`Model` of an accepted pair,
    which the search does only for each function's winner.
    """

    accepted: np.ndarray  # (P,) bool
    rss: np.ndarray  # (P,) residual sum of squares where accepted
    model: "Callable[[int], Model]"


class ModelSearchBackend(Protocol):
    """What the search functions need from a fitting strategy."""

    name: str

    def score_pairs(
        self,
        X: np.ndarray,
        Y: np.ndarray,
        parameters: "tuple[str, ...]",
        hypotheses: "Sequence[tuple[TermSpec, ...]]",
        rows: np.ndarray,
        hyps: np.ndarray,
        require_nonnegative: bool = True,
    ) -> PairScores:
        """Fit hypothesis ``hypotheses[hyps[p]]`` to right-hand side
        ``Y[rows[p]]`` on design *X*, for every pair *p*."""
        ...

    def loocv_smape(
        self, X: np.ndarray, y: np.ndarray, model: Model
    ) -> float:
        """Leave-one-out CV error of *model*'s term structure."""
        ...


class _PairScoring:
    """The convenience calls both backends derive from ``score_pairs``."""

    def fit_batch(
        self,
        X: np.ndarray,
        y: np.ndarray,
        parameters: "tuple[str, ...]",
        hypotheses: "Sequence[tuple[TermSpec, ...]]",
        require_nonnegative: bool = True,
    ) -> "list[Model | None]":
        """Fit every hypothesis on ``(X, y)``; None marks a rejection.

        The width-1 case of :meth:`score_pairs`: one right-hand side
        paired with every hypothesis."""
        hypotheses = [tuple(terms) for terms in hypotheses]
        y = np.asarray(y, dtype=float)
        idx = np.arange(len(hypotheses))
        scores = self.score_pairs(
            X,
            y[None, :],
            parameters,
            hypotheses,
            np.zeros_like(idx),
            idx,
            require_nonnegative,
        )
        return [
            scores.model(p) if ok else None
            for p, ok in enumerate(scores.accepted.tolist())
        ]


# ----------------------------------------------------------------------
# the reference oracle


def refit_fold_model(
    X: np.ndarray, y: np.ndarray, model: Model
) -> "Model | None":
    """Refit *model*'s term structure on a training fold.

    The reference cross-validation refit: the constant model refits to
    the fold mean, anything else to the unconstrained least squares of
    its fixed term set.  ``None`` marks a degenerate fold (the training
    matrix rejects the term set).  Shared by :func:`refit_loocv_smape`
    and :mod:`repro.modeling.crossval`'s k-fold loop.
    """
    if model.is_constant:
        return fit_constant(X, y, model.parameters)
    return fit_hypothesis(
        X, y, model.parameters, model.terms, require_nonnegative=False
    )


def refit_loocv_smape(X: np.ndarray, y: np.ndarray, model: Model) -> float:
    """LOOCV by n full refits — the reference the closed form must match.

    Degenerate folds (the training matrix rejects the term set) score the
    maximal SMAPE of 2.0.
    """
    n = X.shape[0]
    errors = []
    for i in range(n):
        mask = np.ones(n, dtype=bool)
        mask[i] = False
        refit = refit_fold_model(X[mask], y[mask], model)
        if refit is None:
            errors.append(2.0)
            continue
        pred = refit.predict(X[~mask])
        errors.append(smape(y[~mask], pred))
    return float(np.mean(errors))


class LoopModelBackend(_PairScoring):
    """One ``lstsq`` per hypothesis, one refit per CV fold (the oracle)."""

    name = "loop"

    def score_pairs(
        self,
        X: np.ndarray,
        Y: np.ndarray,
        parameters: "tuple[str, ...]",
        hypotheses: "Sequence[tuple[TermSpec, ...]]",
        rows: np.ndarray,
        hyps: np.ndarray,
        require_nonnegative: bool = True,
    ) -> PairScores:
        X = _as_design_matrix(X, parameters)
        Y = np.asarray(Y, dtype=float)
        pairs = zip(np.asarray(rows).tolist(), np.asarray(hyps).tolist())
        models = [
            fit_hypothesis(
                X, Y[f], parameters, hypotheses[h], require_nonnegative
            )
            for f, h in pairs
        ]
        return PairScores(
            accepted=np.array([m is not None for m in models], dtype=bool),
            rss=np.array(
                [np.nan if m is None else m.stats.rss for m in models]
            ),
            model=models.__getitem__,
        )

    def loocv_smape(
        self, X: np.ndarray, y: np.ndarray, model: Model
    ) -> float:
        X = _as_design_matrix(X, model.parameters)
        y = np.asarray(y, dtype=float)
        return refit_loocv_smape(X, y, model)


# ----------------------------------------------------------------------
# the batched backend


def _as_design_matrix(X: np.ndarray, parameters: "tuple[str, ...]"):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, len(parameters))
    return X


@dataclass
class _PreparedClass:
    """One factorized hypothesis class: same coefficient count *k*.

    ``order[v]`` maps the v-th factorized design back to its position in
    the hypothesis tuple the class was prepared for; hypotheses missing
    from ``order`` were rejected by the column or conditioning guards.
    """

    k: int
    order: np.ndarray  # (V,) int indices of the surviving hypotheses
    scales: np.ndarray  # (V, k) column norms of the surviving designs
    q: np.ndarray  # (V, n, k) orthonormal factors
    r: np.ndarray  # (V, k, k) triangular factors


_EMPTY = np.empty(0, dtype=int)


class _Fitter:
    """Everything batched that is bound to one configuration matrix.

    Holds the term-column cache (each unique exponent tuple evaluated
    exactly once over *X*) and an LRU of prepared hypothesis classes, so
    fitting a second function at the same design reuses the stacked QR
    factors and only pays one matrix-vector product per class.
    """

    def __init__(self, X: np.ndarray, max_classes: int = 64) -> None:
        self.X = X
        self.n = X.shape[0]
        self._max_classes = max_classes
        self._columns: dict[tuple, np.ndarray] = {}
        self._usable: dict[tuple, bool] = {}
        self._classes: "OrderedDict[tuple, _PreparedClass]" = OrderedDict()

    # -- term columns ---------------------------------------------------

    def column(self, term: TermSpec) -> np.ndarray:
        col = self._columns.get(term.exponents)
        if col is None:
            col = term.evaluate(self.X)
            self._columns[term.exponents] = col
        return col

    def column_usable(self, term: TermSpec) -> bool:
        """Same screens the loop backend applies to this term's column:
        finite everywhere, not an intercept-duplicating constant."""
        self._screen((term,))
        return self._usable[term.exponents]

    def _screen(self, terms: "Sequence[TermSpec]") -> None:
        """Screen every not-yet-screened term in one pass over the
        stacked columns.  For finite columns the elementwise test is
        ``np.allclose(col, col[0])`` exactly (same operations, same
        default tolerances); non-finite columns are unusable anyway."""
        fresh = {
            term.exponents: term
            for term in terms
            if term.exponents not in self._usable
        }
        if not fresh:
            return
        cols = np.stack([self.column(t) for t in fresh.values()], axis=1)
        with np.errstate(invalid="ignore", over="ignore"):
            constant = np.all(
                np.abs(cols - cols[0]) <= 1e-8 + 1e-5 * np.abs(cols[0]),
                axis=0,
            )
        usable = np.all(np.isfinite(cols), axis=0) & ~constant
        self._usable.update(zip(fresh, usable.tolist()))

    # -- hypothesis classes ----------------------------------------------

    def prepared(
        self, k: int, hypotheses: "tuple[tuple[TermSpec, ...], ...]"
    ) -> _PreparedClass:
        key = (k, hypotheses)
        cached = self._classes.get(key)
        if cached is not None:
            self._classes.move_to_end(key)
            return cached
        prepared = self._prepare(k, hypotheses)
        self._classes[key] = prepared
        if len(self._classes) > self._max_classes:
            self._classes.popitem(last=False)
        return prepared

    def _prepare(
        self, k: int, hypotheses: "tuple[tuple[TermSpec, ...], ...]"
    ) -> _PreparedClass:
        n = self.n
        empty = _PreparedClass(
            k=k,
            order=_EMPTY,
            scales=np.empty((0, k)),
            q=np.empty((0, n, k)),
            r=np.empty((0, k, k)),
        )
        if n < k or not hypotheses:
            return empty
        self._screen([term for terms in hypotheses for term in terms])
        usable = self._usable
        order = np.flatnonzero(
            np.fromiter(
                (
                    all(usable[term.exponents] for term in terms)
                    for terms in hypotheses
                ),
                dtype=bool,
                count=len(hypotheses),
            )
        )
        if order.size == 0:
            return empty
        design = np.ones((order.size, n, k))
        for v, h in enumerate(order.tolist()):
            for idx, term in enumerate(hypotheses[h]):
                design[v, :, idx + 1] = self.column(term)
        # One stacked QR factorizes the whole class; the guard's verdict
        # and the solve factors come out of the same call.
        scaled, scales, q, r, deficient = rank_guard(design)
        keep = ~deficient
        order = order[keep]
        if order.size == 0:
            return empty
        return _PreparedClass(
            k=k, order=order, scales=scales[keep], q=q[keep], r=r[keep]
        )


def _pointwise_smape(
    y: np.ndarray, pred: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point SMAPE terms plus the zero-denominator validity mask.

    The one kernel behind every vectorized SMAPE here, replicating
    :func:`~repro.modeling.hypothesis.smape`'s conventions: masked-out
    points (|y| + |pred| == 0) contribute 0.
    """
    denom = (np.abs(y) + np.abs(pred)) * 0.5
    mask = denom > 0
    values = np.where(
        mask, np.abs(y - pred) / np.where(mask, denom, 1.0), 0.0
    )
    return values, mask


def _batched_smape(y: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Rowwise :func:`~repro.modeling.hypothesis.smape` of (P, n) rows."""
    values, mask = _pointwise_smape(y, pred)
    counts = mask.sum(axis=1)
    return np.where(
        counts > 0, values.sum(axis=1) / np.maximum(counts, 1), 0.0
    )


class BatchedModelBackend(_PairScoring):
    """Stacked-LAPACK fitting: one QR per hypothesis class.

    Keeps an LRU of :class:`_Fitter` objects keyed by configuration
    matrix, so the model stage — which fits many functions at the same
    design — factorizes each hypothesis class once and reuses it across
    functions as additional right-hand sides.
    """

    name = "batched"

    def __init__(self, max_fitters: int = 8) -> None:
        self._fitters: "OrderedDict[tuple, _Fitter]" = OrderedDict()
        self._max_fitters = max_fitters

    # ------------------------------------------------------------------

    def _fitter(self, X: np.ndarray) -> _Fitter:
        X = np.ascontiguousarray(X)
        key = (X.shape, X.tobytes())
        fitter = self._fitters.get(key)
        if fitter is None:
            fitter = _Fitter(X)
            self._fitters[key] = fitter
            if len(self._fitters) > self._max_fitters:
                self._fitters.popitem(last=False)
        else:
            self._fitters.move_to_end(key)
        return fitter

    # ------------------------------------------------------------------

    def score_pairs(
        self,
        X: np.ndarray,
        Y: np.ndarray,
        parameters: "tuple[str, ...]",
        hypotheses: "Sequence[tuple[TermSpec, ...]]",
        rows: np.ndarray,
        hyps: np.ndarray,
        require_nonnegative: bool = True,
    ) -> PairScores:
        """Per class *k*: one factorization of every hypothesis of the
        class, then one gathered solve of exactly the requested pairs.

        Every reduction runs per pair in the order a one-function solve
        uses (``einsum`` contractions, broadcast ``solve``), so a pair's
        fit does not depend on which other pairs share the call."""
        X = _as_design_matrix(X, parameters)
        Y = np.asarray(Y, dtype=float)
        rows = np.asarray(rows, dtype=np.intp)
        hyps = np.asarray(hyps, dtype=np.intp)
        n = X.shape[0]
        sizes = np.array([len(terms) + 1 for terms in hypotheses], dtype=int)
        accepted = np.zeros(rows.size, dtype=bool)
        rss = np.full(rows.size, np.nan)
        smapes = np.zeros(rows.size)
        coef = np.zeros((rows.size, int(sizes.max(initial=1))))

        if rows.size and n:
            fitter = self._fitter(X)
            pair_k = sizes[hyps]
            slot = np.full(len(hypotheses), -1, dtype=np.intp)
            for k in np.unique(sizes).tolist():
                members = np.flatnonzero(sizes == k)
                prepared = fitter.prepared(
                    k, tuple(hypotheses[i] for i in members.tolist())
                )
                slot[members[prepared.order]] = np.arange(prepared.order.size)
                sel = np.flatnonzero((pair_k == k) & (slot[hyps] >= 0))
                for start in range(0, sel.size, PAIR_BLOCK):
                    part = sel[start : start + PAIR_BLOCK]
                    v = slot[hyps[part]]
                    q = prepared.q[v]
                    y = Y[rows[part]]
                    # Q^T y and the projection Q (Q^T y) of every pair.
                    b = np.einsum("pnk,pn->pk", q, y)
                    coef_k = (
                        np.linalg.solve(prepared.r[v], b[..., None])[..., 0]
                        / prepared.scales[v]
                    )
                    pred = np.einsum("pnk,pk->pn", q, b)
                    resid = y - pred
                    rss[part] = np.einsum("pn,pn->p", resid, resid)
                    smapes[part] = _batched_smape(y, pred)
                    coef[part, :k] = coef_k
                    if require_nonnegative and k > 1:
                        accepted[part] = ~np.any(coef_k[:, 1:] <= 0, axis=1)
                    else:
                        accepted[part] = True

        def model(p: int) -> Model:
            terms = tuple(hypotheses[hyps[p]])
            k = len(terms) + 1
            y = Y[rows[p]]
            tss = float(np.sum((y - y.mean()) ** 2))
            fit_rss = float(rss[p])
            stats = ModelStats(
                rss=fit_rss,
                smape=float(smapes[p]),
                r_squared=1.0 - fit_rss / tss if tss > 0 else 1.0,
                n_points=n,
                n_coefficients=k,
            )
            return Model(parameters, terms, coef[p, :k].copy(), stats)

        return PairScores(accepted=accepted, rss=rss, model=model)

    # ------------------------------------------------------------------

    def loocv_smape(
        self, X: np.ndarray, y: np.ndarray, model: Model
    ) -> float:
        """Exact LOOCV from the hat-matrix identity.

        loo residual = e_i / (1 - h_ii), with h_ii the hat-matrix
        diagonal — the rowwise squared norms of the already-computed Q
        factor.  The closed form runs only when every fold is
        comfortably non-degenerate (leverage slack above
        :data:`CLOSED_FORM_MIN_SLACK`) on a well-conditioned design
        (condition number at most :data:`CLOSED_FORM_MAX_COND`);
        near-degenerate folds, ill-conditioned designs, and designs the
        column screens reject outright delegate the whole computation to
        the reference refit loop, whose per-fold verdicts are
        authoritative.  The two implementations therefore agree exactly
        wherever they could differ, and to ~1e-10 relative everywhere
        else.
        """
        X = _as_design_matrix(X, model.parameters)
        y = np.asarray(y, dtype=float)
        fitter = self._fitter(X)
        terms = tuple(model.terms)
        if not all(fitter.column_usable(term) for term in terms):
            return refit_loocv_smape(X, y, model)
        prepared = fitter.prepared(len(terms) + 1, (terms,))
        if prepared.order.size == 0:
            # The full design is rank-deficient: so is every fold's, and
            # the refit loop scores every fold the maximal 2.0.
            return 2.0
        design = np.column_stack(
            [np.ones(fitter.n)] + [fitter.column(term) for term in terms]
        )
        if np.linalg.cond(design) > CLOSED_FORM_MAX_COND:
            return refit_loocv_smape(X, y, model)
        q = prepared.q[0]
        slack = 1.0 - np.einsum("nk,nk->n", q, q)
        if float(np.min(slack)) <= CLOSED_FORM_MIN_SLACK:
            return refit_loocv_smape(X, y, model)
        b = q.T @ y
        loo_pred = y - (y - q @ b) / slack
        errors, _mask = _pointwise_smape(y, loo_pred)
        return float(np.mean(errors))


register_model_backend(
    "loop",
    help="reference oracle: one lstsq per hypothesis, refit-loop LOOCV",
)(LoopModelBackend)
register_model_backend(
    "batched",
    help="stacked-LAPACK QR per hypothesis class, closed-form LOOCV",
)(BatchedModelBackend)


def make_model_backend(name: str = DEFAULT_MODEL_BACKEND):
    """Instantiate the registered model-search backend *name*."""
    return MODEL_BACKEND_REGISTRY.create(name)


_SHARED_BACKENDS: "dict[str, ModelSearchBackend]" = {}


def default_model_backend(
    name: str = DEFAULT_MODEL_BACKEND,
) -> ModelSearchBackend:
    """Process-shared backend instance (its caches persist across calls).

    The search functions use this when no backend is passed explicitly;
    :class:`~repro.modeling.modeler.Modeler` instances hold their own.
    """
    backend = _SHARED_BACKENDS.get(name)
    if backend is None:
        backend = make_model_backend(name)
        _SHARED_BACKENDS[name] = backend
    return backend


__all__ = [
    "BatchedModelBackend",
    "CLOSED_FORM_MAX_COND",
    "CLOSED_FORM_MIN_SLACK",
    "DEFAULT_MODEL_BACKEND",
    "LoopModelBackend",
    "ModelSearchBackend",
    "PairScores",
    "default_model_backend",
    "make_model_backend",
    "refit_fold_model",
    "refit_loocv_smape",
]
