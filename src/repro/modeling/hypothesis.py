"""Model hypotheses: a term set plus fitted coefficients.

"A possible assignment of all i_k and j_k in a PMNF expression is called a
model hypothesis" (paper 4.5).  Hypotheses are fitted by linear least
squares (the PMNF is linear in its coefficients); hypotheses whose
non-constant coefficients come out non-positive are rejected, as runtime
contributions are non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ModelingError
from .terms import TermSpec, evaluate_term_columns

#: Double-precision machine epsilon, the unit of the conditioning guard.
MACHINE_EPS = float(np.finfo(np.float64).eps)


def column_scales(design: np.ndarray) -> np.ndarray:
    """Euclidean norm of every design column (zeros mapped to 1).

    Works on a single ``(n, k)`` design or a stacked ``(H, n, k)`` tensor.
    Equilibrating columns to unit norm before forming Gram matrices keeps
    the conditioning guard about the *geometry* of the term set, not the
    wildly different magnitudes PMNF columns reach (``x^3`` vs ``1``).
    """
    scales = np.sqrt(np.einsum("...nk,...nk->...k", design, design))
    return np.where(scales > 0.0, scales, 1.0)


def rank_guard(
    design: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Column-equilibrated QR factors plus rank-deficiency verdicts.

    Returns ``(scaled, scales, q, r, deficient)`` for a ``(n, k)`` design
    or a stacked ``(H, n, k)`` tensor (``deficient`` is then ``(H,)``).
    The verdict mirrors ``lstsq``'s SVD rank test — smallest singular
    value at or below ``max(n, k) * eps`` relative to the largest — using
    the diagonal of the equilibrated R factor as the singular-value
    estimate (reliable at PMNF widths, k <= 3; unlike Gram eigenvalues it
    does not square the condition number, so well-conditioned hypotheses
    over narrow parameter ranges stay accepted).  Both backends reject
    through this one test, so their accept/reject decisions agree by
    construction; the batched backend also reuses the factors for its
    stacked solves.  The design must be finite (callers screen
    non-finite columns first) and have ``n >= k``.
    """
    scales = column_scales(design)
    scaled = design / scales[..., None, :]
    q, r = np.linalg.qr(scaled)
    rdiag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    n, k = design.shape[-2], design.shape[-1]
    cutoff = max(n, k) * MACHINE_EPS * np.max(rdiag, axis=-1)
    deficient = ~np.all(np.isfinite(rdiag), axis=-1) | (
        np.min(rdiag, axis=-1) <= cutoff
    )
    return scaled, scales, q, r, deficient


@dataclass(frozen=True)
class ModelStats:
    """Goodness-of-fit statistics of a fitted hypothesis."""

    rss: float
    smape: float
    r_squared: float
    n_points: int
    n_coefficients: int


@dataclass
class Model:
    """A fitted performance model.

    ``coefficients[0]`` is the constant c0; ``coefficients[k+1]`` pairs
    with ``terms[k]``.
    """

    parameters: tuple[str, ...]
    terms: tuple[TermSpec, ...]
    coefficients: np.ndarray
    stats: ModelStats
    metadata: dict[str, str] = field(default_factory=dict)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Evaluate the model on configuration matrix *X*.

        Terms are assembled into one column matrix (each unique term
        evaluated exactly once) and applied as a single matrix-vector
        product, so prediction on large validation grids costs one BLAS
        call instead of a Python loop over terms.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, len(self.parameters))
        if not self.terms:
            return np.full(X.shape[0], float(self.coefficients[0]))
        columns = evaluate_term_columns(X, self.terms)
        coef = np.asarray(self.coefficients, dtype=float)
        return coef[0] + columns @ coef[1:]

    def predict_one(self, config: "dict[str, float]") -> float:
        """Evaluate at a single named configuration."""
        x = np.array([[config[p] for p in self.parameters]], dtype=float)
        return float(self.predict(x)[0])

    @property
    def is_constant(self) -> bool:
        """True when no term with a nonzero coefficient remains."""
        return len(self.terms) == 0

    def used_parameters(self) -> frozenset[str]:
        """Names of parameters appearing in any fitted term."""
        used: set[str] = set()
        for term in self.terms:
            for idx in term.uses():
                used.add(self.parameters[idx])
        return frozenset(used)

    def format(self, precision: int = 3) -> str:
        """Human-readable PMNF expression."""
        parts = [f"{self.coefficients[0]:.{precision}g}"]
        for coef, term in zip(self.coefficients[1:], self.terms):
            parts.append(
                f"{coef:.{precision}g} * {term.format(self.parameters)}"
            )
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.format()


def fit_hypothesis(
    X: np.ndarray,
    y: np.ndarray,
    parameters: tuple[str, ...],
    terms: tuple[TermSpec, ...],
    require_nonnegative: bool = True,
) -> Model | None:
    """Fit one hypothesis by least squares.

    Returns None when the design matrix is rank-deficient for this term
    set (per the shared :func:`rank_guard` conditioning test, so the
    ``loop`` and ``batched`` backends agree) or (with
    *require_nonnegative*) a non-constant coefficient is not strictly
    positive — such hypotheses cannot describe a runtime contribution
    and are discarded from the search.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, len(parameters))
    n = X.shape[0]
    k = len(terms) + 1
    if n < k:
        return None
    design = np.ones((n, k))
    for idx, term in enumerate(terms):
        design[:, idx + 1] = term.evaluate(X)
    if not np.all(np.isfinite(design)):
        return None
    # Columns that are (numerically) constant duplicate the intercept.
    for idx in range(1, k):
        col = design[:, idx]
        if np.allclose(col, col[0]):
            return None
    _scaled, _scales, _q, _r, deficient = rank_guard(design)
    if bool(deficient):
        return None
    # The guard's QR factors are deliberately NOT reused for the solve:
    # lstsq's SVD keeps this oracle's solution path independent of the
    # batched backend's QR solves — the independence the differential
    # suite relies on — at the cost of a second small factorization.
    try:
        coef, _res, _rank, _sv = np.linalg.lstsq(design, y, rcond=None)
    except np.linalg.LinAlgError:  # pragma: no cover - lstsq rarely raises
        return None
    if require_nonnegative and len(coef) > 1 and np.any(coef[1:] <= 0):
        return None
    pred = design @ coef
    rss = float(np.sum((y - pred) ** 2))
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    stats = ModelStats(
        rss=rss,
        smape=smape(y, pred),
        r_squared=r2,
        n_points=n,
        n_coefficients=k,
    )
    return Model(parameters, tuple(terms), coef, stats)


def fit_constant(
    X: np.ndarray, y: np.ndarray, parameters: tuple[str, ...]
) -> Model:
    """The constant hypothesis (always fits)."""
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ModelingError("cannot fit a model to zero measurements")
    mean = float(y.mean())
    pred = np.full_like(y, mean)
    rss = float(np.sum((y - pred) ** 2))
    stats = ModelStats(
        rss=rss,
        smape=smape(y, pred),
        r_squared=1.0 if rss == 0 else 0.0,
        n_points=int(y.size),
        n_coefficients=1,
    )
    return Model(parameters, (), np.array([mean]), stats)


def smape(y: np.ndarray, pred: np.ndarray) -> float:
    """Symmetric mean absolute percentage error in [0, 2]."""
    y = np.asarray(y, dtype=float)
    pred = np.asarray(pred, dtype=float)
    denom = (np.abs(y) + np.abs(pred)) / 2.0
    mask = denom > 0
    if not np.any(mask):
        return 0.0
    return float(
        np.mean(np.abs(y[mask] - pred[mask]) / denom[mask])
    )
