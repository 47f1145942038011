"""PMNF model search: enumerate hypotheses, score them, select the best.

A one-parameter search enumerates constant, one-term, and two-term
combinations of the I x J candidate terms; a multi-parameter search
combines each parameter's strongest terms (:mod:`.multiparam`).  The best
hypothesis is selected by residual error with a mild parsimony bias —
close to Extra-P 3.0's behaviour, which is deliberately permissive: under
noise it will happily prefer a spurious parametric model over the true
constant, which is the failure mode the paper's taint prior eliminates
(section B1).

:func:`search_models` searches a whole model stage in one call.  Requests
sharing a configuration matrix run in phases:

1. per parameter, one slice fit of every candidate term for all requests
   (the slice design is the same for every function);
2. per request, the term ranking and hypothesis enumeration;
3. one :meth:`~repro.modeling.backends.ModelSearchBackend.score_pairs`
   call over exactly the (request, hypothesis) pairs the requests
   enumerate — the ``batched`` backend factorizes each hypothesis class
   once for all of them;
4. per request, the fold over :func:`_better` on its scores in its own
   enumeration order; a :class:`~repro.modeling.hypothesis.Model` is
   built only for the winner.

The fold is backend-independent, which is what makes the backends
decision-identical; and a pair's score does not depend on the other pairs
scored beside it, so a request's model is the same whatever else is in
the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .backends import ModelSearchBackend, default_model_backend
from .hypothesis import Model, fit_constant
from .multiparam import (
    NO_RESTRICTIONS,
    TermRestrictions,
    _lift,
    _slice_for_parameter,
    generate_hypotheses,
)
from .terms import (
    DEFAULT_I,
    DEFAULT_J,
    DEFAULT_N_TERMS,
    TermSpec,
    candidate_terms,
)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the hypothesis search."""

    i_set: tuple = DEFAULT_I
    j_set: tuple = DEFAULT_J
    n_terms: int = DEFAULT_N_TERMS
    #: Relative improvement a larger hypothesis must deliver over a smaller
    #: one to be preferred (Extra-P-style mild parsimony).
    improvement_threshold: float = 1e-4
    #: Reject hypotheses with non-positive term coefficients.
    require_nonnegative: bool = True


DEFAULT_SEARCH = SearchConfig()

#: Single terms a one-parameter search pairs up, so the search stays near
#: Extra-P's "under a thousand" hypotheses.
SHORTLIST_LIMIT = 16
#: Terms per parameter the multi-parameter heuristic combines.
TOP_K = 3


@dataclass(frozen=True, eq=False)
class SearchRequest:
    """One function's search: mean times *y* over the configuration
    matrix *X* (columns aligned with *parameters*), and the prior's
    restrictions on hypothesis generation."""

    X: np.ndarray
    y: np.ndarray
    parameters: tuple[str, ...]
    restrictions: TermRestrictions = NO_RESTRICTIONS


def _rss_floor(y: np.ndarray) -> float:
    """RSS below this level is float rounding noise from an exact fit.

    Residuals of a hypothesis that matches the data exactly are pure
    rounding error (relative magnitude well under 1e-8), yet relative-RSS
    comparisons would amplify that noise into arbitrary selections —
    and different-but-equally-exact backends would amplify it
    *differently*.  Flooring RSS at this scale makes exact fits compare
    as exactly zero, so selection among them falls back to the
    deterministic enumeration-order/parsimony rules on every backend.
    """
    if y.size == 0:
        return 0.0
    scale = max(1.0, float(np.max(np.abs(y))))
    return y.size * (1e-8 * scale) ** 2


#: Relative RSS improvement below which two same-size hypotheses count
#: as tied.  Mathematically tied hypotheses are common — on a two-level
#: factorial design every additive pair spans the same column space — and
#: their computed RSS differs only by backend rounding (<= ~1e-12
#: relative), so a raw ``<`` would let float noise pick the winner.
#: Ties keep the earlier-enumerated hypothesis on every backend.
RSS_TIE_REL_TOL = 1e-10


def _better(
    c_rss: float,
    c_k: int,
    i_rss: float,
    i_k: int,
    threshold: float,
    floor: float = 0.0,
) -> bool:
    """Does a candidate (RSS *c_rss*, *c_k* coefficients) beat the
    incumbent (*i_rss*, *i_k*) under the parsimony rule?

    Smaller RSS wins; a hypothesis with more coefficients must improve RSS
    by at least *threshold* relatively to displace a smaller one.  RSS at
    or below *floor* (see :func:`_rss_floor`) counts as an exact fit, and
    same-size displacement needs a genuine improvement
    (:data:`RSS_TIE_REL_TOL`), keeping selection backend-independent.
    """
    c_rss = c_rss if c_rss > floor else 0.0
    i_rss = i_rss if i_rss > floor else 0.0
    if c_k > i_k:
        if i_rss <= 0:
            return False
        gain = (i_rss - c_rss) / i_rss
        return gain > threshold
    if c_k < i_k:
        if c_rss <= 0:
            return True
        loss = (c_rss - i_rss) / c_rss
        return loss <= threshold
    if i_rss <= 0:
        return False
    return (i_rss - c_rss) / i_rss > RSS_TIE_REL_TOL


def _rank_rss(rss: float, floor: float) -> float:
    """RSS as a deterministic ranking key.

    Floored (:func:`_rss_floor`) and quantized to 10 significant digits,
    so backend rounding (<= ~1e-12 relative) cannot reorder near-ties —
    the exponent tie-break decides those instead.
    """
    if rss <= floor:
        return 0.0
    scale = 10.0 ** (math.floor(math.log10(rss)) - 9)
    return round(rss / scale) * scale


def _shortlist(
    scored: "list[tuple[TermSpec, float]]",
    limit: int = SHORTLIST_LIMIT,
    floor: float = 0.0,
) -> "list[TermSpec]":
    """The *limit* strongest of the ``(term, rss)`` pairs.

    Ordered by (quantized RSS, exponents): the exponent tuple breaks RSS
    ties deterministically, so the result does not depend on candidate
    enumeration order or on the fitting backend.
    """
    ranked = sorted(
        scored, key=lambda tr: (_rank_rss(tr[1], floor), tr[0].exponents)
    )
    return [term for term, _rss in ranked[:limit]]


def _rank_terms(
    backend: ModelSearchBackend,
    xs: np.ndarray,
    Ys: np.ndarray,
    parameter: str,
    config: SearchConfig,
    limit: int,
) -> "list[list[TermSpec]]":
    """Phase 1: the *limit* strongest single terms of *parameter* for
    every row of *Ys*, from one fit of every candidate on design *xs*."""
    candidates = candidate_terms(1, 0, config.i_set, config.j_set)
    F, H = Ys.shape[0], len(candidates)
    if not H or limit < 1:
        return [[] for _ in range(F)]
    scores = backend.score_pairs(
        xs.reshape(-1, 1),
        Ys,
        (parameter,),
        [(term,) for term in candidates],
        np.repeat(np.arange(F), H),
        np.tile(np.arange(H), F),
        config.require_nonnegative,
    )
    rss = np.where(
        scores.accepted.reshape(F, H), scores.rss.reshape(F, H), np.inf
    )
    floors = [_rss_floor(Ys[f]) for f in range(F)]
    # Only terms within a 1e-6 relative margin of the limit-th smallest
    # RSS (or at the floor) can rank in the top *limit*: the quantized key
    # moves RSS by under 1e-9 relative.  The exact ranking runs on those.
    kth = np.sort(rss, axis=1)[:, min(limit, H) - 1]
    cutoff = np.maximum(kth * (1.0 + 1e-6), floors)
    contenders = np.isfinite(rss) & (rss <= cutoff[:, None])
    return [
        _shortlist(
            [
                (candidates[h], value)
                for h, value in zip(
                    np.flatnonzero(contenders[f]).tolist(),
                    rss[f, contenders[f]].tolist(),
                )
            ],
            limit,
            floors[f],
        )
        for f in range(F)
    ]


def _search_design(
    backend: ModelSearchBackend,
    X: np.ndarray,
    requests: "Sequence[SearchRequest]",
    config: SearchConfig,
) -> "list[Model]":
    """Phases 1-4 for requests sharing configuration matrix *X*."""
    parameters = requests[0].parameters
    n_params = len(parameters)
    Y = np.stack([np.asarray(r.y, dtype=float) for r in requests])

    # Phase 1: per parameter, one slice fit for every request using it.
    ranked: "list[dict[int, list[TermSpec]]]" = [{} for _ in requests]
    limit = SHORTLIST_LIMIT if n_params == 1 else TOP_K
    for l, name in enumerate(parameters):
        users = [
            f
            for f, r in enumerate(requests)
            if r.restrictions.param_allowed(name)
        ]
        if not users:
            continue
        xs, Ys = _slice_for_parameter(X, Y[users], l)
        for f, terms in zip(
            users, _rank_terms(backend, xs, Ys, name, config, limit)
        ):
            ranked[f][l] = terms

    # Phase 2: every request's hypotheses, in its enumeration order.
    singles = [
        (term,) for term in candidate_terms(1, 0, config.i_set, config.j_set)
    ]
    enumerated: "list[list[tuple[TermSpec, ...]]]" = []
    for f, request in enumerate(requests):
        if n_params > 1:
            hyps = generate_hypotheses(
                {
                    l: [_lift(t, l, n_params) for t in terms]
                    for l, terms in ranked[f].items()
                },
                n_params,
                parameters,
                request.restrictions,
                config.n_terms,
            )
        elif 0 in ranked[f]:
            hyps = list(singles)
            if config.n_terms >= 2:
                hyps += combinations(ranked[f][0], 2)
        else:
            hyps = []
        enumerated.append(hyps)

    # Phase 3: score exactly the enumerated pairs, in one call.
    index: "dict[tuple[TermSpec, ...], int]" = {}
    hypotheses: "list[tuple[TermSpec, ...]]" = []
    pair_hyps: "list[int]" = []
    bounds = [0]
    for hyps in enumerated:
        for terms in hyps:
            h = index.get(terms)
            if h is None:
                h = index[terms] = len(hypotheses)
                hypotheses.append(terms)
            pair_hyps.append(h)
        bounds.append(len(pair_hyps))
    scores = backend.score_pairs(
        X,
        Y,
        parameters,
        hypotheses,
        np.repeat(np.arange(len(requests)), np.diff(bounds)),
        np.array(pair_hyps, dtype=np.intp),
        config.require_nonnegative,
    )

    # Phase 4: per request, the selection fold; build only the winner.
    accepted = scores.accepted.tolist()
    rss = scores.rss.tolist()
    sizes = [len(terms) + 1 for terms in hypotheses]
    models: "list[Model]" = []
    for f in range(len(requests)):
        constant = fit_constant(X, Y[f], parameters)
        floor = _rss_floor(Y[f])
        best, best_rss, best_k = None, constant.stats.rss, 1
        for p in range(bounds[f], bounds[f + 1]):
            if not accepted[p]:
                continue
            k = sizes[pair_hyps[p]]
            if _better(
                rss[p], k, best_rss, best_k,
                config.improvement_threshold, floor,
            ):
                best, best_rss, best_k = p, rss[p], k
        models.append(constant if best is None else scores.model(best))
    return models


def search_models(
    requests: "Sequence[SearchRequest]",
    config: SearchConfig = DEFAULT_SEARCH,
    backend: "ModelSearchBackend | None" = None,
) -> "list[Model]":
    """Best PMNF model of every request, searched as one stage.

    Requests are grouped by configuration matrix and parameter names (a
    function missing from some configurations has its own matrix); each
    group runs the four phases of this module's docstring.
    """
    backend = backend or default_model_backend()
    groups: "dict[tuple, tuple[np.ndarray, list[int]]]" = {}
    for idx, request in enumerate(requests):
        X = np.ascontiguousarray(request.X, dtype=float)
        key = (tuple(request.parameters), X.shape, X.tobytes())
        groups.setdefault(key, (X, []))[1].append(idx)
    out: "list[Model | None]" = [None] * len(requests)
    for X, idxs in groups.values():
        group = [requests[i] for i in idxs]
        for idx, model in zip(
            idxs, _search_design(backend, X, group, config)
        ):
            out[idx] = model
    return out  # type: ignore[return-value]


def search_single_parameter(
    x: np.ndarray,
    y: np.ndarray,
    parameter: str,
    config: SearchConfig = DEFAULT_SEARCH,
    backend: "ModelSearchBackend | None" = None,
) -> Model:
    """Best single-parameter PMNF model of measurements ``y(x)``."""
    request = SearchRequest(
        np.asarray(x, dtype=float).reshape(-1, 1),
        np.asarray(y, dtype=float),
        (parameter,),
    )
    return search_models([request], config, backend)[0]


def best_terms_for_parameter(
    x: np.ndarray,
    y: np.ndarray,
    parameter: str,
    config: SearchConfig = DEFAULT_SEARCH,
    top_k: int = TOP_K,
    backend: "ModelSearchBackend | None" = None,
) -> list[TermSpec]:
    """The strongest single-parameter candidate terms of ``y(x)`` (the
    multi-parameter heuristic's per-parameter step, for one function).
    Ranked by (RSS, exponents) so ties resolve deterministically."""
    return _rank_terms(
        backend or default_model_backend(),
        np.asarray(x, dtype=float),
        np.asarray(y, dtype=float)[None, :],
        parameter,
        config,
        top_k,
    )[0]
