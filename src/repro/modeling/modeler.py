"""The Extra-P-style modeler facade.

:class:`Modeler` fits PMNF models to measurements; a :class:`SearchPrior`
(built by the Perf-Taint core from taint results) optionally constrains the
search:

* ``forced_constant`` — the taint analysis proved no parameter affects the
  function: skip the search, emit the mean ("pruning out parametric models
  for constant functions", paper 4.5);
* ``allowed_params`` — only these parameters may appear in terms
  ("removing parameters that could not affect performance", section 5);
* ``multiplicative_pairs`` — products only for parameter pairs the volume
  analysis found nested (section A2).

Without a prior, the modeler is the black-box baseline the paper compares
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ModelingError
from .backends import (
    DEFAULT_MODEL_BACKEND,
    ModelSearchBackend,
    make_model_backend,
)
from .hypothesis import Model, fit_constant
from .multiparam import TermRestrictions
from .search import DEFAULT_SEARCH, SearchConfig, SearchRequest, search_models


@dataclass(frozen=True)
class SearchPrior:
    """White-box knowledge injected into the model search."""

    forced_constant: bool = False
    allowed_params: frozenset[str] | None = None
    multiplicative_pairs: frozenset[frozenset[str]] | None = None

    @classmethod
    def constant(cls) -> "SearchPrior":
        return cls(forced_constant=True)

    @classmethod
    def black_box(cls) -> "SearchPrior":
        """No restrictions (the baseline modeler)."""
        return cls()

    def restrictions(self) -> TermRestrictions:
        return TermRestrictions(
            allowed_params=self.allowed_params,
            multiplicative_pairs=self.multiplicative_pairs,
        )


@dataclass
class Modeler:
    """Fits PMNF models, optionally under a white-box prior.

    *backend* names a registered model-search backend (see
    :mod:`repro.modeling.backends`): ``batched`` (default) fits every
    hypothesis class with one stacked-LAPACK call, ``loop`` is the
    per-hypothesis reference oracle.  Both select identical models; the
    choice participates in campaign fingerprints, so cached model
    artifacts never cross backends.
    """

    config: SearchConfig = DEFAULT_SEARCH
    backend: str = DEFAULT_MODEL_BACKEND

    def __post_init__(self) -> None:
        self._backend_obj: "ModelSearchBackend | None" = None

    def search_backend(self) -> ModelSearchBackend:
        """The backend instance (memoized: it owns the term-column and
        factorization caches shared across this modeler's fits)."""
        if self._backend_obj is None:
            self._backend_obj = make_model_backend(self.backend)
        return self._backend_obj

    def model(
        self,
        X: np.ndarray,
        y: np.ndarray,
        parameters: tuple[str, ...],
        prior: SearchPrior | None = None,
    ) -> Model:
        """Fit the best model of measurements ``y(X)``.

        *X* is an (n_points x n_parameters) configuration matrix aligned
        with *parameters*; *y* are mean measured times.  The one-request
        case of :meth:`model_many`.
        """
        return self.model_many([(X, y, parameters, prior)])[0]

    def model_many(self, requests: "Sequence[tuple]") -> "list[Model]":
        """Fit the best model of every ``(X, y, parameters, prior)``.

        All searches run in one :func:`~repro.modeling.search.search_models`
        call, so requests measured at the same configuration matrix share
        every factorization; each result equals what :meth:`model`
        returns for that request alone.
        """
        out: "list[Model | None]" = [None] * len(requests)
        searches: "list[SearchRequest]" = []
        labels: "list[tuple[int, str]]" = []
        for idx, (X, y, parameters, prior) in enumerate(requests):
            X, y = _checked_points(X, y, parameters)
            prior = prior or SearchPrior.black_box()
            restrictions = prior.restrictions()
            if prior.forced_constant or (
                restrictions.allowed_params is not None
                and not any(map(restrictions.param_allowed, parameters))
            ):
                model = fit_constant(X, y, parameters)
                model.metadata["prior"] = "constant"
                out[idx] = model
                continue
            searches.append(
                SearchRequest(X, y, tuple(parameters), restrictions)
            )
            black_box = prior == SearchPrior.black_box()
            labels.append((idx, "black-box" if black_box else "taint"))
        found = search_models(searches, self.config, self.search_backend())
        for (idx, label), model in zip(labels, found):
            model.metadata["prior"] = label
            out[idx] = model
        return out  # type: ignore[return-value]


def _checked_points(
    X: np.ndarray, y: np.ndarray, parameters: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """*X* as an (n_points x n_parameters) float matrix, *y* as floats;
    :class:`ModelingError` when they do not fit together."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.shape[1] != len(parameters):
        raise ModelingError(
            f"X has {X.shape[1]} columns but {len(parameters)} "
            "parameters were named"
        )
    if X.shape[0] != y.shape[0]:
        raise ModelingError("X and y disagree on the number of points")
    if y.size == 0:
        raise ModelingError("cannot model zero measurements")
    return X, y
