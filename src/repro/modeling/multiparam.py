"""Multi-parameter modeling heuristic: hypothesis generation.

The full multi-parameter PMNF search space explodes ("with as few as three
parameters, the model search space contains more than 10^14 candidates",
paper 4.5).  Extra-P's published heuristic (Calotoiu et al., "Fast
Multi-Parameter Performance Modeling") first finds the best *single*
parameter models, then only combines their terms — reducing "hundreds of
billions of models to under a thousand".  We implement that scheme:

1. for each parameter, fit single-parameter hypotheses on a data slice
   where the other parameters are held at their base value (falling back
   to marginal means when no such slice exists);
2. lift the top terms of each parameter into the full parameter space and
   enumerate additive and multiplicative combinations, bounded by the
   normal form's term budget;
3. fit every combined hypothesis on the full data set and select the best.

This module holds the design-side pieces (slices, lifting, enumeration);
:func:`repro.modeling.search.search_models` runs the three steps for a
whole model stage at once.

Hypothesis generation accepts *restrictions* — the hook the hybrid modeler
(paper section 4.5 "Hybrid modeler") uses to encode taint knowledge:
excluded parameters never appear, and product terms are only generated for
parameter pairs the volume analysis proved multiplicative.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product as iproduct

import numpy as np

from .terms import TermSpec, product_term, single_param_term


@dataclass(frozen=True)
class TermRestrictions:
    """Restrictions on hypothesis generation (the taint prior's shape)."""

    #: Parameter names allowed to appear (None: all).
    allowed_params: frozenset[str] | None = None
    #: Unordered name pairs allowed to multiply (None: all pairs).
    multiplicative_pairs: frozenset[frozenset[str]] | None = None

    def param_allowed(self, name: str) -> bool:
        return self.allowed_params is None or name in self.allowed_params

    def product_allowed(self, names: "frozenset[str]") -> bool:
        if self.multiplicative_pairs is None:
            return True
        return all(
            frozenset(pair) in self.multiplicative_pairs
            for pair in combinations(sorted(names), 2)
        )


NO_RESTRICTIONS = TermRestrictions()


def _slice_for_parameter(
    X: np.ndarray, Y: np.ndarray, index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Data slice exposing parameter *index* for every row of *Y*.

    The slice keeps the configurations where all other parameters sit at
    their minimum, so its design is the same for every function measured
    on *X*; when fewer than three distinct values remain it falls back to
    marginal means (average y per distinct value of x_index).  Returns
    ``(xs, Ys)`` with one row of *Ys* per row of *Y*.
    """
    others = [l for l in range(X.shape[1]) if l != index]
    if not others:
        return X[:, index], Y
    mask = np.ones(X.shape[0], dtype=bool)
    for l in others:
        mask &= X[:, l] == X[:, l].min()
    xs = X[mask, index]
    if len(np.unique(xs)) >= 3:
        return xs, np.ascontiguousarray(Y[:, mask])
    values = np.unique(X[:, index])
    # Row means of a C-contiguous block reduce exactly like np.mean of
    # each row on its own.
    means = np.stack(
        [
            np.ascontiguousarray(Y[:, X[:, index] == v]).mean(axis=1)
            for v in values
        ],
        axis=1,
    )
    return values, means


def _lift(term: TermSpec, index: int, n_params: int) -> TermSpec:
    """Lift a 1-parameter term to the n-parameter space at *index*."""
    (i, j) = term.exponents[0]
    return single_param_term(index, n_params, i, j)


def generate_hypotheses(
    per_param_terms: "dict[int, list[TermSpec]]",
    n_params: int,
    parameters: tuple[str, ...],
    restrictions: TermRestrictions = NO_RESTRICTIONS,
    n_terms: int = 2,
) -> list[tuple[TermSpec, ...]]:
    """Enumerate combined hypotheses from per-parameter term shortlists."""
    hypotheses: set[tuple[TermSpec, ...]] = set()
    indices = [
        l
        for l in sorted(per_param_terms)
        if per_param_terms[l] and restrictions.param_allowed(parameters[l])
    ]

    # Single-parameter hypotheses (1 term).
    for l in indices:
        for term in per_param_terms[l]:
            hypotheses.add((term,))

    # Additive combinations: one term per parameter subset, up to n_terms.
    for size in range(2, min(n_terms, len(indices)) + 1):
        for subset in combinations(indices, size):
            for choice in iproduct(*(per_param_terms[l] for l in subset)):
                hypotheses.add(tuple(choice))

    # Multiplicative combinations: product of one term per parameter, for
    # subsets whose pairs are allowed to multiply.
    for size in range(2, len(indices) + 1):
        for subset in combinations(indices, size):
            names = frozenset(parameters[l] for l in subset)
            if not restrictions.product_allowed(names):
                continue
            for choice in iproduct(*(per_param_terms[l] for l in subset)):
                prod = product_term(list(choice))
                hypotheses.add((prod,))
                # Product plus one extra single-parameter term (2 terms).
                if n_terms >= 2:
                    for l in indices:
                        for extra in per_param_terms[l][:1]:
                            hypotheses.add(tuple(sorted(
                                (prod, extra),
                                key=lambda t: t.exponents,
                            )))
    return sorted(hypotheses, key=lambda h: (len(h), [t.exponents for t in h]))
