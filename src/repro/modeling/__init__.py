"""Empirical performance modeling: an Extra-P re-implementation.

PMNF terms and hypotheses (paper Eq. 1), single-parameter search over the
paper's I/J exponent sets, the fast multi-parameter heuristic, and the
:class:`Modeler` facade with white-box :class:`SearchPrior` support.
"""

from .backends import (
    DEFAULT_MODEL_BACKEND,
    BatchedModelBackend,
    LoopModelBackend,
    ModelSearchBackend,
    default_model_backend,
    make_model_backend,
)
from .hypothesis import (
    Model,
    ModelStats,
    fit_constant,
    fit_hypothesis,
    smape,
)
from .crossval import compare_models, kfold_smape, loocv_smape
from .modeler import Modeler, SearchPrior
from .multiparam import NO_RESTRICTIONS, TermRestrictions, generate_hypotheses
from .search import (
    DEFAULT_SEARCH,
    SearchConfig,
    best_terms_for_parameter,
    search_single_parameter,
)
from .terms import (
    DEFAULT_I,
    DEFAULT_J,
    DEFAULT_N_TERMS,
    TermSpec,
    candidate_terms,
    evaluate_term_columns,
    product_term,
    single_param_term,
)

__all__ = [
    "BatchedModelBackend",
    "DEFAULT_I",
    "DEFAULT_J",
    "DEFAULT_MODEL_BACKEND",
    "DEFAULT_N_TERMS",
    "DEFAULT_SEARCH",
    "LoopModelBackend",
    "Model",
    "ModelSearchBackend",
    "ModelStats",
    "Modeler",
    "NO_RESTRICTIONS",
    "SearchConfig",
    "SearchPrior",
    "TermRestrictions",
    "TermSpec",
    "best_terms_for_parameter",
    "candidate_terms",
    "compare_models",
    "default_model_backend",
    "evaluate_term_columns",
    "fit_constant",
    "fit_hypothesis",
    "generate_hypotheses",
    "kfold_smape",
    "loocv_smape",
    "make_model_backend",
    "product_term",
    "search_single_parameter",
    "single_param_term",
    "smape",
]
