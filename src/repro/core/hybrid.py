"""The hybrid modeler: taint priors over the black-box search (paper 4.5).

"We use the results of the taint analysis to minimize the negative effects
of measurement noise.  The model of computational volume is applied to
restrict the search space by removing parameters that could not affect
performance. ... The immediate effect is pruning out parametric models for
constant functions. ... The second important result is the removal of false
dependencies in performance models."

Per function, the prior is assembled from:

* the taint report — the set of parameters that can affect the function at
  all (loops + library calls); empty set forces a constant model;
* the volume analysis — which parameter pairs may multiply (nested loops),
  everything else restricted to additive terms;
* the library database — parameters entering through MPI calls are treated
  as one multiplicative group (a collective's cost is a product of a
  p-term and a message-size term, section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

from ..measure.experiment import Measurements
from ..measure.profiler import APP_KEY
from ..modeling.hypothesis import Model
from ..modeling.modeler import Modeler, SearchPrior
from ..taint.report import TaintReport
from ..volume.depclass import classify_volume
from ..volume.loopnest import VolumeReport


@dataclass
class ModelComparison:
    """Hybrid vs black-box model of one function."""

    function: str
    hybrid: Model
    black_box: Model | None = None
    prior: SearchPrior | None = None

    @property
    def false_dependencies(self) -> frozenset[str]:
        """Parameters the black-box model uses although taint excluded them."""
        if self.black_box is None or self.prior is None:
            return frozenset()
        allowed = (
            self.prior.allowed_params
            if self.prior.allowed_params is not None
            else None
        )
        if self.prior.forced_constant:
            allowed = frozenset()
        if allowed is None:
            return frozenset()
        return self.black_box.used_parameters() - allowed


@dataclass
class HybridModeler:
    """Fits per-function models under taint priors.

    *backend*, when set, overrides the wrapped modeler's model-search
    backend (``loop`` | ``batched``).  :meth:`model_all` searches every
    function in one call, so all functions measured at the same
    configuration matrix share one set of factorized hypothesis classes.
    """

    modeler: Modeler = field(default_factory=Modeler)
    #: Registered model-search backend name; None keeps the modeler's.
    backend: "str | None" = None

    def __post_init__(self) -> None:
        if self.backend is not None and self.backend != self.modeler.backend:
            self.modeler = replace(self.modeler, backend=self.backend)

    # ------------------------------------------------------------------

    def prior_for(
        self,
        function: str,
        taint: TaintReport,
        volumes: VolumeReport | None = None,
    ) -> SearchPrior:
        """Assemble the white-box prior of one function."""
        loop_params = taint.function_loop_params(function)
        lib_params = taint.library_params(function)
        params = loop_params | lib_params
        if not params:
            return SearchPrior.constant()

        pairs: set[frozenset[str]] = set()
        if volumes is not None and function in volumes.exclusive:
            dep = classify_volume(volumes.exclusive[function])
            pairs |= set(dep.multiplicative_pairs)
        # Library-call parameters form one conservative multiplicative
        # group (collective cost = f(p) * g(message size)).
        for a, b in combinations(sorted(lib_params), 2):
            pairs.add(frozenset({a, b}))
        return SearchPrior(
            allowed_params=frozenset(params),
            multiplicative_pairs=frozenset(pairs),
        )

    def app_prior(
        self, taint: TaintReport, volumes: VolumeReport | None = None
    ) -> SearchPrior:
        """Prior for the whole-application model: program volume deps."""
        if volumes is None:
            return SearchPrior.black_box()
        dep = classify_volume(volumes.program)
        params = dep.params | frozenset(
            p
            for rec in taint.library_records.values()
            for p in rec.params
        )
        if not params:
            return SearchPrior.constant()
        return SearchPrior(
            allowed_params=frozenset(params),
            multiplicative_pairs=None,
        )

    # ------------------------------------------------------------------

    def model_all(
        self,
        measurements: Measurements,
        taint: TaintReport,
        volumes: VolumeReport | None = None,
        functions: "list[str] | None" = None,
        compare_black_box: bool = False,
        cov_threshold: float | None = 0.1,
        include_app: bool = True,
    ) -> dict[str, ModelComparison]:
        """Fit models for all (reliable) measured functions.

        ``cov_threshold`` applies the paper's B1 screening; pass None to
        model everything.  Every function's hybrid (and black-box) search
        goes into one :meth:`Modeler.model_many` call, so functions
        measured at the same configuration matrix share each hypothesis
        class's factorization.
        """
        if functions is None:
            if cov_threshold is not None:
                functions = measurements.reliable_functions(cov_threshold)
            else:
                functions = measurements.functions()
        names = list(functions)
        if include_app and APP_KEY in measurements.data:
            names.append(APP_KEY)
        names = list(dict.fromkeys(names))
        parameters = measurements.parameters
        priors: list[SearchPrior] = []
        requests: list[tuple] = []
        for fn in names:
            X, y = measurements.points(fn)
            if fn == APP_KEY:
                prior = self.app_prior(taint, volumes)
            else:
                prior = self.prior_for(fn, taint, volumes)
            priors.append(prior)
            requests.append((X, y, parameters, prior))
            if compare_black_box:
                requests.append((X, y, parameters, SearchPrior.black_box()))
        models = iter(self.modeler.model_many(requests))
        out: dict[str, ModelComparison] = {}
        for fn, prior in zip(names, priors):
            hybrid = next(models)
            black_box = next(models) if compare_black_box else None
            out[fn] = ModelComparison(fn, hybrid, black_box, prior)
        return out

    # ------------------------------------------------------------------

    @staticmethod
    def false_dependency_report(
        comparisons: "dict[str, ModelComparison]",
    ) -> dict[str, frozenset[str]]:
        """Functions whose black-box models contain taint-refuted
        parameters (the models the hybrid approach corrects; paper B1:
        '77% models previously indicating performance effects')."""
        return {
            fn: cmp.false_dependencies
            for fn, cmp in comparisons.items()
            if cmp.false_dependencies
        }
