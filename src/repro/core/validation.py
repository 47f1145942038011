"""Validity checks (paper section C).

Two detectors turn white-box knowledge into experiment diagnostics:

* **hardware contention** (C1): a function whose taint-proven parameter set
  excludes the swept parameter, yet whose statistically sound measurements
  fit an increasing model, is being perturbed by something outside the
  application code — on multi-core nodes, memory-bandwidth saturation from
  co-located ranks;
* **segmented behavior** (C2): a parameter-dependent branch that takes
  different directions across the modeling domain splits the domain into
  qualitatively different behaviors; a single PMNF cannot represent both,
  so the user should split the experiment ("ensure there is only one
  behavior present in the data").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..measure.experiment import Measurements
from ..measure.profiler import APP_KEY
from ..modeling.hypothesis import Model
from ..taint.engine import TaintEngine
from ..taint.policy import FULL_POLICY, PropagationPolicy
from ..taint.report import TaintReport
from ..taint.sources import LibraryTaintModel


@dataclass(frozen=True)
class ContentionFinding:
    """One function flagged by the contention detector."""

    function: str
    model: str
    spurious_params: frozenset[str]
    max_cov: float

    def __str__(self) -> str:
        params = ", ".join(sorted(self.spurious_params))
        return (
            f"{self.function}: model '{self.model}' depends on [{params}] "
            f"although taint analysis proves independence (max CoV "
            f"{self.max_cov:.3f}) - systemic interference (e.g. memory "
            "contention) likely"
        )


def _marginal_effect_ratio(
    measurements: Measurements,
    function: str,
    param_index: int,
    n_params: int,
) -> float:
    """F-like statistic for the marginal effect of one parameter.

    Configurations are partitioned by the values of the *other* parameters;
    within each partition the parameter of interest varies.  The statistic
    is the variance of per-configuration means across the partition,
    normalized by the variance of those means expected from repetition
    noise alone.  ~1 for a pure-noise parameter; >> 1 for a real effect.
    """
    import numpy as np

    per_fn = measurements.data.get(function, {})
    groups: dict[tuple, list[list[float]]] = {}
    for key, reps in per_fn.items():
        rest = tuple(v for i, v in enumerate(key) if i != param_index)
        groups.setdefault(rest, []).append(list(reps))
    ratios: list[float] = []
    for reps_lists in groups.values():
        if len(reps_lists) < 2:
            continue
        means = np.array([np.mean(r) for r in reps_lists])
        n_reps = min(len(r) for r in reps_lists)
        if n_reps < 2:
            continue
        sem2 = np.mean(
            [np.var(r, ddof=1) / len(r) for r in reps_lists]
        )
        across = float(np.var(means, ddof=1))
        if sem2 <= 0:
            ratios.append(float("inf") if across > 0 else 0.0)
        else:
            ratios.append(across / sem2)
    if not ratios:
        return 0.0
    return float(np.median(ratios))


def detect_contention(
    measurements: Measurements,
    models: Mapping[str, Model],
    taint: TaintReport,
    cov_threshold: float = 0.1,
    exclude_comm: bool = True,
    effect_ratio_threshold: float = 25.0,
) -> list[ContentionFinding]:
    """Flag taint-refuted parameter dependencies in fitted models.

    Three screens separate systemic interference from fitting noise:

    * CoV: only "statistically sound measurements" count (paper B1/C1);
    * the model must use a parameter taint proved irrelevant;
    * the refuted parameter must have a *real marginal effect* in the data:
      the variance of configuration means across that parameter (others
      held fixed) must exceed the repetition-noise floor by
      ``effect_ratio_threshold`` — a term merely borrowed by the regression
      for extra flexibility is a false dependency for the hybrid modeler
      to prune (B1), not evidence of contention.

    Communication routines are excluded by default: co-location
    legitimately changes their performance (paper C1: "only communication
    routines might benefit from optimized MPI operations when processes
    are co-located").
    """
    findings: list[ContentionFinding] = []
    parameters = measurements.parameters
    for fn, model in models.items():
        if fn not in measurements.data:
            continue
        cov = measurements.max_cov(fn)
        if cov > cov_threshold:
            continue
        used = model.used_parameters()
        if not used:
            continue
        # Library routines carry their own dependency records; the whole-
        # application series legitimately depends on every parameter any
        # part of the program depends on.
        if fn == APP_KEY:
            allowed = frozenset()
            for rec in taint.loop_records.values():
                allowed |= rec.params
            for rec in taint.library_records.values():
                allowed |= rec.params
        else:
            allowed = taint.function_params(fn) | taint.routine_params(fn)
            if exclude_comm and (
                taint.library_params(fn) or fn in taint.routines_called()
            ):
                continue
        spurious = used - allowed
        if not spurious:
            continue
        confirmed: set[str] = set()
        for q in spurious:
            if q not in parameters:
                continue
            ratio = _marginal_effect_ratio(
                measurements, fn, parameters.index(q), len(parameters)
            )
            if ratio >= effect_ratio_threshold:
                confirmed.add(q)
        if confirmed:
            findings.append(
                ContentionFinding(
                    function=fn,
                    model=model.format(),
                    spurious_params=frozenset(confirmed),
                    max_cov=cov,
                )
            )
    return sorted(findings, key=lambda f: f.function)


@dataclass
class SegmentFinding:
    """One branch whose direction flips across the modeling domain."""

    function: str
    branch_id: int
    params: frozenset[str]
    #: configuration (as a tuple of (name, value) pairs) -> direction taken.
    directions: dict[tuple[tuple[str, float], ...], frozenset[bool]] = field(
        default_factory=dict
    )

    @property
    def is_segmented(self) -> bool:
        """True when at least two configurations disagree on direction."""
        seen: set[frozenset[bool]] = set(self.directions.values())
        if len(seen) > 1:
            return True
        return any(len(d) > 1 for d in seen)

    def boundary(self) -> str:
        """Human-readable summary of where behavior changes."""
        parts = []
        for key, dirs in sorted(self.directions.items()):
            cfg = ", ".join(f"{k}={v:g}" for k, v in key)
            taken = "/".join(
                "then" if d else "else" for d in sorted(dirs, reverse=True)
            )
            parts.append(f"({cfg}) -> {taken}")
        return "; ".join(parts)


def detect_segmented_behavior(
    program,
    configs: Sequence[Mapping[str, float]],
    setup_factory,
    sources: Mapping[str, str],
    library_taint: LibraryTaintModel | None = None,
    policy: PropagationPolicy = FULL_POLICY,
) -> list[SegmentFinding]:
    """Run cheap taint executions across *configs* and flag parameter-
    dependent branches whose direction changes (paper C2).

    ``setup_factory(config)`` must return a
    :class:`~repro.measure.experiment.RunSetup` for the configuration
    (the workload's ``setup`` method).  Use scaled-down configurations:
    only the branch-relevant parameters need their real values.
    """
    by_branch: dict[tuple[str, int], SegmentFinding] = {}
    for config in configs:
        setup = setup_factory(config)
        engine = TaintEngine(
            program,
            runtime=setup.runtime,
            config=setup.exec_config,
            policy=policy,
            library_taint=library_taint,
        )
        result = engine.analyze(setup.args, dict(sources), entry=setup.entry)
        key_cfg = tuple(sorted((k, float(v)) for k, v in config.items()))
        for (_cp, fn, bid), rec in result.report.branch_records.items():
            if not rec.params:
                continue
            finding = by_branch.get((fn, bid))
            if finding is None:
                finding = SegmentFinding(fn, bid, rec.params)
                by_branch[(fn, bid)] = finding
            finding.params |= rec.params
            prev = finding.directions.get(key_cfg, frozenset())
            finding.directions[key_cfg] = prev | rec.directions
    return sorted(
        (f for f in by_branch.values() if f.is_segmented),
        key=lambda f: (f.function, f.branch_id),
    )


def poor_fit_functions(
    models: Mapping[str, Model], smape_threshold: float = 0.15
) -> dict[str, float]:
    """Functions whose best model still fits poorly — the complementary C2
    signal that "the parametric models estimated by Extra-P cannot
    represent the function accurately unless more measurement data is
    provided"."""
    return {
        fn: model.stats.smape
        for fn, model in models.items()
        if model.stats.smape > smape_threshold
    }
