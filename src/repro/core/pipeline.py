"""The Perf-Taint pipeline (paper Figure 2).

Orchestrates the four stages the paper improves with taint information:

1. **parameter identification** — static pruning plus a dynamic taint run
   on a small representative configuration;
2. **reduced experiment design** — parameter pruning, linear-factor
   collapsing, additive-only sweeps;
3. **instrumented experiments** — selective instrumentation, measurement
   with noise and contention;
4. **model generation** — hybrid PMNF modeling with taint priors, plus
   validity checks.

Each stage is a separate method so benchmarks and examples can run any
prefix; :meth:`PerfTaintPipeline.run` chains them all.

Since the Campaign API redesign this class is a thin wrapper: the stage
*computations* live in :mod:`repro.core.stages` (shared with
:class:`~repro.core.stages.Campaign`, which adds artifact persistence and
resume), and :meth:`run` simply executes a workspace-less campaign — the
two entry points are bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import math

from ..interp import DEFAULT_MEASUREMENT_ENGINE
from ..libdb.database import LibraryDatabase
from ..libdb.mpi_models import MPI_DATABASE
from ..measure.experiment import ConfigKey, Measurements, Workload
from ..measure.instrumentation import InstrumentationMode, InstrumentationPlan
from ..measure.noise import GaussianNoise, NoiseModel
from ..measure.profiler import ProfileResult
from ..modeling.modeler import Modeler
from ..mpisim.contention import ContentionModel, NoContention
from ..staticanalysis.prune import StaticReport
from ..taint.policy import FULL_POLICY, PropagationPolicy
from ..taint.report import TaintReport
from ..volume.depclass import ProgramDependencies
from ..volume.loopnest import VolumeReport
from .classify import Classification
from .experiment_design import DesignDecision, design_experiments
from .hybrid import ModelComparison
from .stages import (
    Campaign,
    run_classify_stage,
    run_measure_stage,
    run_model_stage,
    run_plan_stage,
    run_static_stage,
    run_taint_stage,
    run_validate_stage,
    run_volumes_stage,
)
from .validation import ContentionFinding


@dataclass
class PerfTaintResult:
    """Everything the pipeline produced."""

    static: StaticReport
    taint: TaintReport
    volumes: VolumeReport
    dependencies: ProgramDependencies
    classification: Classification
    design: DesignDecision
    plan: InstrumentationPlan
    measurements: Measurements
    profiles: dict[ConfigKey, ProfileResult]
    models: dict[str, ModelComparison]
    contention_findings: list[ContentionFinding] = field(default_factory=list)


@dataclass
class PerfTaintPipeline:
    """Configurable end-to-end Perf-Taint run over one workload."""

    workload: Workload
    #: Each pipeline gets its own copy: LibraryDatabase is mutable
    #: (``register``), and sharing the module-level MPI_DATABASE instance
    #: would let one run's registrations leak into concurrent runs.
    library: LibraryDatabase = field(default_factory=lambda: MPI_DATABASE.copy())
    policy: PropagationPolicy = FULL_POLICY
    noise: NoiseModel = field(default_factory=GaussianNoise)
    contention: ContentionModel = field(default_factory=NoContention)
    modeler: Modeler = field(default_factory=Modeler)
    repetitions: int = 5
    seed: int = 0
    #: Worker processes for the instrumented-experiments stage (1 =
    #: inline, no pool).  Results are bit-identical for every value: RNG
    #: streams are key-derived and merging is design-ordered.
    n_jobs: int = 1
    #: Run-cache directory; None disables caching.
    cache_dir: str | None = None
    #: Execution engine for the measurement stage ("vectorized", the
    #: default, runs tensor batches; "tree" runs one configuration at a
    #: time).
    engine: str = DEFAULT_MEASUREMENT_ENGINE

    def __post_init__(self) -> None:
        self._program = None

    def program(self):
        """The workload's program, built once per pipeline.

        Workload implementations may or may not memoize their own
        ``program()``; the pipeline must not depend on that.
        """
        if self._program is None:
            self._program = self.workload.program()
        return self._program

    # ------------------------------------------------------------------
    # stage 1: analysis

    def analyze_static(self) -> StaticReport:
        """Compile-time phase (paper 5.1)."""
        return run_static_stage(self.program(), self.library)

    def analyze_taint(self) -> TaintReport:
        """Dynamic taint run on the workload's representative config."""
        return run_taint_stage(
            self.workload,
            self.program(),
            self.policy,
            self.library,
        )

    def analyze(
        self,
    ) -> tuple[StaticReport, TaintReport, VolumeReport, ProgramDependencies, Classification]:
        """Run the full analysis stage."""
        static = self.analyze_static()
        taint = self.analyze_taint()
        volumes, deps = run_volumes_stage(self.program(), taint)
        classification = run_classify_stage(self.program(), static, taint)
        return static, taint, volumes, deps, classification

    # ------------------------------------------------------------------
    # stage 2: design

    def design(
        self,
        parameter_values: Mapping[str, Sequence[float]],
        taint: TaintReport,
        deps: ProgramDependencies,
        volumes: VolumeReport,
    ) -> DesignDecision:
        """Taint-informed experiment design (paper A1/A2)."""
        return design_experiments(
            parameter_values, taint, deps, volumes.program
        )

    # ------------------------------------------------------------------
    # stage 3: measurement

    def plan_for(
        self,
        mode: InstrumentationMode,
        taint: TaintReport | None = None,
        static: StaticReport | None = None,
    ) -> InstrumentationPlan:
        """Instrumentation plan for the requested mode.

        Raises :class:`~repro.errors.PipelineError` when the taint-filter
        mode is requested without a taint report.
        """
        return run_plan_stage(mode, self.program(), taint, static)

    def measure(
        self,
        design: Sequence[Mapping[str, float]],
        plan: InstrumentationPlan,
    ) -> tuple[Measurements, dict[ConfigKey, ProfileResult]]:
        """Run the instrumented experiments (see :func:`run_measure_stage`).

        The default ``vectorized`` engine measures the whole design in
        one batched pass; a scalar ``engine`` runs one configuration at
        a time.  All produce bit-identical measurements.
        """
        return run_measure_stage(
            self.workload,
            design,
            plan,
            noise=self.noise,
            contention=self.contention,
            repetitions=self.repetitions,
            seed=self.seed,
            n_jobs=self.n_jobs,
            cache_dir=self.cache_dir,
            engine=self.engine,
        )

    # ------------------------------------------------------------------
    # stage 4: modeling and validation

    def model(
        self,
        measurements: Measurements,
        taint: TaintReport,
        volumes: VolumeReport | None = None,
        compare_black_box: bool = False,
        cov_threshold: float | None = 0.1,
    ) -> dict[str, ModelComparison]:
        """Hybrid model generation (paper 4.5)."""
        return run_model_stage(
            measurements,
            taint,
            volumes,
            modeler=self.modeler,
            compare_black_box=compare_black_box,
            cov_threshold=cov_threshold,
        )

    def validate(
        self,
        measurements: Measurements,
        models: Mapping[str, ModelComparison],
        taint: TaintReport,
    ) -> list[ContentionFinding]:
        """Contention detection over black-box models (paper C1).

        The check runs on the *black-box* side of each comparison when
        present (the hybrid model already excludes refuted parameters);
        a finding means the measurements contradict the code.
        """
        return run_validate_stage(measurements, models, taint)

    # ------------------------------------------------------------------

    def campaign(
        self,
        parameter_values: Mapping[str, Sequence[float]],
        mode: InstrumentationMode = InstrumentationMode.TAINT_FILTER,
        compare_black_box: bool = False,
        cov_threshold: float | None = 0.1,
    ) -> Campaign:
        """The equivalent :class:`Campaign` of one :meth:`run` call."""
        campaign = Campaign(
            workload=self.workload,
            parameter_values=parameter_values,
            mode=mode,
            library=self.library,
            policy=self.policy,
            noise=self.noise,
            contention=self.contention,
            modeler=self.modeler,
            repetitions=self.repetitions,
            seed=self.seed,
            n_jobs=self.n_jobs,
            cache_dir=self.cache_dir,
            engine=self.engine,
            compare_black_box=compare_black_box,
            cov_threshold=cov_threshold,
        )
        # Share the pipeline's memoized program: stage methods and run()
        # must build the workload program once per pipeline, not once per
        # entry point.
        campaign._program = self.program()
        return campaign

    def run(
        self,
        parameter_values: Mapping[str, Sequence[float]],
        mode: InstrumentationMode = InstrumentationMode.TAINT_FILTER,
        compare_black_box: bool = False,
        cov_threshold: float | None = 0.1,
    ) -> PerfTaintResult:
        """Full pipeline: analyze, design, measure, model, validate.

        Equivalent to running the campaign stage DAG without a workspace
        (and verified to be bit-identical to it).
        """
        return self.campaign(
            parameter_values,
            mode=mode,
            compare_black_box=compare_black_box,
            cov_threshold=cov_threshold,
        ).run()


def core_hours(
    profiles: Mapping[ConfigKey, ProfileResult],
    parameters: Sequence[str],
    ranks_param: str = "p",
    time_unit_seconds: float = 1e-9,
) -> float:
    """Aggregate experiment cost in core-hours (paper section A3's
    20483 -> 547 comparison): measured time x ranks, summed over runs."""
    total = 0.0
    idx = list(parameters).index(ranks_param) if ranks_param in parameters else None
    for key, profile in profiles.items():
        ranks = key[idx] if idx is not None else 1.0
        seconds = profile.total_time() * time_unit_seconds
        total += seconds * ranks / 3600.0
    if math.isnan(total):  # pragma: no cover - defensive
        raise ValueError("core-hour aggregation produced NaN")
    return total
