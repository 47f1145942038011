"""The campaign stage graph: named stages, fingerprints, resume.

The paper's pipeline (Figure 2) is a DAG of nine stages::

    static ─┐                       ┌─> plan ──┐
    taint ──┼─> classify            │          ├─> measure ─> model ─> validate
        │   └───────────> design ──┘          │
        └─> volumes ──────┘                    │

Each :class:`Stage` declares its upstream artifacts, the campaign
configuration that participates in its identity, and how its output
serializes (its artifact type, encoded by :mod:`repro.codec`).  A
:class:`Campaign` runs the DAG in order, fingerprints every stage from
its config plus its parents' fingerprints, and — when a workspace is
attached — persists each artifact and **resumes**: a rerun whose
fingerprint is unchanged loads the artifact instead of recomputing, so
editing only modeling parameters re-fits models without re-measuring
anything.

The stage *computations* are module-level functions shared with
:class:`~repro.core.pipeline.PerfTaintPipeline` (now a thin wrapper over
``Campaign``), so both entry points produce bit-identical results.  The
measure stage is planned and merged by the one
:class:`~repro.measure.parallel.ExperimentRunner`; ``Campaign.scheduler``
only says who runs its chunks (in process, or the campaign service's
broker), so it is not part of any fingerprint.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from ..codec import decode, encode
from ..errors import ArtifactError, CampaignSpecError, PipelineError, ReproError
from ..interp import DEFAULT_MEASUREMENT_ENGINE
from ..libdb.database import LibraryDatabase
from ..libdb.mpi_models import MPI_DATABASE
from ..measure.experiment import ConfigKey, Measurements, Workload
from ..measure.instrumentation import (
    InstrumentationMode,
    InstrumentationPlan,
    default_filter_plan,
    full_plan,
    none_plan,
    taint_filter_plan,
)
from ..measure.io import program_hash
from ..measure.noise import GaussianNoise, NoiseModel
from ..measure.parallel import ExperimentRunner, MeasurePlan, workload_repr
from ..measure.profiler import ProfileResult
from ..modeling.modeler import Modeler
from ..mpisim.contention import ContentionModel, NoContention
from ..registry import (
    CONTENTION_REGISTRY,
    DESIGN_REGISTRY,
    ENGINE_REGISTRY,
    MODEL_BACKEND_REGISTRY,
    NOISE_REGISTRY,
    WORKLOAD_REGISTRY,
    Registry,
    finite_real,
    load_builtin_components,
)
from ..staticanalysis.prune import StaticReport, analyze_program
from ..store import STAGE_NAMESPACE, LocalStore, stage_key
from ..taint.engine import TaintEngine
from ..taint.policy import FULL_POLICY, PropagationPolicy
from ..taint.report import TaintReport
from ..volume.depclass import ProgramDependencies, classify_program
from ..volume.loopnest import VolumeReport, compute_volumes
from . import artifacts as art
from .classify import Classification, classify_functions
from .experiment_design import DesignDecision
from .hybrid import HybridModeler, ModelComparison
from .validation import ContentionFinding, detect_contention

if TYPE_CHECKING:
    from ..service.remote_store import RemoteStore


# ----------------------------------------------------------------------
# stage computations (shared by Campaign and PerfTaintPipeline)


def run_static_stage(program, library: LibraryDatabase) -> StaticReport:
    """Compile-time phase (paper 5.1)."""
    return analyze_program(program, library.is_relevant)


def run_taint_stage(
    workload: Workload,
    program,
    policy: PropagationPolicy,
    library: LibraryDatabase,
) -> TaintReport:
    """Dynamic taint run on the workload's representative config.

    A workload without a usable ``taint_config()`` raises a typed
    :class:`~repro.errors.PipelineError` naming the workload instead of
    an ``AttributeError`` mid-stage.
    """
    name = getattr(workload, "name", type(workload).__name__)
    taint_config = getattr(workload, "taint_config", None)
    if not callable(taint_config):
        raise PipelineError(
            "taint",
            f"workload '{name}' does not provide a taint_config() method; "
            "the taint stage needs a small representative configuration "
            "(see the Workload protocol in repro.measure.experiment)",
        )
    config = taint_config()
    if not isinstance(config, Mapping):
        raise PipelineError(
            "taint",
            f"workload '{name}' returned a non-mapping taint_config() "
            f"({type(config).__name__}); expected a parameter -> value "
            "mapping",
        )
    setup = workload.setup(dict(config))
    taint = TaintEngine(
        program,
        runtime=setup.runtime,
        config=setup.exec_config,
        policy=policy,
        library_taint=library,
    )
    result = taint.analyze(setup.args, workload.sources(), entry=setup.entry)
    return result.report


def run_volumes_stage(
    program, taint: TaintReport
) -> tuple[VolumeReport, ProgramDependencies]:
    """Symbolic iteration volumes plus dependency classification."""
    volumes = compute_volumes(program, taint)
    deps = classify_program(volumes.inclusive, volumes.program)
    return volumes, deps


def run_classify_stage(
    program, static: StaticReport, taint: TaintReport
) -> Classification:
    """Two-phase function classification (paper Table 2)."""
    return classify_functions(program, static, taint)


def run_design_stage(
    strategy: str,
    parameter_values: Mapping[str, Sequence[float]],
    taint: TaintReport,
    deps: ProgramDependencies,
    volumes: VolumeReport,
) -> DesignDecision:
    """Experiment design via the registered *strategy*."""
    design = DESIGN_REGISTRY.get(strategy)
    return design(parameter_values, taint, deps, volumes.program)


def run_plan_stage(
    mode: InstrumentationMode,
    program,
    taint: TaintReport | None = None,
    static: StaticReport | None = None,
) -> InstrumentationPlan:
    """Instrumentation plan for the requested mode."""
    if mode is InstrumentationMode.FULL:
        return full_plan(program)
    if mode is InstrumentationMode.DEFAULT_FILTER:
        return default_filter_plan(program)
    if mode is InstrumentationMode.NONE:
        return none_plan()
    if taint is None:
        raise PipelineError(
            "plan",
            "the taint-filter plan needs the taint stage's report",
            missing_artifact="taint",
        )
    return taint_filter_plan(program, taint, static)


def run_measure_stage(
    workload: Workload,
    design: Sequence[Mapping[str, float]],
    plan: InstrumentationPlan,
    *,
    noise: NoiseModel,
    contention: ContentionModel,
    repetitions: int,
    seed: int,
    n_jobs: int = 1,
    cache_dir: "str | LocalStore | None" = None,
    engine: str = DEFAULT_MEASUREMENT_ENGINE,
    scheduler: "Callable[[MeasurePlan], None] | None" = None,
    telemetry: "dict | None" = None,
) -> tuple[Measurements, dict[ConfigKey, ProfileResult]]:
    """Run the instrumented experiments.

    The one :class:`~repro.measure.parallel.ExperimentRunner` plans the
    design against the run store *cache_dir* and merges it; its chunks
    run on *engine* — a batch-capable engine (``supports_batch``
    registry metadata; the default ``vectorized`` is one) as one tensor
    pass per chunk, a scalar engine (the tree-walker ``tree``) one
    configuration at a time — inline, on ``n_jobs`` processes, or
    wherever *scheduler* sends them (the campaign service's
    ``Broker.run_plan``).  Every engine and executor produces
    bit-identical measurements.

    A *telemetry* dict, when given, is filled in place with execution
    accounting: the runner's lane plan under ``"lanes"``, where its
    results came from under ``"runs"``.  Telemetry never enters any
    stage fingerprint.
    """
    runner = ExperimentRunner(
        workload=workload,
        plan=plan,
        noise=noise,
        contention=contention,
        repetitions=repetitions,
        seed=seed,
        engine=engine,
        n_jobs=n_jobs,
        cache_dir=cache_dir,
        scheduler=scheduler,
    )
    value = runner.run(design)
    if telemetry is not None:
        lanes = runner.last_lane_stats
        telemetry["lanes"] = {
            "planned": lanes.planned,
            "executed": lanes.executed,
            "deduped": lanes.deduped,
        }
        runs = runner.last_stats
        telemetry["runs"] = {"executed": runs.executed, "cached": runs.cached}
    return value


def run_model_stage(
    measurements: Measurements,
    taint: TaintReport,
    volumes: VolumeReport | None,
    *,
    modeler: Modeler,
    compare_black_box: bool = False,
    cov_threshold: "float | None" = 0.1,
) -> dict[str, ModelComparison]:
    """Hybrid model generation (paper 4.5).  The model search is
    ``modeler.backend`` (``batched`` stacked-LAPACK by default; ``loop``
    is the per-hypothesis reference oracle — both select identical
    models)."""
    hybrid = HybridModeler(modeler=modeler)
    return hybrid.model_all(
        measurements,
        taint,
        volumes,
        compare_black_box=compare_black_box,
        cov_threshold=cov_threshold,
    )


def run_validate_stage(
    measurements: Measurements,
    models: Mapping[str, ModelComparison],
    taint: TaintReport,
) -> list[ContentionFinding]:
    """Contention detection over black-box models (paper C1)."""
    candidate_models = {
        fn: (cmp.black_box or cmp.hybrid) for fn, cmp in models.items()
    }
    return detect_contention(measurements, candidate_models, taint)


# ----------------------------------------------------------------------
# stage declarations


@dataclass(frozen=True)
class Stage:
    """One named pipeline stage: typed inputs/outputs plus persistence."""

    name: str
    #: Upstream artifact names this stage consumes.
    inputs: tuple[str, ...]
    description: str
    #: ``compute(campaign, artifacts) -> artifact value``.
    compute: Callable
    #: Campaign configuration participating in this stage's fingerprint.
    config: Callable
    #: Artifact value -> JSON-able payload.
    to_payload: Callable
    #: JSON-able payload -> artifact value.
    from_payload: Callable


def _values_repr(values: Mapping[str, Sequence[float]]) -> list:
    return sorted((str(k), [float(v) for v in vs]) for k, vs in values.items())


def _codec(artifact: object) -> dict:
    """``to_payload``/``from_payload`` of a stage whose artifact has the
    type *artifact* (:mod:`repro.codec`)."""
    return {
        "to_payload": lambda value: encode(value, artifact),
        "from_payload": lambda payload: decode(artifact, payload),
    }


#: The paper's stage graph, in topological order.  ``repro stages`` lists
#: this; :class:`Campaign` executes it.
STAGES: dict[str, Stage] = {
    stage.name: stage
    for stage in (
        Stage(
            name="static",
            inputs=(),
            description="compile-time pruning (paper 5.1)",
            compute=lambda c, a: run_static_stage(c.program(), c.library),
            config=lambda c: {
                "program": c.program_fingerprint(),
                "library": c.library.fingerprint(),
            },
            **_codec(StaticReport),
        ),
        Stage(
            name="taint",
            inputs=(),
            description="dynamic taint run on the representative config",
            compute=lambda c, a: run_taint_stage(
                c.workload, c.program(), c.policy, c.library
            ),
            # The propagation policy is part of the fingerprint: cached
            # taint artifacts never cross policies.
            config=lambda c: {
                "program": c.program_fingerprint(),
                "workload": workload_repr(c.workload),
                "policy": repr(c.policy),
                "library": c.library.fingerprint(),
            },
            **_codec(TaintReport),
        ),
        Stage(
            name="volumes",
            inputs=("taint",),
            description="symbolic volumes + dependency classes (4.2-4.3, A2)",
            compute=lambda c, a: run_volumes_stage(c.program(), a["taint"]),
            config=lambda c: {"program": c.program_fingerprint()},
            **_codec(tuple[VolumeReport, ProgramDependencies]),
        ),
        Stage(
            name="classify",
            inputs=("static", "taint"),
            description="two-phase function classification (Table 2)",
            compute=lambda c, a: run_classify_stage(
                c.program(), a["static"], a["taint"]
            ),
            config=lambda c: {"program": c.program_fingerprint()},
            **_codec(Classification),
        ),
        Stage(
            name="design",
            inputs=("taint", "volumes"),
            description="taint-informed experiment design (A1/A2)",
            compute=lambda c, a: run_design_stage(
                c.design_strategy,
                c.parameter_values,
                a["taint"],
                a["volumes"][1],
                a["volumes"][0],
            ),
            config=lambda c: {
                "values": _values_repr(c.parameter_values),
                "strategy": DESIGN_REGISTRY.identity(c.design_strategy),
            },
            **_codec(DesignDecision),
        ),
        Stage(
            name="plan",
            inputs=("taint", "static"),
            description="selective instrumentation plan (A3)",
            compute=lambda c, a: run_plan_stage(
                c.mode, c.program(), a["taint"], a["static"]
            ),
            config=lambda c: {
                "program": c.program_fingerprint(),
                "mode": c.mode.value,
            },
            **_codec(InstrumentationPlan),
        ),
        Stage(
            name="measure",
            inputs=("design", "plan"),
            description="instrumented experiments with noise/contention",
            compute=lambda c, a: run_measure_stage(
                c.workload,
                a["design"].configurations,
                a["plan"],
                noise=c.noise,
                contention=c.contention,
                repetitions=c.repetitions,
                seed=c.seed,
                n_jobs=c.n_jobs,
                cache_dir=c.cache_dir,
                engine=c.engine,
                scheduler=c.scheduler,
                telemetry=c.measure_telemetry,
            ),
            config=lambda c: {
                "workload": workload_repr(c.workload),
                "program": c.program_fingerprint(),
                "noise": repr(c.noise),
                "contention": repr(c.contention),
                "repetitions": int(c.repetitions),
                "seed": int(c.seed),
                "engine": ENGINE_REGISTRY.identity(c.engine),
            },
            **_codec(tuple[Measurements, dict[ConfigKey, ProfileResult]]),
        ),
        Stage(
            name="model",
            inputs=("measure", "taint", "volumes"),
            description="hybrid PMNF modeling under taint priors (4.5)",
            compute=lambda c, a: run_model_stage(
                a["measure"][0],
                a["taint"],
                a["volumes"][0],
                modeler=c.modeler,
                compare_black_box=c.compare_black_box,
                cov_threshold=c.cov_threshold,
            ),
            # The backend's registry identity (import path, not just the
            # name) is part of the fingerprint — consistent with how
            # engine identity is folded into the measure/taint stages —
            # so cached model artifacts never cross search backends.
            config=lambda c: {
                "modeler": repr(c.modeler),
                "model_backend": MODEL_BACKEND_REGISTRY.identity(
                    c.modeler.backend
                ),
                "compare_black_box": bool(c.compare_black_box),
                "cov_threshold": (
                    float(c.cov_threshold)
                    if c.cov_threshold is not None
                    else None
                ),
            },
            **_codec(dict[str, ModelComparison]),
        ),
        Stage(
            name="validate",
            inputs=("measure", "model", "taint"),
            description="contention detection over black-box models (C1)",
            compute=lambda c, a: run_validate_stage(
                a["measure"][0], a["model"], a["taint"]
            ),
            config=lambda c: {},
            **_codec(list[ContentionFinding]),
        ),
    )
}


# ----------------------------------------------------------------------
# the campaign


@dataclass
class Campaign:
    """A declarative, resumable end-to-end run over one workload.

    The successor of hand-wiring :class:`PerfTaintPipeline` stage calls:
    configuration is data (constructor fields or :meth:`from_spec` /
    :meth:`from_toml` mappings), execution is the stage DAG, and an
    optional *workspace* makes every stage artifact persistent and the
    whole campaign resumable.
    """

    workload: Workload
    parameter_values: Mapping[str, Sequence[float]]
    mode: InstrumentationMode = InstrumentationMode.TAINT_FILTER
    #: Registered design-strategy name (see ``repro.registry``).
    design_strategy: str = "reduced"
    library: LibraryDatabase = field(
        default_factory=lambda: MPI_DATABASE.copy()
    )
    policy: PropagationPolicy = FULL_POLICY
    noise: NoiseModel = field(default_factory=GaussianNoise)
    contention: ContentionModel = field(default_factory=NoContention)
    modeler: Modeler = field(default_factory=Modeler)
    repetitions: int = 5
    seed: int = 0
    n_jobs: int = 1
    #: Per-configuration run store (below stage granularity): a
    #: directory or a :class:`~repro.store.LocalStore`.
    cache_dir: "str | LocalStore | None" = None
    engine: str = DEFAULT_MEASUREMENT_ENGINE
    compare_black_box: bool = False
    cov_threshold: "float | None" = 0.1
    #: Stage-artifact workspace: a store (:class:`~repro.store.LocalStore`
    #: or :class:`~repro.service.remote_store.RemoteStore`) or a directory
    #: opened as a ``LocalStore``; None disables persistence and resume.
    workspace: "LocalStore | RemoteStore | str | pathlib.Path | None" = None
    #: Who runs the measure stage's chunks: None runs them in process
    #: (inline or on ``n_jobs`` processes); on a campaign server it is
    #: the broker's ``run_plan``, which leases the runner's plan to
    #: workers and publishes to the store given as ``cache_dir``.  Every
    #: executor is bit-identical, so this field is not part of any stage
    #: fingerprint — local and distributed campaigns share cache and
    #: workspace entries.
    scheduler: "Callable[[MeasurePlan], None] | None" = None

    def __post_init__(self) -> None:
        if isinstance(self.mode, str):
            self.mode = InstrumentationMode(self.mode)
        if isinstance(self.workspace, (str, pathlib.Path)):
            self.workspace = LocalStore(self.workspace)
        self._program = None
        #: Artifacts of the most recent :meth:`run`, keyed by stage name.
        self.artifacts: dict[str, object] = {}
        #: Stage fingerprints of the most recent :meth:`run`.
        self.fingerprints: dict[str, str] = {}
        #: Per-stage provenance of the most recent :meth:`run`:
        #: ``"computed"`` or ``"resumed"``.
        self.stage_stats: dict[str, str] = {}
        #: Measure-stage execution accounting of the most recent run
        #: (lane plan etc.); never part of any stage fingerprint.
        self.measure_telemetry: dict = {}

    # -- memoized workload state ---------------------------------------

    def program(self):
        """The workload's program, asked for once per campaign.  A
        built-in workload returns its app's one shared program, so every
        campaign of a process reuses that program's call graph, digest,
        loop plans and vectorized lowering."""
        if self._program is None:
            self._program = self.workload.program()
        return self._program

    def program_fingerprint(self) -> str:
        """Content hash of the workload's program (memoised on it)."""
        return program_hash(self.program())

    # -- fingerprints -----------------------------------------------------

    def stage_fingerprint(
        self, stage: Stage, parents: Mapping[str, str]
    ) -> str:
        """Content fingerprint of one stage's upcoming run."""
        return art.artifact_fingerprint(
            {
                "stage": stage.name,
                "version": art.ARTIFACT_VERSION,
                "config": stage.config(self),
                "parents": {name: parents[name] for name in stage.inputs},
            }
        )

    # -- execution ---------------------------------------------------------

    def run_stage(self, stage: Stage) -> object:
        """Run (or resume) one stage, artifacts of its inputs being ready."""
        fingerprint = self.stage_fingerprint(stage, self.fingerprints)
        self.fingerprints[stage.name] = fingerprint
        key = stage_key(stage.name, fingerprint)
        if self.workspace is not None:
            payload = self.workspace.get(STAGE_NAMESPACE, key)
            if payload is not None:
                try:
                    value = stage.from_payload(payload)
                except ArtifactError:
                    pass  # a miss: recomputed, and overwritten below
                else:
                    self.artifacts[stage.name] = value
                    self.stage_stats[stage.name] = "resumed"
                    return value
        value = stage.compute(self, self.artifacts)
        self.artifacts[stage.name] = value
        self.stage_stats[stage.name] = "computed"
        if self.workspace is not None:
            self.workspace.put(STAGE_NAMESPACE, key, stage.to_payload(value))
        return value

    def run(self):
        """Run the full DAG; returns a
        :class:`~repro.core.pipeline.PerfTaintResult`."""
        self.artifacts = {}
        self.fingerprints = {}
        self.stage_stats = {}
        self.measure_telemetry = {}
        for stage in STAGES.values():
            missing = [n for n in stage.inputs if n not in self.artifacts]
            if missing:  # pragma: no cover - graph is declared in order
                raise PipelineError(
                    stage.name,
                    "upstream artifact not available",
                    missing_artifact=missing[0],
                )
            self.run_stage(stage)
        return self.result()

    def result(self):
        """Assemble the classic result object from the stage artifacts."""
        from .pipeline import PerfTaintResult

        missing = [n for n in STAGES if n not in self.artifacts]
        if missing:
            raise PipelineError(
                "result",
                "campaign has not produced every stage artifact; "
                "call run() first",
                missing_artifact=missing[0],
            )
        volumes, dependencies = self.artifacts["volumes"]
        measurements, profiles = self.artifacts["measure"]
        return PerfTaintResult(
            static=self.artifacts["static"],
            taint=self.artifacts["taint"],
            volumes=volumes,
            dependencies=dependencies,
            classification=self.artifacts["classify"],
            design=self.artifacts["design"],
            plan=self.artifacts["plan"],
            measurements=measurements,
            profiles=profiles,
            models=self.artifacts["model"],
            contention_findings=self.artifacts["validate"],
        )

    # -- provenance ---------------------------------------------------------

    @property
    def computed_stages(self) -> tuple[str, ...]:
        """Stages the last run actually executed."""
        return tuple(
            n for n, how in self.stage_stats.items() if how == "computed"
        )

    @property
    def resumed_stages(self) -> tuple[str, ...]:
        """Stages the last run loaded from the workspace."""
        return tuple(
            n for n, how in self.stage_stats.items() if how == "resumed"
        )

    def stats_line(self) -> str:
        """One-line provenance summary of the last run."""
        return (
            f"stages: {len(self.stage_stats)} total, "
            f"{len(self.computed_stages)} computed, "
            f"{len(self.resumed_stages)} resumed"
        )

    # -- declarative construction -----------------------------------------

    #: Keys a campaign spec may contain.
    SPEC_KEYS = frozenset(
        {
            "app",
            "parameters",
            "mode",
            "design",
            "engine",
            "jobs",
            "seed",
            "repetitions",
            "noise",
            "contention",
            "compare_black_box",
            "cov_threshold",
            "workspace",
            "cache_dir",
        }
    )

    @classmethod
    def from_spec(
        cls,
        spec: Mapping,
        workspace: "LocalStore | RemoteStore | str | pathlib.Path | None" = None,
    ) -> "Campaign":
        """Build a campaign from a plain mapping (a parsed TOML spec).

        Required keys: ``app`` (a registered workload name) and
        ``parameters`` (name -> list of finite numbers > 0).  Optional:
        ``mode``, ``design``, ``engine``, ``jobs``, ``seed``,
        ``repetitions``, ``noise``/``contention`` (a registered name, or
        a table whose ``model`` key names one and whose remaining keys
        are constructor arguments), ``compare_black_box`` (a bool),
        ``cov_threshold`` (a finite number >= 0, or ``"none"`` to
        disable the CoV screen), ``workspace``, ``cache_dir`` (directory
        paths).  The *workspace* argument overrides the spec key.  Every
        value is checked here, before any stage runs: junk raises
        :class:`CampaignSpecError` (:class:`RegistryError` for an
        unknown component name).
        """
        load_builtin_components()
        if not isinstance(spec, Mapping):
            raise CampaignSpecError(
                f"campaign spec must be a mapping, got {type(spec).__name__}"
            )
        data = dict(spec)
        unknown = sorted(set(data) - cls.SPEC_KEYS)
        if unknown:
            raise CampaignSpecError(
                f"unknown spec key(s): {', '.join(unknown)} "
                f"(valid keys: {', '.join(sorted(cls.SPEC_KEYS))})"
            )

        app = data.get("app")
        if not isinstance(app, str) or not app:
            raise CampaignSpecError("spec needs an 'app' (a workload name)")
        raw_values = data.get("parameters")
        if not isinstance(raw_values, Mapping) or not raw_values:
            raise CampaignSpecError(
                "spec needs a non-empty 'parameters' table "
                "(name -> list of values)"
            )
        values: dict[str, list[float]] = {}
        for name, entries in raw_values.items():
            if not isinstance(entries, (list, tuple)) or not entries:
                raise CampaignSpecError(
                    f"parameter '{name}' needs a non-empty value list"
                )
            # Model terms take log2 of every value: only positive,
            # finite numbers make a parameter.
            reals = [finite_real(v) for v in entries]
            if any(v is None or v <= 0 for v in reals):
                raise CampaignSpecError(
                    f"parameter '{name}' needs finite numbers > 0, "
                    f"got {entries!r}"
                )
            values[str(name)] = reals

        factory = WORKLOAD_REGISTRY.get(app)
        workload = factory(parameters=tuple(values))
        try:
            workload.setup({name: vals[0] for name, vals in values.items()})
        except KeyError as exc:
            raise CampaignSpecError(
                f"app '{app}' needs parameter {exc.args[0]!r}, which the "
                f"spec's parameters ({', '.join(values)}) do not give"
            ) from None

        mode_name = data.get("mode", InstrumentationMode.TAINT_FILTER.value)
        try:
            mode = InstrumentationMode(mode_name)
        except ValueError:
            valid = ", ".join(m.value for m in InstrumentationMode)
            raise CampaignSpecError(
                f"unknown mode {mode_name!r} (valid modes: {valid})"
            ) from None

        design = _spec_name(data, "design", "reduced", DESIGN_REGISTRY)
        engine = _spec_name(
            data, "engine", DEFAULT_MEASUREMENT_ENGINE, ENGINE_REGISTRY
        )

        cov_threshold = data.get("cov_threshold", 0.1)
        if isinstance(cov_threshold, str) and cov_threshold.lower() == "none":
            cov_threshold = None
        elif cov_threshold is not None:
            threshold = finite_real(cov_threshold)
            if threshold is None or threshold < 0:
                raise CampaignSpecError(
                    "cov_threshold must be a finite number >= 0 or 'none', "
                    f"got {cov_threshold!r}"
                )
            cov_threshold = threshold

        compare_black_box = data.get("compare_black_box", False)
        if not isinstance(compare_black_box, bool):
            raise CampaignSpecError(
                "spec key 'compare_black_box' must be true or false, "
                f"got {compare_black_box!r}"
            )

        if workspace is None:
            workspace = _spec_path(data, "workspace")

        return cls(
            workload=workload,
            parameter_values=values,
            mode=mode,
            design_strategy=design,
            noise=_component_from_spec(
                NOISE_REGISTRY, data.get("noise", "gaussian")
            ),
            contention=_component_from_spec(
                CONTENTION_REGISTRY, data.get("contention", "none")
            ),
            repetitions=_spec_int(data, "repetitions", 5, minimum=1),
            seed=_spec_int(data, "seed", 0),
            n_jobs=_spec_int(data, "jobs", 1, minimum=1),
            cache_dir=_spec_path(data, "cache_dir"),
            engine=engine,
            compare_black_box=compare_black_box,
            cov_threshold=cov_threshold,
            workspace=workspace,
        )

    @classmethod
    def from_toml(
        cls,
        path: "str | pathlib.Path",
        workspace: "LocalStore | RemoteStore | str | pathlib.Path | None" = None,
    ) -> "Campaign":
        """Build a campaign from a spec file (see :meth:`read_spec` and
        :meth:`from_spec`)."""
        return cls.from_spec(cls.read_spec(path), workspace=workspace)

    @staticmethod
    def read_spec(path: "str | pathlib.Path") -> dict:
        """The spec mapping in a TOML file, or in a JSON file when its
        name ends in ``.json``; every failure is a
        :class:`~repro.errors.CampaignSpecError`."""
        if pathlib.Path(path).suffix.lower() == ".json":
            import json

            load, kind, invalid = json.load, "JSON", ValueError
        else:
            try:
                import tomllib
            except ModuleNotFoundError:  # Python < 3.11
                try:
                    import tomli as tomllib
                except ModuleNotFoundError:
                    raise CampaignSpecError(
                        "reading TOML specs needs Python >= 3.11 (stdlib "
                        "tomllib) or the 'tomli' package; alternatively "
                        "write the spec as JSON"
                    ) from None
            load, kind = tomllib.load, "TOML"
            invalid = tomllib.TOMLDecodeError
        try:
            with open(path, "rb") as handle:
                data = load(handle)
        except OSError as exc:
            raise CampaignSpecError(
                f"cannot read spec file {str(path)!r}: {exc}"
            ) from exc
        except invalid as exc:
            raise CampaignSpecError(
                f"spec file {str(path)!r} is not valid {kind}: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise CampaignSpecError(
                f"spec file {str(path)!r} must contain a mapping, got "
                f"{type(data).__name__}"
            )
        return data


def _spec_int(
    data: Mapping, key: str, default: int, minimum: "int | None" = None
) -> int:
    """Integer spec value with a typed error on junk: booleans, strings
    and non-integral floats (``2.0`` is accepted as 2)."""
    value = data.get(key, default)
    number = finite_real(value)
    if number is None or not number.is_integer():
        raise CampaignSpecError(
            f"spec key '{key}' must be an integer, got {value!r}"
        )
    value = int(value)
    if minimum is not None and value < minimum:
        raise CampaignSpecError(
            f"spec key '{key}' must be >= {minimum}, got {value}"
        )
    return value


def _spec_name(data: Mapping, key: str, default: str, registry: Registry) -> str:
    """A registered component name (:class:`RegistryError` listing the
    valid names when it is not one)."""
    name = data.get(key, default)
    if not isinstance(name, str):
        raise CampaignSpecError(
            f"spec key '{key}' must name a registered {registry.kind}, "
            f"got {name!r}"
        )
    registry.entry(name)
    return name


def _spec_path(data: Mapping, key: str) -> "str | None":
    """A directory path spec value: absent, or a non-empty string."""
    value = data.get(key)
    if value is not None and (not isinstance(value, str) or not value):
        raise CampaignSpecError(
            f"spec key '{key}' must be a directory path, got {value!r}"
        )
    return value


def _component_from_spec(registry: Registry, spec: object):
    """Instantiate a registered component from a spec value.

    Accepts a bare name (``"gaussian"``) or a table whose ``model`` key
    names the component and whose remaining keys are constructor
    arguments (``{model = "gaussian", relative_sigma = 0.05}``).
    """
    if isinstance(spec, str):
        return registry.create(spec)
    if isinstance(spec, Mapping):
        kwargs = dict(spec)
        name = kwargs.pop("model", None)
        if not isinstance(name, str) or not name:
            raise CampaignSpecError(
                f"a {registry.kind} table needs a 'model' key naming a "
                f"registered {registry.kind} "
                f"(registered: {', '.join(registry.names())})"
            )
        factory = registry.get(name)
        try:
            return factory(**kwargs)
        except (TypeError, ValueError, ReproError) as exc:
            raise CampaignSpecError(
                f"bad arguments for {registry.kind} '{name}': {exc}"
            ) from None
    raise CampaignSpecError(
        f"a {registry.kind} spec must be a name or a table, "
        f"got {type(spec).__name__}"
    )
