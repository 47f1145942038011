"""The measure runner: one plan, three executors, one merge.

The paper's measurement campaigns are embarrassingly parallel: every
configuration of the design is an independent profiled run (benchbuild
structures its experiments the same way — independent, cacheable jobs
fanned out over workers).  :class:`ExperimentRunner` is the one measure
planner for every engine and every executor.
:meth:`ExperimentRunner.prepare` plans a design once into a
:class:`MeasurePlan`: configuration keys and setups (a repeated design
point kept at its first occurrence), the run fingerprints whenever a
store or a scheduler is attached, the one ``has_many`` probe of the run
store (:func:`~repro.measure.io.cached_runs`), the pending
configurations in their :func:`~repro.measure.batched.batch_chunks`
groups, and the lane accounting.  One of three executors runs the
pending chunks:

* inline (``n_jobs == 1``): each chunk — a group on a batch engine,
  one configuration on a scalar one — through
  :func:`~repro.measure.batched.run_chunk`, in this process;
* the process pool (``n_jobs > 1``): a batch engine's groups split
  evenly across ``n_jobs``, each chunk shipped as its
  :class:`MeasureTask` plus its configurations to :func:`run_task`;
* a *scheduler*: the campaign service's
  :meth:`~repro.service.broker.Broker.run_plan` leases the groups to
  remote workers, which run each lease through :func:`run_task` too.

Every executor publishes each result to the run store as its chunk
lands, so an interrupted run keeps what it finished.  Only the runner
merges, **in canonical design order**
(:func:`~repro.measure.experiment.merge_results_dense`).  Every noise
sample is drawn from a purely key-derived RNG stream
(:func:`~repro.measure.noise.rng_for`), so the measurements are
bit-identical for every engine, executor, worker count and completion
order.

Pool processes and service workers do not unpickle live
:class:`~repro.measure.experiment.Workload` objects (those may hold
caches, runtimes, and other process-local state); they rebuild the
workload from a :class:`WorkloadSpec` — a picklable (factory, args,
kwargs) triple — and keep it in a bounded per-process memo, so the
program is constructed once per process, not once per chunk.

The run store — ``cache_dir``, a :class:`~repro.store.LocalStore` —
short-circuits configurations that were already measured with identical
inputs (program content, configuration, instrumentation plan, execution
config, noise model, seed, engine, ...), making repeated sweeps and
benchmark reruns nearly free.
"""

from __future__ import annotations

import pathlib
import pickle
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from ..interp import ENGINE_TREE, supports_batch
from ..ir.program import Program
from ..mpisim.contention import ContentionModel, NoContention
from ..registry import ENGINE_REGISTRY
from ..store import LocalStore
from .batched import LaneStats, batch_chunks, plan_lanes, run_chunk
from .experiment import (
    ConfigKey,
    ConfigRunResult,
    Measurements,
    RunSetup,
    Workload,
    config_key,
    merge_results_dense,
    unique_configurations,
)
from .instrumentation import InstrumentationPlan
from .io import cached_runs, program_hash, run_fingerprint, store_run
from .noise import GaussianNoise, NoiseModel
from .profiler import ProfileResult


@dataclass(frozen=True)
class WorkloadSpec:
    """A picklable recipe for building a workload in another process.

    ``factory`` must be importable by reference (a module-level class or
    function); ``args``/``kwargs`` are its picklable arguments.  Workload
    classes expose a :meth:`spec` method returning one of these; any
    other picklable workload object can ride along via :func:`spec_of`.
    """

    factory: Callable[..., Workload]
    args: tuple = ()
    kwargs: Mapping[str, object] = field(default_factory=dict)

    def build(self) -> Workload:
        """Construct a fresh workload instance."""
        return self.factory(*self.args, **dict(self.kwargs))


def workload_repr(workload: Workload) -> str:
    """Fingerprint of workload identity beyond the program content.

    Non-modeled defaults, the network model, and the execution config all
    change what ``setup()`` derives from the same configuration point, so
    they must participate in cache keys — both the per-configuration run
    cache here and the stage-artifact fingerprints of
    :mod:`repro.core.stages`.
    """
    parts = [
        f"name={getattr(workload, 'name', type(workload).__name__)}",
        f"parameters={tuple(workload.parameters)}",
    ]
    defaults = getattr(workload, "defaults", None)
    if defaults is not None:
        parts.append(f"defaults={sorted(defaults.items())}")
    for attr in ("network", "exec_config"):
        value = getattr(workload, attr, None)
        if value is not None:
            parts.append(f"{attr}={value!r}")
    return ";".join(parts)


def configuration_fingerprints(
    workload: Workload,
    program: Program,
    configs: Sequence[Mapping[str, float]],
    setups: Sequence[RunSetup],
    plan: InstrumentationPlan,
    noise: NoiseModel,
    contention: ContentionModel,
    repetitions: int,
    seed: int,
    engine: str,
) -> list[str]:
    """Run-cache keys of a design, one per configuration, in order.

    Each setup carries everything the workload derives from its
    configuration point (entry args, exec config, runtime/network
    parameters) — fingerprint the derived state, not just the point.
    The runner keys the ``runs`` namespace with this function for every
    executor, so a configuration measured in process, on the pool or by
    the campaign service is a hit for all three.  The engine enters by
    its registry identity (name plus import path), as in the
    measure-stage fingerprint: re-registering a name with another
    implementation misses the cache, and an unregistered name raises
    :class:`~repro.errors.RegistryError` here, before anything runs or
    is queued.
    """
    engine_identity = ENGINE_REGISTRY.identity(engine)
    digest = program_hash(program)
    identity = workload_repr(workload)
    return [
        run_fingerprint(
            digest,
            config,
            plan,
            exec_repr=";".join(
                [
                    f"args={sorted(setup.args.items())}",
                    f"ranks_per_node={setup.ranks_per_node}",
                    f"exec={setup.exec_config!r}",
                    f"runtime={getattr(setup.runtime, 'config', None)!r}",
                    f"entry={setup.entry!r}",
                ]
            ),
            noise_repr=repr(noise),
            contention_repr=repr(contention),
            repetitions=repetitions,
            seed=seed,
            workload_repr=identity,
            engine=engine_identity,
        )
        for config, setup in zip(configs, setups)
    ]


def _identity_workload(workload: Workload) -> Workload:
    return workload


def spec_of(workload: Workload) -> WorkloadSpec:
    """The workload's own spec when it has one, else a pickling fallback.

    The fallback ships the workload object itself (it must then be
    picklable); workloads with a ``spec()`` method are preferred because
    rebuilding from a factory avoids serializing cached programs.
    """
    spec = getattr(workload, "spec", None)
    if callable(spec):
        return spec()
    return WorkloadSpec(factory=_identity_workload, args=(workload,))




@dataclass(frozen=True)
class MeasureTask:
    """Everything a worker needs to execute a chunk of one design.

    The one chunk task: the process pool pickles it together with each
    chunk's configurations, and the campaign service encodes it
    (:mod:`repro.codec`) into every lease of a measure job, whose
    checkpoint key it enters.  Either way :func:`run_task` runs it.
    """

    workload_spec: WorkloadSpec
    plan: InstrumentationPlan
    noise: object
    contention: object
    repetitions: int
    seed: int
    engine: str


#: Built workloads a process keeps for reuse across chunks and jobs.
WORKLOAD_MEMO_LIMIT = 4

#: Built workloads keyed by their pickled spec, least recently used
#: first: each is built once per process and reused by every chunk that
#: names it, and the memo never outgrows ``WORKLOAD_MEMO_LIMIT`` however
#: many jobs the process serves.
_WORKLOAD_MEMO: "OrderedDict[bytes, Workload]" = OrderedDict()
_WORKLOAD_MEMO_LOCK = threading.Lock()


def _workload(spec: WorkloadSpec) -> Workload:
    key = pickle.dumps(spec)
    with _WORKLOAD_MEMO_LOCK:
        workload = _WORKLOAD_MEMO.get(key)
        if workload is not None:
            _WORKLOAD_MEMO.move_to_end(key)
            return workload
    workload = spec.build()
    with _WORKLOAD_MEMO_LOCK:
        _WORKLOAD_MEMO[key] = workload
        if len(_WORKLOAD_MEMO) > WORKLOAD_MEMO_LIMIT:
            _WORKLOAD_MEMO.popitem(last=False)
    return workload


def run_task(
    task: MeasureTask, configs: Sequence[Mapping[str, float]]
) -> list[ConfigRunResult]:
    """Run one chunk of *task*: its *configs*, in order.

    The chunk executor of the process pool and of the campaign service's
    workers: the workload comes from the task's spec (built once per
    process, :data:`WORKLOAD_MEMO_LIMIT` kept), the chunk runs through
    :func:`~repro.measure.batched.run_chunk`.
    """
    workload = _workload(task.workload_spec)
    parameters = tuple(workload.parameters)
    return run_chunk(
        workload.program(),
        [workload.setup(dict(config)) for config in configs],
        [config_key(parameters, config) for config in configs],
        task.plan,
        task.noise,
        task.contention,
        task.repetitions,
        task.seed,
        task.engine,
    )


@dataclass
class MeasurePlan:
    """A design planned by :meth:`ExperimentRunner.prepare`.

    ``results`` starts with the run store's hits; an executor fills the
    pending slots — the indices in ``groups`` — as its chunks land.
    ``groups`` are the pending configurations cut by
    :func:`~repro.measure.batched.batch_chunks`: the lanes of one group
    may share one tensor pass.
    """

    task: MeasureTask
    configs: list[dict[str, float]]
    keys: list[ConfigKey]
    setups: list[RunSetup]
    #: Run-store keys, one per configuration; None when neither a store
    #: nor a scheduler is attached.
    fingerprints: "list[str] | None"
    results: "list[ConfigRunResult | None]"
    groups: list[list[int]]
    lanes: LaneStats

    @property
    def pending(self) -> list[int]:
        """Design indices the executor must run, in design order."""
        return [index for group in self.groups for index in group]


@dataclass
class RunStats:
    """Where the results of the last run came from."""

    executed: int = 0
    cached: int = 0

    @property
    def total(self) -> int:
        return self.executed + self.cached


@dataclass
class ExperimentRunner:
    """Runs a design against a workload under one instrumentation plan.

    The one measure planner: any registered *engine* (default: the
    tree-walker, the serial oracle), ``n_jobs`` worker processes
    (``1`` executes inline: no pool, no pickling), an optional run store
    *cache_dir* (a directory or a :class:`~repro.store.LocalStore`), and
    an optional *scheduler* that runs the chunks instead.  For any
    design ``run()`` returns bit-identical measurements for every engine
    and executor, because per-sample RNG streams depend only on
    ``(seed, function, configuration, repetition)`` and results merge in
    design order.  A repeated design point is measured once, at its
    first occurrence
    (:func:`~repro.measure.experiment.unique_configurations`).
    """

    workload: Workload
    plan: InstrumentationPlan
    noise: NoiseModel = field(default_factory=GaussianNoise)
    contention: ContentionModel = field(default_factory=NoContention)
    repetitions: int = 5
    seed: int = 0
    #: Execution engine for the profiled runs.  Its registry identity is
    #: folded into cache fingerprints, so a cache populated by one
    #: engine is never served to another.
    engine: str = ENGINE_TREE
    n_jobs: int = 1
    cache_dir: "str | pathlib.Path | LocalStore | None" = None
    #: Runs a :class:`MeasurePlan`'s pending chunks instead of this
    #: process, publishing each result to its own run store — the
    #: campaign service's :meth:`~repro.service.broker.Broker.run_plan`,
    #: whose store is then *cache_dir*.  None runs inline or on the pool.
    scheduler: "Callable[[MeasurePlan], None] | None" = None

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        self._store = (
            self.cache_dir
            if self.cache_dir is None
            or isinstance(self.cache_dir, LocalStore)
            else LocalStore(self.cache_dir)
        )
        #: Execution/cache counters of the most recent :meth:`run`.
        self.last_stats = RunStats()
        #: Lane accounting of the most recent :meth:`run`.
        self.last_lane_stats = LaneStats()

    def run(
        self, design: Iterable[Mapping[str, float]]
    ) -> tuple[Measurements, dict[ConfigKey, ProfileResult]]:
        """Execute the design; return measurements and per-config profiles."""
        plan = self.prepare(design)
        if self.scheduler is not None:
            self.scheduler(plan)
        else:
            self._execute(plan)
        return self.collect(plan)

    def prepare(self, design: Iterable[Mapping[str, float]]) -> MeasurePlan:
        """Plan *design*: keys, setups, fingerprints, store probe, groups."""
        configs, keys = unique_configurations(
            tuple(self.workload.parameters), design
        )
        setups = [self.workload.setup(c) for c in configs]
        fingerprints = None
        results: "list[ConfigRunResult | None]" = [None] * len(configs)
        if self._store is not None or self.scheduler is not None:
            fingerprints = configuration_fingerprints(
                self.workload,
                self.workload.program(),
                configs,
                setups,
                self.plan,
                self.noise,
                self.contention,
                self.repetitions,
                self.seed,
                self.engine,
            )
        if self._store is not None:
            hits = cached_runs(self._store, fingerprints)
            results = [hits.get(fp) for fp in fingerprints]
        pending = [i for i, result in enumerate(results) if result is None]
        groups = batch_chunks(pending, setups)
        # A batch engine dedups lanes within a group; a scalar engine
        # runs every configuration.
        lanes = LaneStats()
        for chunk in (
            groups if supports_batch(self.engine) else [[i] for i in pending]
        ):
            lanes = lanes.merged(
                plan_lanes([setups[i] for i in chunk], self.repetitions)[2]
            )
        task = MeasureTask(
            spec_of(self.workload),
            self.plan,
            self.noise,
            self.contention,
            self.repetitions,
            self.seed,
            self.engine,
        )
        return MeasurePlan(
            task, configs, keys, setups, fingerprints, results, groups, lanes
        )

    def collect(
        self, plan: MeasurePlan
    ) -> tuple[Measurements, dict[ConfigKey, ProfileResult]]:
        """Merge an executed *plan* in design order and record its stats."""
        executed = len(plan.pending)
        self.last_stats = RunStats(
            executed=executed, cached=len(plan.configs) - executed
        )
        self.last_lane_stats = plan.lanes
        return merge_results_dense(
            tuple(self.workload.parameters), plan.results
        )

    def _execute(self, plan: MeasurePlan) -> None:
        """Run the pending chunks inline or on the process pool."""
        if supports_batch(self.engine):
            chunks = batch_chunks(plan.pending, plan.setups, self.n_jobs)
        else:
            chunks = [[index] for index in plan.pending]
        if self.n_jobs == 1 or len(chunks) < 2:
            program = self.workload.program()
            for chunk in chunks:
                self._land(
                    plan,
                    chunk,
                    run_chunk(
                        program,
                        [plan.setups[i] for i in chunk],
                        [plan.keys[i] for i in chunk],
                        self.plan,
                        self.noise,
                        self.contention,
                        self.repetitions,
                        self.seed,
                        self.engine,
                    ),
                )
            return
        workers = min(self.n_jobs, len(chunks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(
                    run_task, plan.task, [plan.configs[i] for i in chunk]
                ): chunk
                for chunk in chunks
            }
            for future in as_completed(futures):
                self._land(plan, futures[future], future.result())

    def _land(
        self,
        plan: MeasurePlan,
        chunk: Sequence[int],
        results: Sequence[ConfigRunResult],
    ) -> None:
        """Fill a finished chunk's slots and publish its results."""
        for index, result in zip(chunk, results):
            plan.results[index] = result
            if self._store is not None:
                store_run(self._store, plan.fingerprints[index], result)
