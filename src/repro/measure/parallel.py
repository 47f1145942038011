"""The measure runner: plan a design, execute its chunks, merge.

The paper's measurement campaigns are embarrassingly parallel: every
configuration of the design is an independent profiled run (benchbuild
structures its experiments the same way — independent, cacheable jobs
fanned out over workers).  :class:`ExperimentRunner` is the one runner
for every engine.  It plans the design once (configuration keys,
setups, the run-cache probe, repeated points dropped), cuts the pending
configurations into chunks — :func:`~repro.measure.batched.batch_chunks`
groups for a batch-capable engine, one configuration per chunk for a
scalar one — executes each chunk with
:func:`~repro.measure.batched.run_chunk`, inline or on a
``concurrent.futures`` process pool, and merges **in canonical design
order** (:func:`~repro.measure.experiment.merge_results_dense`).  Every
noise sample is drawn from a purely key-derived RNG stream
(:func:`~repro.measure.noise.rng_for`), so the measurements are
bit-identical for every engine, worker count and completion order.

Pool workers do not unpickle live
:class:`~repro.measure.experiment.Workload` objects (those may hold
caches, runtimes, and other process-local state); they rebuild the
workload from a :class:`WorkloadSpec` — a picklable (factory, args,
kwargs) triple — and memoize the built workload per process so the
program is constructed once per worker, not once per chunk.

An optional ``cache_dir`` — a :class:`~repro.store.LocalStore`, probed
with :func:`~repro.measure.io.cached_runs` — short-circuits
configurations that were already measured with identical inputs (program
content, configuration, instrumentation plan, execution config, noise
model, seed, engine, ...), making repeated sweeps and benchmark reruns
nearly free.
"""

from __future__ import annotations

import pathlib
import pickle
from concurrent.futures import ProcessPoolExecutor
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
    The runner and the campaign-service broker both key the ``runs``
    namespace with this function, so a configuration measured by either
    is a hit for both.  The engine enters by its registry identity
    (name plus import path), as in the measure-stage fingerprint:
    re-registering a name with another implementation misses the cache,
    and an unregistered name raises :class:`~repro.errors.RegistryError`
    here, before anything runs or is queued.
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


# ----------------------------------------------------------------------
# worker side

#: Per-process memo of built workloads, keyed by the pickled spec: each
#: worker constructs the program once and reuses it for every chunk it
#: is handed.
_WORKER_WORKLOADS: dict[bytes, Workload] = {}


def _workload_for(spec_blob: bytes) -> Workload:
    workload = _WORKER_WORKLOADS.get(spec_blob)
    if workload is None:
        workload = pickle.loads(spec_blob).build()
        _WORKER_WORKLOADS[spec_blob] = workload
    return workload


@dataclass(frozen=True)
class _ChunkTask:
    """One chunk of the design, shipped to a pool worker."""

    indices: tuple[int, ...]
    spec_blob: bytes
    configs: tuple[tuple[tuple[str, float], ...], ...]
    keys: tuple[ConfigKey, ...]
    plan: InstrumentationPlan
    noise: NoiseModel
    contention: ContentionModel
    repetitions: int
    seed: int
    engine: str


def _run_chunk_task(
    task: _ChunkTask,
) -> tuple[tuple[int, ...], list[ConfigRunResult]]:
    """Pool entry point: rebuild the workload, run one chunk."""
    workload = _workload_for(task.spec_blob)
    results = run_chunk(
        workload.program(),
        [workload.setup(dict(config)) for config in task.configs],
        task.keys,
        task.plan,
        task.noise,
        task.contention,
        task.repetitions,
        task.seed,
        task.engine,
    )
    return task.indices, results


# ----------------------------------------------------------------------
# driver side


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

    The one measure runner: any registered *engine* (default: the
    tree-walker, the serial oracle), ``n_jobs`` worker processes
    (``1`` executes inline: no pool, no pickling), and an optional run
    cache under *cache_dir*.  For any design ``run()`` returns
    bit-identical measurements for every engine and ``n_jobs``, because
    per-sample RNG streams depend only on ``(seed, function,
    configuration, repetition)`` and results merge in design order.  A
    repeated design point is measured once, at its first occurrence
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
    cache_dir: str | pathlib.Path | None = None

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        self._store = (
            LocalStore(self.cache_dir) if self.cache_dir is not None else None
        )
        #: Execution/cache counters of the most recent :meth:`run`.
        self.last_stats = RunStats()
        #: Lane accounting of the most recent :meth:`run`.
        self.last_lane_stats = LaneStats()

    def run(
        self, design: Iterable[Mapping[str, float]]
    ) -> tuple[Measurements, dict[ConfigKey, ProfileResult]]:
        """Execute the design; return measurements and per-config profiles."""
        parameters = tuple(self.workload.parameters)
        configs, keys = unique_configurations(parameters, design)
        program = self.workload.program()
        setups = [self.workload.setup(c) for c in configs]

        results: list[ConfigRunResult | None] = [None] * len(configs)
        if self._store is not None:
            fingerprints = configuration_fingerprints(
                self.workload,
                program,
                configs,
                setups,
                self.plan,
                self.noise,
                self.contention,
                self.repetitions,
                self.seed,
                self.engine,
            )
            hits = cached_runs(self._store, fingerprints)
            results = [hits.get(fp) for fp in fingerprints]
        pending = [i for i, result in enumerate(results) if result is None]

        if supports_batch(self.engine):
            chunks = batch_chunks(pending, setups, self.n_jobs)
        else:
            chunks = [[index] for index in pending]
        lanes = LaneStats()
        for chunk in chunks:
            _, _, stats = plan_lanes(
                [setups[i] for i in chunk], self.repetitions
            )
            lanes = lanes.merged(stats)

        if self.n_jobs == 1 or len(chunks) < 2:
            for chunk in chunks:
                chunk_results = run_chunk(
                    program,
                    [setups[i] for i in chunk],
                    [keys[i] for i in chunk],
                    self.plan,
                    self.noise,
                    self.contention,
                    self.repetitions,
                    self.seed,
                    self.engine,
                )
                for index, result in zip(chunk, chunk_results):
                    results[index] = result
        else:
            self._run_pool(configs, keys, chunks, results)
        if self._store is not None:
            for index in pending:
                store_run(self._store, fingerprints[index], results[index])

        self.last_stats = RunStats(
            executed=len(pending), cached=len(configs) - len(pending)
        )
        self.last_lane_stats = lanes
        return merge_results_dense(parameters, results)

    def _run_pool(
        self,
        configs: Sequence[Mapping[str, float]],
        keys: Sequence[ConfigKey],
        chunks: Sequence[Sequence[int]],
        results: list[ConfigRunResult | None],
    ) -> None:
        spec_blob = pickle.dumps(spec_of(self.workload))
        tasks = [
            _ChunkTask(
                indices=tuple(chunk),
                spec_blob=spec_blob,
                configs=tuple(
                    tuple(sorted(configs[i].items())) for i in chunk
                ),
                keys=tuple(keys[i] for i in chunk),
                plan=self.plan,
                noise=self.noise,
                contention=self.contention,
                repetitions=self.repetitions,
                seed=self.seed,
                engine=self.engine,
            )
            for chunk in chunks
        ]
        workers = min(self.n_jobs, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for indices, chunk_results in pool.map(_run_chunk_task, tasks):
                for index, result in zip(indices, chunk_results):
                    results[index] = result
