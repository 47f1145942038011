"""Parallel, cached experiment execution.

The paper's measurement campaigns are embarrassingly parallel: every
configuration of the design is an independent profiled run (benchbuild
structures its experiments the same way — independent, cacheable jobs
fanned out over workers).  This module fans configurations out over a
``concurrent.futures`` process pool and merges the results **in canonical
design order**, with every noise sample drawn from a purely key-derived
RNG stream (:func:`~repro.measure.noise.rng_for`) — so the measurements
are bit-identical regardless of worker count or completion order.

Workers do not unpickle live :class:`~repro.measure.experiment.Workload`
objects (those may hold caches, runtimes, and other process-local state);
they rebuild the workload from a :class:`WorkloadSpec` — a picklable
(factory, args, kwargs) triple — and memoize the built workload per
process so the program is constructed once per worker, not once per
configuration.

An optional ``cache_dir`` — a :class:`~repro.store.LocalStore`, probed
with :func:`~repro.measure.io.cached_runs` — short-circuits
configurations that were already measured with identical inputs (program
content, configuration, instrumentation plan, execution config, noise
model, seed, ...), making repeated sweeps and benchmark reruns nearly
free.
"""

from __future__ import annotations

import pathlib
import pickle
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from ..interp import ENGINE_TREE
from ..ir.program import Program
from ..mpisim.contention import ContentionModel, NoContention
from ..registry import ENGINE_REGISTRY
from ..store import LocalStore
from .experiment import (
    ConfigKey,
    ConfigRunResult,
    Measurements,
    RunSetup,
    Workload,
    config_key,
    merge_results,
    run_configuration,
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
    The parallel runner, the batched runner, and the campaign-service
    broker all key the ``runs`` namespace with this function, so a
    configuration measured by any of them is a hit for all of them.
    The engine enters by its registry identity (name plus import path),
    as in the measure-stage fingerprint: re-registering a name with
    another implementation misses the cache, and an unregistered name
    raises :class:`~repro.errors.RegistryError` here, before anything
    runs or is queued.
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
#: worker constructs the program once and reuses it for every
#: configuration it is handed.
_WORKER_WORKLOADS: dict[bytes, Workload] = {}


def _workload_for(spec_blob: bytes) -> Workload:
    workload = _WORKER_WORKLOADS.get(spec_blob)
    if workload is None:
        workload = pickle.loads(spec_blob).build()
        _WORKER_WORKLOADS[spec_blob] = workload
    return workload


@dataclass(frozen=True)
class _ConfigTask:
    """One configuration's work order, shipped to a worker."""

    index: int
    spec_blob: bytes
    config: tuple[tuple[str, float], ...]
    plan: InstrumentationPlan
    noise: NoiseModel
    contention: ContentionModel
    repetitions: int
    seed: int
    key: ConfigKey
    engine: str = ENGINE_TREE


def _run_task(task: _ConfigTask) -> tuple[int, ConfigRunResult]:
    """Worker entry point: rebuild the workload, run one configuration."""
    workload = _workload_for(task.spec_blob)
    setup = workload.setup(dict(task.config))
    result = run_configuration(
        workload.program(),
        setup,
        task.plan,
        task.noise,
        task.contention,
        task.repetitions,
        task.seed,
        task.key,
        engine=task.engine,
    )
    return task.index, result


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
class ParallelExperimentRunner:
    """Fan a design out over a process pool, with an optional run cache.

    Drop-in equivalent of :class:`~repro.measure.experiment.ExperimentRunner`:
    for any design, ``run()`` returns bit-identical measurements for every
    ``n_jobs`` value, because per-sample RNG streams depend only on
    ``(seed, function, configuration, repetition)`` and results are merged
    in design order.  ``n_jobs=1`` executes inline (no pool, no pickling)
    but still honors the cache.
    """

    workload: Workload
    plan: InstrumentationPlan
    noise: NoiseModel = field(default_factory=GaussianNoise)
    contention: ContentionModel = field(default_factory=NoContention)
    repetitions: int = 5
    seed: int = 0
    n_jobs: int = 1
    cache_dir: str | pathlib.Path | None = None
    #: Execution engine for the profiled runs (default: the tree-walker).
    #: Its registry identity is folded into cache fingerprints, so a
    #: cache populated by one engine is never served to another.
    engine: str = ENGINE_TREE

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        self._store = (
            LocalStore(self.cache_dir) if self.cache_dir is not None else None
        )
        #: Execution/cache counters of the most recent :meth:`run`.
        self.last_stats = RunStats()

    # -- execution ---------------------------------------------------------

    def run(
        self, design: Iterable[Mapping[str, float]]
    ) -> tuple[Measurements, dict[ConfigKey, ProfileResult]]:
        """Execute the design; return measurements and per-config profiles."""
        configs = [dict(c) for c in design]
        parameters = tuple(self.workload.parameters)
        program = self.workload.program()

        results: list[ConfigRunResult | None] = [None] * len(configs)
        setups: list[RunSetup | None] = [None] * len(configs)
        if self._store is not None:
            setups = [self.workload.setup(c) for c in configs]
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

        if pending:
            if self.n_jobs == 1:
                for index in pending:
                    setup = setups[index] or self.workload.setup(configs[index])
                    results[index] = run_configuration(
                        program,
                        setup,
                        self.plan,
                        self.noise,
                        self.contention,
                        self.repetitions,
                        self.seed,
                        config_key(parameters, configs[index]),
                        engine=self.engine,
                    )
            else:
                self._run_pool(parameters, configs, pending, results)
            if self._store is not None:
                for index in pending:
                    store_run(
                        self._store, fingerprints[index], results[index]
                    )

        self.last_stats = RunStats(
            executed=sum(1 for r in results if not r.cached),
            cached=sum(1 for r in results if r.cached),
        )
        return merge_results(parameters, results)

    def _run_pool(
        self,
        parameters: tuple[str, ...],
        configs: Sequence[Mapping[str, float]],
        pending: Sequence[int],
        results: list[ConfigRunResult | None],
    ) -> None:
        spec_blob = pickle.dumps(spec_of(self.workload))
        tasks = [
            _ConfigTask(
                index=index,
                spec_blob=spec_blob,
                config=tuple(sorted(configs[index].items())),
                plan=self.plan,
                noise=self.noise,
                contention=self.contention,
                repetitions=self.repetitions,
                seed=self.seed,
                key=config_key(parameters, configs[index]),
                engine=self.engine,
            )
            for index in pending
        ]
        workers = min(self.n_jobs, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_task, task) for task in tasks}
            while futures:
                done, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    index, result = future.result()
                    results[index] = result
