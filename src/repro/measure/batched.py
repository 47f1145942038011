"""Whole-sweep batched measurement: one tensor pass per design.

The scalar runners pay one interpreter execution per configuration (and
~25us of RNG stream setup per noise sample).  This runner hands the whole
design to a batch-capable engine (``supports_batch`` registry metadata,
see :func:`repro.interp.batch_capable_engines`) in one
:func:`~repro.measure.profiler.profile_run_batch` call, and samples every
(function, configuration, repetition) noise stream through
:func:`~repro.measure.noise.perturb_block` — the vectorized twin of the
scalar ``rng_for`` derivation.

Bit-identity contract: for any design, batch size, and worker count the
returned :class:`~repro.measure.experiment.Measurements` equal the serial
:class:`~repro.measure.experiment.ExperimentRunner`'s bit for bit.  The
engine guarantees per-lane profile identity; noise streams depend only on
``(seed, function, key, repetition)``; and results merge in canonical
design order (:func:`~repro.measure.experiment.merge_results_dense`).

Composition with the process-pool runner: ``n_jobs > 1`` shards the
*batch axis* across workers — each worker executes one contiguous chunk
of configurations as its own batch, reusing the
:class:`~repro.measure.parallel.WorkloadSpec` rebuild machinery so no
live workload objects cross process boundaries.
"""

from __future__ import annotations

import pathlib
import pickle
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..errors import RegistryError
from ..interp import ENGINE_VECTORIZED, batch_capable_engines
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
    merge_results_dense,
)
from .instrumentation import InstrumentationPlan
from .io import cached_runs, store_run
from .noise import GaussianNoise, NoiseModel, perturb_block
from .parallel import (
    RunStats,
    _workload_for,
    configuration_fingerprints,
    spec_of,
)
from .profiler import APP_KEY, ProfileNode, ProfileResult, profile_run_batch

#: Default batched engine (the only built-in with ``supports_batch``).
DEFAULT_BATCH_ENGINE = ENGINE_VECTORIZED


def batch_chunks(
    pending: Sequence[int],
    setups: Sequence[RunSetup],
    batch_size: "int | None" = None,
    n_jobs: "int | None" = 1,
) -> list[list[int]]:
    """Split design indices into batchable chunks, preserving order.

    Lanes of one engine pass must share ``exec_config`` and ``entry``;
    within each such group, ``batch_size`` caps the chunk length, or an
    ``n_jobs`` hint splits the group into ``min(n_jobs, len)`` balanced
    chunks (sizes differing by at most one, so no worker idles on an
    uneven split; ``None`` counts as 1).  Shared by
    :class:`BatchedExperimentRunner` and the campaign-service broker,
    whose leases are exactly these chunks — so a lease handed to a
    batch-capable worker is always executable as one tensor pass.
    """
    groups: list[tuple[tuple, list[int]]] = []
    for index in pending:
        marker = (setups[index].exec_config, setups[index].entry)
        if groups and groups[-1][0] == marker:
            groups[-1][1].append(index)
        else:
            groups.append((marker, [index]))
    chunks: list[list[int]] = []
    for _marker, members in groups:
        if batch_size is not None:
            for at in range(0, len(members), batch_size):
                chunks.append(members[at : at + batch_size])
        elif n_jobs is not None and n_jobs > 1:
            parts = min(n_jobs, len(members))
            base, extra = divmod(len(members), parts)
            at = 0
            for part in range(parts):
                size = base + (1 if part < extra else 0)
                chunks.append(members[at : at + size])
                at += size
        else:
            chunks.append(members)
    return chunks


@dataclass(frozen=True)
class LaneStats:
    """Accounting over the planned ``(configuration x repetition)`` grid.

    ``planned`` counts every lane of the grid a sweep asks for;
    ``executed`` counts the representative lanes the engine actually ran
    after dedup (repetitions of a deterministic run and repeated design
    points share one representative).  ``deduped`` is the work avoided.
    """

    planned: int = 0
    executed: int = 0

    @property
    def deduped(self) -> int:
        return self.planned - self.executed

    def merged(self, other: "LaneStats") -> "LaneStats":
        return LaneStats(
            planned=self.planned + other.planned,
            executed=self.executed + other.executed,
        )


def plan_lanes(
    setups: Sequence[RunSetup], repetitions: int = 1
) -> tuple[list[int], list[int], LaneStats]:
    """Plan the ``(configuration x repetition)`` grid as engine lanes.

    Every configuration of *setups* times every repetition is one
    planned lane; lanes whose configuration identity
    (:func:`~repro.interp.vectorize.lane_signature` over entry args and
    runtime, plus ``entry``/``exec_config``) is equal collapse into one
    representative engine lane.  Returns ``(representatives,
    slot_to_rep, stats)`` where ``representatives`` are setup indices to
    execute, ``slot_to_rep[slot]`` maps each setup slot to its
    representative's position, and ``stats`` counts planned vs executed
    lanes.  Repetitions never need extra engine lanes (noise streams are
    drawn per ``(function, key, repetition)`` downstream), so they are
    pure dedup gain in the accounting.
    """
    from ..interp.vectorize import lane_signature

    representatives: list[int] = []
    slot_to_rep: list[int] = []
    seen: dict[tuple, int] = {}
    for slot, setup in enumerate(setups):
        signature = lane_signature(setup.args, setup.runtime)
        rep = None
        if signature is not None:
            key = (setup.entry, repr(setup.exec_config), signature)
            rep = seen.get(key)
        if rep is None:
            rep = len(representatives)
            representatives.append(slot)
            if signature is not None:
                seen[key] = rep
        slot_to_rep.append(rep)
    stats = LaneStats(
        planned=len(setups) * max(1, repetitions),
        executed=len(representatives),
    )
    return representatives, slot_to_rep, stats


def _broadcast_profile(profile: ProfileResult, factor: float) -> ProfileResult:
    """A duplicate slot's own :class:`ProfileResult`, copied from its
    representative lane with the slot's contention factor.

    Fresh :class:`ProfileNode` objects in the representative's insertion
    order: node values are factor-independent (contention applies at
    query time), so the copy is bit-identical to what the slot's own
    engine lane would have produced.
    """
    nodes = {
        path: ProfileNode(
            callpath=node.callpath,
            calls=node.calls,
            compute=node.compute,
            memory=node.memory,
            comm=node.comm,
            overhead=node.overhead,
        )
        for path, node in profile.nodes.items()
    }
    return ProfileResult(
        plan=profile.plan,
        nodes=nodes,
        contention_factor=factor,
        loop_iterations=dict(profile.loop_iterations),
    )


def require_batch_engine(engine: str) -> None:
    """Raise :class:`~repro.errors.RegistryError` unless *engine* is
    registered as batch-capable (instead of failing deep in the run)."""
    entry = ENGINE_REGISTRY.entry(engine)
    if not entry.metadata.get("supports_batch"):
        capable = ", ".join(batch_capable_engines()) or "<none>"
        raise RegistryError(
            f"engine '{engine}' cannot execute batches "
            f"(batch-capable engines: {capable}; "
            "see `repro engines` for the full capability listing)"
        )


def run_batch_configurations(
    program,
    setups: Sequence[RunSetup],
    keys: Sequence[ConfigKey],
    plan: InstrumentationPlan,
    noise: NoiseModel,
    contention: ContentionModel,
    repetitions: int,
    seed: int,
    engine: str = DEFAULT_BATCH_ENGINE,
    dedup: bool = True,
) -> list[ConfigRunResult]:
    """Batched twin of :func:`~repro.measure.experiment.run_configuration`.

    One profiled tensor pass over all *setups* (which must share
    ``exec_config`` and ``entry`` — the engine compiles one program
    against one execution config), then one noise block covering every
    (function, key, repetition) triple of the whole chunk.

    With *dedup* (the default), setups with identical configuration
    identity (:func:`plan_lanes`) share one representative engine lane
    whose profile is broadcast back to every duplicate slot — noise
    streams still come from each slot's own ``(function, key,
    repetition)`` triples, so the results are bit-identical to running
    every slot as its own lane.
    """
    factors = [contention.factor(s.ranks_per_node) for s in setups]
    if dedup:
        representatives, slot_to_rep, _ = plan_lanes(setups)
    else:
        representatives = list(range(len(setups)))
        slot_to_rep = list(range(len(setups)))
    rep_profiles = profile_run_batch(
        program,
        [setups[i].args for i in representatives],
        plan,
        runtimes=[setups[i].runtime for i in representatives],
        exec_config=setups[0].exec_config,
        contention_factors=[factors[i] for i in representatives],
        entry=setups[0].entry,
        engine=engine,
    )
    profiles = [
        rep_profiles[rep]
        if representatives[rep] == slot
        else _broadcast_profile(rep_profiles[rep], factors[slot])
        for slot, rep in enumerate(slot_to_rep)
    ]
    results: list[ConfigRunResult] = []
    items: list[tuple[str, ConfigKey, float]] = []
    spans: list[tuple[int, int]] = []
    for lane, profile in enumerate(profiles):
        result = ConfigRunResult(key=keys[lane], profile=profile)
        start = len(items)
        for name, node in profile.flat().items():
            if not name:
                continue
            result.calls[name] = node.calls
            items.append((name, keys[lane], node.time(factors[lane])))
        items.append((APP_KEY, keys[lane], profile.total_time()))
        spans.append((start, len(items)))
        results.append(result)
    samples = perturb_block(noise, seed, items, repetitions)
    for lane, (start, stop) in enumerate(spans):
        result = results[lane]
        for (name, _key, _base), values in zip(
            items[start:stop], samples[start:stop]
        ):
            result.samples[name] = values
    return results


# ----------------------------------------------------------------------
# worker side


@dataclass(frozen=True)
class _BatchTask:
    """One contiguous chunk of the design, shipped to a worker."""

    indices: tuple[int, ...]
    spec_blob: bytes
    configs: tuple[tuple[tuple[str, float], ...], ...]
    plan: InstrumentationPlan
    noise: NoiseModel
    contention: ContentionModel
    repetitions: int
    seed: int
    keys: tuple[ConfigKey, ...]
    engine: str = DEFAULT_BATCH_ENGINE
    dedup: bool = True


def _run_batch_task(
    task: _BatchTask,
) -> list[tuple[int, ConfigRunResult]]:
    """Worker entry point: rebuild the workload, run one chunk batched."""
    workload = _workload_for(task.spec_blob)
    setups = [workload.setup(dict(config)) for config in task.configs]
    results = run_batch_configurations(
        workload.program(),
        setups,
        task.keys,
        task.plan,
        task.noise,
        task.contention,
        task.repetitions,
        task.seed,
        engine=task.engine,
        dedup=task.dedup,
    )
    return list(zip(task.indices, results))


# ----------------------------------------------------------------------
# driver side


@dataclass
class BatchedExperimentRunner:
    """Runs a whole design as tensor batches on a batch-capable engine.

    Drop-in equivalent of the serial and parallel runners: bit-identical
    measurements for every ``batch_size`` and ``n_jobs``.  ``batch_size``
    caps lanes per engine pass (``None`` = whole design in one pass;
    with ``n_jobs > 1`` the default shards the design evenly across
    workers).  Configurations whose setups disagree on ``exec_config`` or
    ``entry`` are split into per-group batches automatically.
    """

    workload: Workload
    plan: InstrumentationPlan
    noise: NoiseModel = field(default_factory=GaussianNoise)
    contention: ContentionModel = field(default_factory=NoContention)
    repetitions: int = 5
    seed: int = 0
    engine: str = DEFAULT_BATCH_ENGINE
    batch_size: int | None = None
    n_jobs: int = 1
    cache_dir: str | pathlib.Path | None = None
    dedup: bool = True

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        require_batch_engine(self.engine)
        self._store = (
            LocalStore(self.cache_dir) if self.cache_dir is not None else None
        )
        self.last_stats = RunStats()
        self.last_lane_stats = LaneStats()

    # -- execution ---------------------------------------------------------

    def run(
        self, design: Iterable[Mapping[str, float]]
    ) -> tuple[Measurements, dict[ConfigKey, ProfileResult]]:
        """Execute the design; return measurements and per-config profiles."""
        configs = [dict(c) for c in design]
        parameters = tuple(self.workload.parameters)
        program = self.workload.program()
        keys = [config_key(parameters, c) for c in configs]
        setups = [self.workload.setup(c) for c in configs]

        results: list[ConfigRunResult | None] = [None] * len(configs)
        if self._store is not None:
            # The engine name participates, so caches populated by scalar
            # engines are never served to batched runs or vice versa
            # (results are bit-identical, but provenance must stay honest).
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

        lane_stats = LaneStats()
        if pending:
            chunks = self._chunks(pending, setups)
            # Driver-side lane accounting: execution-side dedup is
            # deterministic per chunk, so the plan sum equals what the
            # workers actually run — also with n_jobs > 1.
            for chunk in chunks:
                if self.dedup:
                    _, _, stats = plan_lanes(
                        [setups[i] for i in chunk], self.repetitions
                    )
                else:
                    stats = LaneStats(
                        planned=len(chunk) * max(1, self.repetitions),
                        executed=len(chunk),
                    )
                lane_stats = lane_stats.merged(stats)
            if self.n_jobs == 1:
                for chunk in chunks:
                    chunk_results = run_batch_configurations(
                        program,
                        [setups[i] for i in chunk],
                        [keys[i] for i in chunk],
                        self.plan,
                        self.noise,
                        self.contention,
                        self.repetitions,
                        self.seed,
                        engine=self.engine,
                        dedup=self.dedup,
                    )
                    for i, result in zip(chunk, chunk_results):
                        results[i] = result
            else:
                self._run_pool(configs, keys, chunks, results)
            if self._store is not None:
                for index in pending:
                    store_run(
                        self._store, fingerprints[index], results[index]
                    )

        self.last_stats = RunStats(
            executed=sum(1 for r in results if not r.cached),
            cached=sum(1 for r in results if r.cached),
        )
        self.last_lane_stats = lane_stats
        return merge_results_dense(parameters, results)

    def _chunks(
        self, pending: Sequence[int], setups: Sequence[RunSetup]
    ) -> list[list[int]]:
        """See :func:`batch_chunks` (module-level for reuse by the
        campaign-service broker)."""
        return batch_chunks(pending, setups, self.batch_size, self.n_jobs)

    def _run_pool(
        self,
        configs: Sequence[Mapping[str, float]],
        keys: Sequence[ConfigKey],
        chunks: Sequence[Sequence[int]],
        results: list[ConfigRunResult | None],
    ) -> None:
        spec_blob = pickle.dumps(spec_of(self.workload))
        tasks = [
            _BatchTask(
                indices=tuple(chunk),
                spec_blob=spec_blob,
                configs=tuple(
                    tuple(sorted(configs[i].items())) for i in chunk
                ),
                plan=self.plan,
                noise=self.noise,
                contention=self.contention,
                repetitions=self.repetitions,
                seed=self.seed,
                keys=tuple(keys[i] for i in chunk),
                engine=self.engine,
                dedup=self.dedup,
            )
            for chunk in chunks
        ]
        workers = min(self.n_jobs, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_batch_task, task) for task in tasks}
            while futures:
                done, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    for index, result in future.result():
                        results[index] = result
