"""Chunk execution: one tensor pass per chunk on a batch engine.

A scalar engine pays one interpreter execution per configuration (and
~25us of RNG stream setup per noise sample).  A batch-capable engine
(``supports_batch`` registry metadata, see
:func:`repro.interp.supports_batch`) runs a whole chunk of
configurations in one :func:`~repro.measure.profiler.profile_run_batch`
call, and every (function, configuration, repetition) noise stream of
the chunk is sampled through :func:`~repro.measure.noise.perturb_block`
— the vectorized twin of the scalar ``rng_for`` derivation.

:func:`run_chunk` is the one chunk executor of the measure path: the
runner's inline executor calls it directly, and the process pool and
the campaign service's workers through
:func:`~repro.measure.parallel.run_task`, on chunks cut from the
runner's :func:`batch_chunks` groups (batch engines) or one
configuration wide (scalar engines).

Bit-identity contract: for any chunking the results equal
:func:`~repro.measure.experiment.run_configuration`'s bit for bit.  The
engine guarantees per-lane profile identity, and noise streams depend
only on ``(seed, function, key, repetition)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..interp import ENGINE_VECTORIZED, supports_batch
from ..mpisim.contention import ContentionModel
from .experiment import ConfigKey, ConfigRunResult, RunSetup, run_configuration
from .instrumentation import InstrumentationPlan
from .noise import NoiseModel, perturb_block
from .profiler import APP_KEY, ProfileNode, ProfileResult, profile_run_batch


def batch_chunks(
    pending: Sequence[int],
    setups: Sequence[RunSetup],
    n_jobs: "int | None" = 1,
) -> list[list[int]]:
    """Split design indices into batchable chunks, preserving order.

    Lanes of one engine pass must share ``exec_config`` and ``entry``.
    Each such group is one chunk, or, with an ``n_jobs`` hint, splits
    into ``min(n_jobs, len)`` balanced chunks (sizes differing by at
    most one, so no worker idles on an uneven split; ``None`` counts as
    1).  :class:`~repro.measure.parallel.ExperimentRunner` plans with
    the whole groups; its process pool splits them across ``n_jobs``,
    and the campaign-service broker cuts its leases from them — so a
    lease handed to a batch-capable worker is always executable as one
    tensor pass.
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
        parts = min(n_jobs or 1, len(members))
        base, extra = divmod(len(members), parts)
        at = 0
        for part in range(parts):
            size = base + (1 if part < extra else 0)
            chunks.append(members[at : at + size])
            at += size
    return chunks


@dataclass(frozen=True)
class LaneStats:
    """Accounting over the planned ``(configuration x repetition)`` grid.

    ``planned`` counts every lane of the grid the pending configurations
    span; ``executed`` counts the representative lanes the engine
    actually ran after dedup (repetitions of a deterministic run, and
    configurations of equal lane identity within a chunk, share one
    representative; a scalar engine runs one per configuration).
    ``deduped`` is the work avoided.
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


def run_batch_configurations(
    program,
    setups: Sequence[RunSetup],
    keys: Sequence[ConfigKey],
    plan: InstrumentationPlan,
    noise: NoiseModel,
    contention: ContentionModel,
    repetitions: int,
    seed: int,
    engine: str = ENGINE_VECTORIZED,
) -> list[ConfigRunResult]:
    """Batched twin of :func:`~repro.measure.experiment.run_configuration`.

    One profiled tensor pass over all *setups* (which must share
    ``exec_config`` and ``entry`` — the engine compiles one program
    against one execution config), then one noise block covering every
    (function, key, repetition) triple of the whole chunk.

    Setups with identical configuration identity (:func:`plan_lanes`)
    share one representative engine lane whose profile is broadcast back
    to every duplicate slot — noise streams still come from each slot's
    own ``(function, key, repetition)`` triples, so the results are
    bit-identical to running every slot as its own lane.
    """
    factors = [contention.factor(s.ranks_per_node) for s in setups]
    representatives, slot_to_rep, _ = plan_lanes(setups)
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


def run_chunk(
    program,
    setups: Sequence[RunSetup],
    keys: Sequence[ConfigKey],
    plan: InstrumentationPlan,
    noise: NoiseModel,
    contention: ContentionModel,
    repetitions: int,
    seed: int,
    engine: str,
) -> list[ConfigRunResult]:
    """Execute one chunk of configurations on *engine*, in order.

    A batch-capable engine runs the chunk as one tensor pass
    (:func:`run_batch_configurations`); any other engine runs it one
    configuration at a time
    (:func:`~repro.measure.experiment.run_configuration`).  Both give
    the same bits.
    """
    if supports_batch(engine):
        return run_batch_configurations(
            program,
            setups,
            keys,
            plan,
            noise,
            contention,
            repetitions,
            seed,
            engine=engine,
        )
    return [
        run_configuration(
            program,
            setup,
            plan,
            noise,
            contention,
            repetitions,
            seed,
            key,
            engine=engine,
        )
        for setup, key in zip(setups, keys)
    ]
