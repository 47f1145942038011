"""The measure-stage broker: the fleet executor of the runner's plan.

The broker owns one side of the campaign service's central invariant:

    *for any worker count, worker mix, lease sizing, and failure
    schedule, a distributed measure stage is bit-identical to the
    local runner.*

It does not plan: :class:`~repro.measure.parallel.ExperimentRunner`
plans every measure stage (keys, setups, run fingerprints, the store
probe, the pending ``batch_chunks`` groups) and hands the
:class:`~repro.measure.parallel.MeasurePlan` to :meth:`Broker.run_plan`
— on a campaign server, ``Campaign.scheduler`` is that method — and the
runner merges what comes back.  Workers only ever compute
:class:`~repro.measure.experiment.ConfigRunResult` values whose noise
streams are derived purely from ``(seed, function, configuration key,
repetition)``, and each lands in the plan **by design index**, never by
completion order.  Which worker ran a chunk, how chunks were sized, and
how many times work was re-queued after a crash are all invisible in the
output.

Capability-aware leases: pending work lives in the plan's design-ordered
groups (one per ``exec_config``/``entry`` run, the unit a batch-capable
worker can run as one tensor pass), and every :meth:`Broker.claim` cuts
a lease sized to the *claiming* worker — workers advertise
``supports_batch`` and a measured lanes/sec capability in their claim,
the broker folds per-lease wall-clock telemetry into a per-worker rate
estimate (EWMA), and sizes each lease to ``target_lease_seconds`` of
that worker's work.  A batch-capable worker on a batch job gets a big
tensor chunk; a scalar worker gets a one-configuration probe until its
rate is known.  When the pools are dry, a claim may instead **split a
straggler**: the tail half of the longest-held active lease (bounded by
``max_splits``) is ceded to the idle claimant, and whichever copy
reports first wins — duplicated work is the designed cost, never
corruption.

Fault tolerance is lease-based: a claim carries a TTL; leases that are
neither completed nor failed before the deadline are reaped and their
unfinished configurations re-pooled (the crashed-worker path), and
explicit failures re-pool immediately.  Attempts are tracked **per
configuration** (they follow the work across re-leases); after
``max_attempts`` a configuration poisons its job with a
:class:`~repro.errors.LeaseTimeout` naming the lease, the job, and the
affected fingerprints.

Fleet-wide dedupe: the broker publishes each completed result to its
store as the lease lands — the run-cache entry the worker sent, keyed by
the plan's run fingerprint — and the runner plans against that same
store (on a campaign server the runner's ``cache_dir`` is the broker's
store), so two campaigns sharing configurations execute each profiled
run once between them.

Crash safety: given a :class:`~repro.service.journal.ServiceJournal`,
every job checkpoints its merge progress under a **content fingerprint**
of the measure task + configuration fingerprints
(:func:`measure_job_key`).  A broker restarted on the same state
directory that receives the same plan re-adopts the merged prefix from
the runs store (the checkpoint tells it which store hits were this job's
own completions) and re-leases only the unfinished tail.  Workers that
fail leases repeatedly are **quarantined** — their claims return no work
until the operator restarts them — and a draining broker stops granting
leases so in-flight work can land before shutdown.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..codec import decode, encode
from ..errors import ArtifactError, LeaseTimeout, ServiceError
from ..interp import supports_batch
from ..measure.experiment import ConfigRunResult
from ..measure.parallel import MeasurePlan, RunStats
from ..registry import load_builtin_components
from ..store import RUNS_NAMESPACE
from .protocol import Configs, LeaseResult

#: Default seconds a claimed lease may stay unreported before reaping.
DEFAULT_LEASE_TTL = 30.0
#: Default attempts per configuration before LeaseTimeout poisons the job.
DEFAULT_MAX_ATTEMPTS = 3
#: Default seconds of work one adaptive lease should hand a worker.
DEFAULT_TARGET_LEASE_SECONDS = 2.0
#: Bound on how many times one lease's tail may be ceded to idle workers.
DEFAULT_MAX_SPLITS = 2
#: Consecutive explicit lease failures before a worker is quarantined.
DEFAULT_QUARANTINE_AFTER = 3
#: Bound on the per-lease telemetry log.
_TELEMETRY_LOG_LIMIT = 256


def measure_job_key(task_wire: Mapping, fingerprints: Sequence[str]) -> str:
    """Content fingerprint of one measure job, stable across restarts.

    A pure function of the wire-encoded measure task and the job's
    per-configuration fingerprints — the same submitted stage hashes to
    the same key in every broker incarnation, which is what lets a
    restarted broker find its predecessor's checkpoint.
    """
    canonical = json.dumps(
        {"task": task_wire, "fingerprints": list(fingerprints)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class Lease:
    """One claimed chunk of a measure job."""

    lease_id: str
    job_id: str
    indices: tuple[int, ...]
    attempt: int = 0
    worker: "str | None" = None
    #: ``time.monotonic`` deadline while claimed, else None.
    deadline: "float | None" = None
    #: ``time.monotonic`` when the lease was granted.
    claimed_at: "float | None" = None
    #: How often this lease's tail was ceded to an idle claimant.
    splits: int = 0
    #: Indices ceded to a straggler-split lease (still valid to report).
    ceded: set[int] = field(default_factory=set)

    def live_indices(self, results: Sequence) -> list[int]:
        """Indices this lease still owns and that are still unfilled."""
        return [
            i
            for i in self.indices
            if i not in self.ceded and results[i] is None
        ]


@dataclass
class MeasureJob:
    """One submitted measure plan, tracked to completion."""

    job_id: str
    configs: list[dict[str, float]]
    fingerprints: list[str]
    task_wire: dict
    #: The plan's own result slots, filled in place as leases land.
    results: "list[ConfigRunResult | None]"
    cached: int = 0
    executed: int = 0
    #: Of ``cached``, how many were a prior broker incarnation's own
    #: completions for this very job (per its journal checkpoint).
    recovered: int = 0
    #: Journal checkpoint key (content fingerprint of the job), if any.
    journal_key: "str | None" = None
    error: "Exception | None" = None
    done: threading.Event = field(default_factory=threading.Event)
    #: Pending design indices, pooled per exec_config/entry group in
    #: design order — the unit one tensor pass may span.
    pending_groups: list[list[int]] = field(default_factory=list)
    #: Design index -> position of its pool in ``pending_groups``.
    group_of: dict[int, int] = field(default_factory=dict)
    #: Design index -> failed attempts so far (follows the work).
    attempts: dict[int, int] = field(default_factory=dict)
    #: The job's engine carries ``supports_batch`` metadata.
    batch_capable: bool = False

    @property
    def remaining(self) -> int:
        return sum(1 for r in self.results if r is None)

    @property
    def pending(self) -> int:
        return sum(len(group) for group in self.pending_groups)


@dataclass
class _WorkerState:
    """What the broker knows about one claiming worker."""

    name: str
    supports_batch: bool = True
    #: Self-measured lanes/sec from the worker's claim envelope.
    reported_rate: "float | None" = None
    #: Broker-side EWMA over per-lease wall-clock completions.
    rate: "float | None" = None
    leases_completed: int = 0
    lanes_completed: int = 0
    #: Explicit lease failures this worker reported, lifetime.
    failures: int = 0
    #: Explicit failures since the last successful completion.
    consecutive_failures: int = 0
    #: Quarantined workers claim no work until operator intervention.
    quarantined: bool = False

    @property
    def best_rate(self) -> "float | None":
        return self.rate if self.rate is not None else self.reported_rate


class Broker:
    """Pools measure work, leases it per worker, merges in design order.

    Thread-safe: the campaign server drives it from HTTP handler threads
    and the in-process tests from plain worker threads, through the same
    ``claim`` / ``complete`` / ``fail`` surface the HTTP transport wraps.
    """

    def __init__(
        self,
        store=None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        chunk_size: "int | None" = None,
        workers_hint: int = 4,
        target_lease_seconds: float = DEFAULT_TARGET_LEASE_SECONDS,
        straggler_grace: "float | None" = None,
        max_splits: int = DEFAULT_MAX_SPLITS,
        journal=None,
        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if target_lease_seconds <= 0:
            raise ValueError(
                "target_lease_seconds must be > 0, got "
                f"{target_lease_seconds}"
            )
        self.store = store
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = int(max_attempts)
        self.chunk_size = chunk_size
        self.workers_hint = max(1, int(workers_hint))
        self.target_lease_seconds = float(target_lease_seconds)
        self.straggler_grace = (
            float(straggler_grace)
            if straggler_grace is not None
            else min(self.lease_ttl / 2.0, 2.0 * self.target_lease_seconds)
        )
        self.max_splits = max(0, int(max_splits))
        self.journal = journal
        self.quarantine_after = max(1, int(quarantine_after))
        self._draining = False
        self._lock = threading.Lock()
        self._jobs: dict[str, MeasureJob] = {}
        #: Jobs whose result a waiter has collected, reduced to their
        #: ``(executed, cached, recovered)`` counts.
        self._collected: dict[str, tuple[int, int, int]] = {}
        self._active: dict[str, Lease] = {}
        self._workers: dict[str, _WorkerState] = {}
        self._lease_log: "OrderedDict[str, dict]" = OrderedDict()
        self._ids = itertools.count(1)
        load_builtin_components()

    # -- submission --------------------------------------------------------

    def submit_measure(self, plan: MeasurePlan) -> str:
        """Queue the pending groups of a runner's *plan*; returns the job
        id.

        The plan's store hits count as ``cached``; workers' results fill
        its ``results`` in place, by design index.  The plan must carry
        fingerprints (the runner computes them when a scheduler is
        attached).
        """
        try:
            task_wire = encode(plan.task)
        except ArtifactError as exc:
            raise ServiceError(
                f"the measure task cannot cross the service wire: {exc} — "
                "give the workload class a spec() method returning a "
                "WorkloadSpec with an importable factory (see "
                "repro.measure.parallel.WorkloadSpec)"
            ) from exc
        journal_key, recovered = self._job_checkpoint(
            task_wire, plan.fingerprints, plan.results
        )
        with self._lock:
            job_id = f"J{next(self._ids)}"
            job = MeasureJob(
                job_id=job_id,
                configs=plan.configs,
                fingerprints=plan.fingerprints,
                task_wire=task_wire,
                results=plan.results,
                cached=sum(1 for r in plan.results if r is not None),
                recovered=recovered,
                journal_key=journal_key,
                batch_capable=supports_batch(plan.task.engine),
            )
            self._jobs[job_id] = job
            for group in plan.groups:
                position = len(job.pending_groups)
                job.pending_groups.append(list(group))
                for index in group:
                    job.group_of[index] = position
            if job.remaining == 0:
                job.done.set()
        self._checkpoint_job(job)
        return job_id

    def run_plan(
        self, plan: MeasurePlan, timeout: "float | None" = None
    ) -> None:
        """Execute a runner's *plan* on the fleet: submit it and wait.

        The campaign service's measure executor — ``Campaign.scheduler``
        on a server is this method, bound to the service's
        ``measure_timeout``.
        """
        self.wait(self.submit_measure(plan), timeout=timeout)

    def _job_checkpoint(
        self,
        task_wire: Mapping,
        fingerprints: Sequence[str],
        results: Sequence,
    ) -> "tuple[str | None, int]":
        """Locate a prior incarnation's checkpoint for this content.

        Returns ``(journal key, recovered lanes)``: the count of store
        hits that the checkpoint records as *this job's own* pre-crash
        completions, as opposed to hits inherited from other campaigns.
        """
        if self.journal is None:
            return None, 0
        journal_key = measure_job_key(task_wire, fingerprints)
        checkpoint = self.journal.job_checkpoint(journal_key)
        if not checkpoint or checkpoint.get("done"):
            return journal_key, 0
        merged = {
            int(i) for i in checkpoint.get("merged", []) if str(i).isdigit()
        }
        recovered = sum(
            1
            for index, result in enumerate(results)
            if result is not None and index in merged
        )
        return journal_key, recovered

    def _checkpoint_job(self, job: MeasureJob) -> None:
        """Persist one job's merge progress (or its tombstone)."""
        if self.journal is None or job.journal_key is None:
            return
        if job.done.is_set() and job.error is None:
            self.journal.clear_job(job.journal_key)
            return
        with self._lock:
            merged = [
                index
                for index, result in enumerate(job.results)
                if result is not None
            ]
            state = {
                "job": job.job_id,
                "total": len(job.results),
                "merged": merged,
                "executed": job.executed,
                "cached": job.cached,
                "recovered": job.recovered,
            }
        self.journal.checkpoint_job(job.journal_key, state)

    # -- the worker surface ------------------------------------------------

    def claim(
        self,
        worker: str = "",
        supports_batch: bool = True,
        lanes_per_sec: "float | None" = None,
    ) -> "dict | None":
        """Claim a lease sized to this worker; None when nothing to do.

        ``supports_batch`` and ``lanes_per_sec`` are the worker's
        capability claim; the broker's own per-worker rate estimate
        (from completed-lease wall clocks) takes precedence over the
        self-reported rate.  Returns the lease as a wire body: lease/job
        ids, design indices, configurations, per-configuration
        fingerprints, and the shared measure task.
        """
        with self._lock:
            self._reap_locked()
            state = self._worker_state_locked(
                worker, supports_batch, lanes_per_sec
            )
            if self._draining or state.quarantined:
                # A draining broker grants nothing new; a quarantined
                # worker gets no work until the operator restarts it.
                return None
            for job in self._jobs.values():
                if job.done.is_set():
                    continue
                for group in job.pending_groups:
                    if not group:
                        continue
                    size = self._lease_size_locked(job, state, len(group))
                    indices = tuple(group[:size])
                    del group[:size]
                    return self._grant_locked(job, indices, state)
            # Nothing pending anywhere: offer the tail of a straggler.
            split = self._split_straggler_locked(state)
            if split is not None:
                return split
        return None

    def _worker_state_locked(
        self,
        worker: str,
        supports_batch: bool,
        lanes_per_sec: "float | None",
    ) -> _WorkerState:
        name = str(worker) or "<anonymous>"
        state = self._workers.get(name)
        if state is None:
            state = self._workers[name] = _WorkerState(name=name)
        state.supports_batch = bool(supports_batch)
        if lanes_per_sec is not None and lanes_per_sec > 0:
            state.reported_rate = float(lanes_per_sec)
        return state

    def _lease_size_locked(
        self, job: MeasureJob, state: _WorkerState, available: int
    ) -> int:
        """Configurations to cut for this worker from one group pool."""
        if self.chunk_size is not None:
            return max(1, min(int(self.chunk_size), available))
        rate = state.best_rate
        if rate is not None and rate > 0:
            size = int(rate * self.target_lease_seconds)
            return max(1, min(size, available))
        if job.batch_capable and not state.supports_batch:
            # A scalar worker on a batch job pays per configuration;
            # probe with one lane until its rate is known.
            return 1
        # No rate yet: split the pool evenly across the expected fleet.
        return max(1, -(-available // self.workers_hint))

    def _grant_locked(
        self,
        job: MeasureJob,
        indices: tuple[int, ...],
        state: _WorkerState,
        splits: int = 0,
    ) -> dict:
        now = time.monotonic()
        lease = Lease(
            lease_id=f"L{next(self._ids)}",
            job_id=job.job_id,
            indices=indices,
            attempt=max(job.attempts.get(i, 0) for i in indices),
            worker=state.name,
            deadline=now + self.lease_ttl,
            claimed_at=now,
            splits=splits,
        )
        self._active[lease.lease_id] = lease
        self._log_lease_locked(lease, "active", None)
        return {
            "lease": lease.lease_id,
            "job": lease.job_id,
            "attempt": lease.attempt,
            "indices": list(lease.indices),
            "configs": encode([job.configs[i] for i in lease.indices], Configs),
            "fingerprints": [job.fingerprints[i] for i in lease.indices],
            "task": job.task_wire,
        }

    def _split_straggler_locked(self, state: _WorkerState) -> "dict | None":
        """Cede the tail half of the longest-held splittable lease."""
        now = time.monotonic()
        candidate: "Lease | None" = None
        for lease in self._active.values():
            if lease.splits >= self.max_splits:
                continue
            if lease.claimed_at is None:
                continue
            if now - lease.claimed_at <= self.straggler_grace:
                continue
            job = self._jobs.get(lease.job_id)
            if job is None or job.done.is_set():
                continue
            if len(lease.live_indices(job.results)) < 2:
                continue
            if (
                candidate is None
                or lease.claimed_at < candidate.claimed_at
            ):
                candidate = lease
        if candidate is None:
            return None
        job = self._jobs[candidate.job_id]
        live = candidate.live_indices(job.results)
        keep = (len(live) + 1) // 2
        ceded = tuple(live[keep:])
        candidate.ceded.update(ceded)
        candidate.splits += 1
        record = self._lease_log.get(candidate.lease_id)
        if record is not None:
            record["splits"] = candidate.splits
        return self._grant_locked(
            job, ceded, state, splits=candidate.splits
        )

    def complete(self, lease_id: str, results: Sequence[Mapping]) -> None:
        """Accept a worker's results for a lease.

        *results* are encoded :class:`~repro.service.protocol.LeaseResult`
        bodies; once they decode, each new result's payload is stored as
        received — it is already the run-cache entry.  A completion for a
        lease that was already reaped (the worker outlived its TTL) is
        silently dropped — the re-pooled work recomputes the same
        bit-identical values, so duplicated work is the designed cost of
        crash recovery, never corruption.  The same first-writer-wins
        rule covers straggler splits: ceded indices stay valid on the
        original lease, and whichever copy reports first fills the slot.
        """
        to_publish: list[tuple[str, object]] = []
        with self._lock:
            lease = self._active.pop(str(lease_id), None)
            if lease is None:
                return
            job = self._jobs.get(lease.job_id)
            if job is None:
                # The job was collected while this copy ran (a straggler
                # split's slower half): every slot is already filled.
                self._record_completion_locked(lease)
                return
            for raw in results:
                index = raw.get("index") if isinstance(raw, Mapping) else None
                if index not in lease.indices:
                    raise ServiceError(
                        f"lease {lease_id} reported result for design "
                        f"index {index!r}, which it does not hold"
                    )
            try:
                decoded = decode(list[LeaseResult], results)
            except ArtifactError as exc:
                raise ServiceError(
                    f"lease {lease_id} results do not decode: {exc}"
                ) from exc
            for entry, raw in zip(decoded, results):
                if job.results[entry.index] is None:
                    job.results[entry.index] = entry.result
                    job.executed += 1
                    to_publish.append(
                        (job.fingerprints[entry.index], raw["result"])
                    )
            if job.remaining == 0 and job.error is None:
                job.done.set()
            self._record_completion_locked(lease)
        if self.store is not None:
            for fingerprint, payload in to_publish:
                self.store.put(RUNS_NAMESPACE, fingerprint, payload)
        self._checkpoint_job(job)

    def _record_completion_locked(self, lease: Lease) -> None:
        elapsed = (
            time.monotonic() - lease.claimed_at
            if lease.claimed_at is not None
            else None
        )
        self._log_lease_locked(lease, "completed", elapsed)
        state = self._workers.get(lease.worker or "")
        if state is None:
            return
        state.consecutive_failures = 0
        if elapsed is None:
            return
        lanes = len(lease.indices)
        sample = lanes / max(elapsed, 1e-9)
        state.rate = (
            sample
            if state.rate is None
            else 0.5 * state.rate + 0.5 * sample
        )
        state.leases_completed += 1
        state.lanes_completed += lanes

    def fail(self, lease_id: str, reason: str = "") -> None:
        """Re-pool a lease a worker reported as failed.

        Explicit failures also count against the reporting worker:
        ``quarantine_after`` consecutive failures (with no completion in
        between) quarantine it — its claims return no work — so one
        wedged or mis-deployed worker cannot burn a job's whole
        per-configuration attempt budget.  (TTL reaps do not count: a
        reaped worker is presumed dead, and a fresh claim under its name
        is the restarted process, not the wedged one.)
        """
        with self._lock:
            lease = self._active.pop(str(lease_id), None)
            if lease is not None:
                elapsed = (
                    time.monotonic() - lease.claimed_at
                    if lease.claimed_at is not None
                    else None
                )
                self._log_lease_locked(lease, "failed", elapsed)
                state = self._workers.get(lease.worker or "")
                if state is not None:
                    state.failures += 1
                    state.consecutive_failures += 1
                    if state.consecutive_failures >= self.quarantine_after:
                        state.quarantined = True
                self._requeue_locked(lease, reason or "reported failed")

    # -- fault handling ----------------------------------------------------

    def _reap_locked(self) -> None:
        now = time.monotonic()
        expired = [
            lease
            for lease in self._active.values()
            if lease.deadline is not None and lease.deadline < now
        ]
        for lease in expired:
            del self._active[lease.lease_id]
            self._log_lease_locked(
                lease,
                "reaped",
                now - lease.claimed_at
                if lease.claimed_at is not None
                else None,
            )
            self._requeue_locked(
                lease,
                f"lease TTL ({self.lease_ttl:g}s) expired — worker "
                f"{lease.worker or '<unknown>'} presumed dead",
            )

    def _requeue_locked(self, lease: Lease, reason: str) -> None:
        """Return a dead lease's unfinished, un-ceded work to its pools."""
        job = self._jobs.get(lease.job_id)
        if job is None or job.done.is_set():
            return
        for index in lease.live_indices(job.results):
            attempts = job.attempts.get(index, 0) + 1
            job.attempts[index] = attempts
            if attempts >= self.max_attempts:
                job.error = LeaseTimeout(
                    lease.lease_id,
                    job_id=job.job_id,
                    attempts=attempts,
                    fingerprints=[
                        job.fingerprints[i]
                        for i in lease.live_indices(job.results)
                    ],
                    detail=reason,
                )
                job.done.set()
                return
            group = job.pending_groups[job.group_of[index]]
            bisect.insort(group, index)

    # -- telemetry ---------------------------------------------------------

    def _log_lease_locked(
        self, lease: Lease, status: str, seconds: "float | None"
    ) -> None:
        record = self._lease_log.get(lease.lease_id)
        if record is None:
            # Field insertion order is the wire order (`repro status`
            # prints it as-is, so it must be deterministic).
            record = {
                "lease": lease.lease_id,
                "job": lease.job_id,
                "worker": lease.worker,
                "configurations": len(lease.indices),
                "attempt": lease.attempt,
                "status": status,
                "seconds": None,
                "splits": lease.splits,
            }
            self._lease_log[lease.lease_id] = record
            while len(self._lease_log) > _TELEMETRY_LOG_LIMIT:
                self._lease_log.popitem(last=False)
        record["status"] = status
        record["splits"] = lease.splits
        if seconds is not None:
            record["seconds"] = round(seconds, 3)

    def telemetry(self) -> dict:
        """Per-lease timings/attempts and per-worker rate estimates.

        Leases sort by numeric id, workers by name; every record keeps a
        fixed field order, so rendered output is deterministic.
        """
        with self._lock:
            self._reap_locked()
            leases = sorted(
                (dict(record) for record in self._lease_log.values()),
                key=lambda r: int(str(r["lease"]).lstrip("L") or 0),
            )
            workers = [
                {
                    "worker": state.name,
                    "supports_batch": state.supports_batch,
                    "lanes_per_sec": (
                        round(state.best_rate, 3)
                        if state.best_rate is not None
                        else None
                    ),
                    "leases_completed": state.leases_completed,
                    "lanes_completed": state.lanes_completed,
                    # New fields go at the END: `repro status` renders
                    # records in insertion order.
                    "failures": state.failures,
                    "quarantined": state.quarantined,
                }
                for _, state in sorted(self._workers.items())
            ]
            return {"leases": leases, "workers": workers}

    # -- the submitter surface ---------------------------------------------

    def wait(
        self, job_id: str, timeout: "float | None" = None, poll: float = 0.05
    ) -> None:
        """Block until *job_id* finishes: every slot of its plan's
        ``results`` is then filled.

        Raises the job's :class:`~repro.errors.LeaseTimeout` if a
        configuration exhausted its attempts, and
        :class:`~repro.errors.ServiceError` on an unknown job or a wait
        timeout.

        A finished job is *collected* by its wait: the broker drops its
        configurations, results and task, and keeps only the counts
        :meth:`job_stats` and :meth:`job_recovery` report — so a
        long-running broker does not grow with every measure stage.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            collected = job_id in self._collected
        if job is None:
            raise ServiceError(
                f"measure job '{job_id}' was already collected"
                if collected
                else f"unknown measure job '{job_id}'"
            )
        start = time.monotonic()
        while not job.done.wait(poll):
            with self._lock:
                self._reap_locked()
            if timeout is not None and time.monotonic() - start > timeout:
                raise ServiceError(
                    f"measure job '{job_id}' did not finish within "
                    f"{timeout:g}s ({job.remaining} of "
                    f"{len(job.results)} configurations outstanding — "
                    "are any workers connected?)"
                )
        with self._lock:
            self._jobs.pop(job_id, None)
            self._collected[job_id] = (job.executed, job.cached, job.recovered)
        if job.error is not None:
            raise job.error

    def _counts(self, job_id: str) -> tuple[int, int, int]:
        """``(executed, cached, recovered)`` of a live or collected job."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                return job.executed, job.cached, job.recovered
            counts = self._collected.get(job_id)
        if counts is None:
            raise ServiceError(f"unknown measure job '{job_id}'")
        return counts

    def job_stats(self, job_id: str) -> RunStats:
        """Executed/cached provenance of a finished (or running) job."""
        executed, cached, _ = self._counts(job_id)
        return RunStats(executed=executed, cached=cached)

    def job_recovery(self, job_id: str) -> int:
        """Lanes of *job_id* recovered from a prior incarnation's
        checkpoint (a subset of its ``cached`` count)."""
        return self._counts(job_id)[2]

    def queue_depth(self) -> int:
        """Pending (unleased) configurations, after reaping expired
        leases — the fleet's backlog in units of work, not leases
        (leases are now cut per claim)."""
        with self._lock:
            self._reap_locked()
            return sum(
                job.pending
                for job in self._jobs.values()
                if not job.done.is_set()
            )

    # -- graceful shutdown -------------------------------------------------

    def drain(
        self, timeout: "float | None" = None, poll: float = 0.05
    ) -> bool:
        """Stop granting leases; wait for in-flight leases to land.

        Returns True when the broker drained clean (no active leases
        left), False when *timeout* elapsed with leases still out.
        Active leases may still complete normally while draining — only
        new claims are refused — so a SIGTERM'd server loses no work
        already in workers' hands.
        """
        with self._lock:
            self._draining = True
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            with self._lock:
                self._reap_locked()
                if not self._active:
                    return True
            if deadline is not None and time.monotonic() > deadline:
                with self._lock:
                    return not self._active
            time.sleep(poll)

