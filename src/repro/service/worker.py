"""Campaign workers: pull leases, execute them, report results.

A worker is a loop over a **broker transport** — either the in-process
:class:`LocalBrokerTransport` (tests, single-host fleets) or the
:class:`HttpBrokerTransport` speaking the versioned wire protocol to a
campaign server (``repro worker --server http://...``).  Both expose the
same three calls (``claim`` / ``complete`` / ``fail``), so the execution
path is identical wherever the broker lives.

A lease executes through the local runner's chunk executor,
:func:`~repro.measure.batched.run_chunk`: an engine that carries
``supports_batch`` registry metadata runs the whole lease as **one
tensor pass** (broker chunks are grouped to make that legal); every
other engine runs it configuration by configuration.  Either way the
results are bit-identical, because noise streams depend only on
``(seed, function, configuration key, repetition)``.

Capability claims: every claim advertises whether this worker executes
leases as tensor batches (``supports_batch``) and its self-measured
lanes/sec rate, so the broker can size each lease to the worker that is
asking (see :class:`~repro.service.broker.Broker`).  ``batch=False``
calls the chunk executor once per configuration even for batch-capable
engines — the deliberate "slow fallback worker" of a heterogeneous
fleet, still bit-identical.

Fault injection (tests and CI chaos): the ``REPRO_SERVICE_FAULT``
environment variable (or the ``fault=`` argument) makes a worker
misbehave deterministically —

* ``crash:<n>`` — die silently while holding the *n*-th claimed lease
  (never reported; the broker's TTL reaper must recover it);
* ``fail:<n>`` — report the *n*-th claimed lease as failed, then keep
  working (exercises the immediate re-queue path);
* ``slow:<n>`` — from the *n*-th claimed lease onward, stall for
  ``REPRO_SERVICE_SLOW_SECONDS`` (default 1.0) before executing each
  lease (exercises straggler re-leasing; results stay correct, only
  late).

Failure classification: the run loop splits errors the way the retry
layer does.  **Transient** transport failures (broker restarting,
dropped responses) put the worker into a reconnect loop — it keeps
polling with backoff until ``reconnect_timeout`` elapses, so a fleet
rides out a server restart instead of dying with it.  **Fatal** errors
(protocol version skew, malformed lease payloads, unknown engines) will
recur on every lease; the worker fails the lease it holds, prints one
diagnostic line, and exits instead of hot-looping through its jobs'
attempt budgets.
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping

from ..errors import (
    ProtocolVersionMismatch,
    RegistryError,
    RetryExhausted,
    ServiceError,
    TransientServiceError,
)
from ..codec import decode, encode
from ..measure.batched import run_chunk
from ..measure.experiment import config_key
from ..measure.parallel import WorkloadSpec
from ..registry import load_builtin_components
from .protocol import (
    Capability,
    Configs,
    LeaseResult,
    MeasureTask,
    envelope,
    open_envelope,
)

#: Environment variable carrying a fault spec
#: (``crash:<n>``/``fail:<n>``/``slow:<n>``).
FAULT_ENV = "REPRO_SERVICE_FAULT"
#: Seconds a ``slow:<n>`` worker stalls before executing each lease.
SLOW_ENV = "REPRO_SERVICE_SLOW_SECONDS"
DEFAULT_SLOW_SECONDS = 1.0
#: Built workloads a worker keeps for reuse across leases and jobs.
WORKLOAD_MEMO_LIMIT = 4


def _parse_fault(spec: "str | None") -> "tuple[str, int] | None":
    if not spec:
        return None
    kind, _, count = str(spec).partition(":")
    if (
        kind not in ("crash", "fail", "slow")
        or not count.isdigit()
        or int(count) < 1
    ):
        raise ServiceError(
            f"invalid {FAULT_ENV} spec {spec!r}: expected 'crash:<n>', "
            "'fail:<n>', or 'slow:<n>' with n >= 1"
        )
    return kind, int(count)


class LocalBrokerTransport:
    """Direct calls into an in-process :class:`~repro.service.broker.Broker`."""

    def __init__(self, broker) -> None:
        self.broker = broker

    def claim(
        self, worker: str, capability: "Mapping | None" = None
    ) -> "Mapping | None":
        capability = dict(capability or {})
        return self.broker.claim(
            worker,
            supports_batch=bool(capability.get("supports_batch", True)),
            lanes_per_sec=capability.get("lanes_per_sec"),
        )

    def complete(self, lease_id: str, results: list) -> None:
        self.broker.complete(lease_id, results)

    def fail(self, lease_id: str, reason: str) -> None:
        self.broker.fail(lease_id, reason)


class HttpBrokerTransport:
    """The same three calls over a campaign server's lease endpoints.

    Calls retry transient failures under the shared service policy.
    The lease surface is safe to retry: a re-sent completion or failure
    for a lease the server already resolved is a server-side no-op, and
    a claim whose response was dropped only costs a lease TTL.
    """

    def __init__(
        self, base_url: str, timeout: float = 30.0, retry=None
    ) -> None:
        from .retry import RetryPolicy

        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy.from_env()

    def _post(self, path: str, msg_type: str, body: Mapping, reply: str):
        from .remote_store import http_json, raise_for_error
        from .retry import retry_call

        url = f"{self.base_url}{path}"

        def call():
            status, payload = http_json(
                "POST", url, envelope(msg_type, body), timeout=self.timeout
            )
            raise_for_error(status, payload, url)
            return open_envelope(payload, reply)

        return retry_call(call, key=f"broker:{path}", policy=self.retry)

    def claim(
        self, worker: str, capability: "Mapping | None" = None
    ) -> "Mapping | None":
        body = self._post(
            "/api/v1/leases/claim",
            "lease.claim",
            encode(Capability(worker, **dict(capability or {}))),
            "lease.grant",
        )
        lease = body.get("lease") if isinstance(body, Mapping) else None
        return lease or None

    def complete(self, lease_id: str, results: list) -> None:
        self._post(
            f"/api/v1/leases/{lease_id}/complete",
            "lease.complete",
            {"results": results},
            "lease.ack",
        )

    def fail(self, lease_id: str, reason: str) -> None:
        self._post(
            f"/api/v1/leases/{lease_id}/fail",
            "lease.fail",
            {"reason": reason},
            "lease.ack",
        )


@dataclass
class WorkerStats:
    """What one worker's :meth:`Worker.run` loop did."""

    claimed: int = 0
    completed: int = 0
    failed: int = 0
    configurations: int = 0
    crashed: bool = False
    #: Transport outages survived (claim/report retried until the
    #: broker came back).
    reconnects: int = 0
    #: One-line diagnostic when the loop exited on a permanent error
    #: (version skew, malformed leases) instead of running dry.
    fatal_error: "str | None" = None


class Worker:
    """Pulls leases from a transport and executes them until stopped.

    ``max_leases`` bounds the number of *completed* leases (useful in
    tests); ``stop_when_idle`` exits once the queue drains instead of
    polling forever; ``idle_timeout`` bounds how long an idle worker
    polls before giving up.  ``batch=False`` opts out of tensor-batch
    execution: leases run one configuration per chunk even on
    batch-capable engines (bit-identical, scalar speed), and the claim
    envelope advertises the reduced capability so the broker sizes
    leases accordingly.
    """

    def __init__(
        self,
        transport,
        worker_id: str = "worker",
        poll_interval: float = 0.05,
        max_leases: "int | None" = None,
        stop_when_idle: bool = False,
        idle_timeout: "float | None" = None,
        fault: "str | None" = None,
        batch: bool = True,
        reconnect_timeout: "float | None" = None,
    ) -> None:
        self.transport = transport
        self.worker_id = str(worker_id)
        self.poll_interval = poll_interval
        self.max_leases = max_leases
        self.stop_when_idle = stop_when_idle
        self.idle_timeout = idle_timeout
        self.batch = bool(batch)
        #: Seconds to keep re-polling through a broker outage before
        #: giving up; None reconnects forever (until stopped).
        self.reconnect_timeout = reconnect_timeout
        if fault is None:
            fault = os.environ.get(FAULT_ENV)
        self.fault = _parse_fault(fault)
        self.slow_seconds = float(
            os.environ.get(SLOW_ENV, DEFAULT_SLOW_SECONDS)
        )
        #: Self-measured lanes/sec (EWMA over executed leases), sent
        #: with every claim so a fresh broker can size the first lease.
        self.lanes_per_sec: "float | None" = None
        #: Built workloads keyed by their wire spec, least recently used
        #: first: each is built once and reused by every lease and job
        #: that names it, and the memo never outgrows
        #: ``WORKLOAD_MEMO_LIMIT`` however many jobs the worker serves.
        self._workloads: "OrderedDict[str, object]" = OrderedDict()
        load_builtin_components()

    def capability(self) -> dict:
        """The capability claim sent with every lease claim."""
        return {
            "supports_batch": self.batch,
            "lanes_per_sec": self.lanes_per_sec,
        }

    # -- the loop ----------------------------------------------------------

    def run(self, stop_event=None) -> WorkerStats:
        """Claim-execute-report until stopped; returns loop statistics."""
        stats = WorkerStats()
        idle_since: "float | None" = None
        down_since: "float | None" = None
        while not (stop_event is not None and stop_event.is_set()):
            if (
                self.max_leases is not None
                and stats.completed >= self.max_leases
            ):
                break
            try:
                lease = self.transport.claim(
                    self.worker_id, self.capability()
                )
            except (TransientServiceError, RetryExhausted) as exc:
                # Broker unreachable: reconnect instead of dying, so a
                # fleet rides out a server restart.
                now = time.monotonic()
                down_since = down_since if down_since is not None else now
                if (
                    self.reconnect_timeout is not None
                    and now - down_since > self.reconnect_timeout
                ):
                    stats.fatal_error = (
                        f"broker unreachable for "
                        f"{self.reconnect_timeout:g}s: {exc}"
                    )
                    break
                stats.reconnects += 1
                time.sleep(max(self.poll_interval, 0.1))
                continue
            if down_since is not None:
                down_since = None
            if lease is None:
                if self.stop_when_idle:
                    break
                now = time.monotonic()
                idle_since = idle_since if idle_since is not None else now
                if (
                    self.idle_timeout is not None
                    and now - idle_since > self.idle_timeout
                ):
                    break
                time.sleep(self.poll_interval)
                continue
            idle_since = None
            stats.claimed += 1
            if self.fault == ("crash", stats.claimed):
                # Die holding the lease, unreported: the broker's TTL
                # reaper is the only way this work comes back.
                stats.crashed = True
                break
            if (
                self.fault is not None
                and self.fault[0] == "slow"
                and stats.claimed >= self.fault[1]
            ):
                # Straggle: stall before executing, results stay correct.
                time.sleep(self.slow_seconds)
            lease_id = str(lease["lease"])
            started = time.monotonic()
            try:
                results = self.execute(lease)
            except (
                ProtocolVersionMismatch,
                RegistryError,
                ServiceError,
            ) as exc:
                # Fatal: version skew, an unknown engine, or a lease
                # that does not decode will recur on every claim — fail
                # this lease once and exit with a diagnostic instead of
                # hot-looping through the job's attempt budget.
                stats.failed += 1
                self._report_fail(lease_id, repr(exc), stats)
                stats.fatal_error = f"{type(exc).__name__}: {exc}"
                break
            except Exception as exc:  # noqa: BLE001 — report, keep serving
                stats.failed += 1
                self._report_fail(lease_id, repr(exc), stats)
                continue
            self._observe_rate(len(results), time.monotonic() - started)
            if self.fault == ("fail", stats.claimed):
                stats.failed += 1
                self._report_fail(
                    lease_id, f"injected fault ({FAULT_ENV})", stats
                )
                continue
            try:
                self.transport.complete(lease_id, results)
            except (TransientServiceError, RetryExhausted):
                # Completion lost in a broker restart: the lease TTL
                # (old broker) or job re-submission (new broker) will
                # re-pool this work; results are bit-identical either
                # way, so dropping the report is safe.
                stats.reconnects += 1
                continue
            stats.completed += 1
            stats.configurations += len(results)
        return stats

    def _report_fail(
        self, lease_id: str, reason: str, stats: WorkerStats
    ) -> None:
        """Report a lease failure; a broker outage mid-report is not
        itself fatal (the TTL reaper recovers the lease)."""
        try:
            self.transport.fail(lease_id, reason)
        except (TransientServiceError, RetryExhausted):
            stats.reconnects += 1

    def _observe_rate(self, lanes: int, elapsed: float) -> None:
        if lanes <= 0 or elapsed <= 0:
            return
        sample = lanes / elapsed
        self.lanes_per_sec = (
            sample
            if self.lanes_per_sec is None
            else 0.5 * self.lanes_per_sec + 0.5 * sample
        )

    # -- lease execution ---------------------------------------------------

    def _workload_for(self, wire: Mapping, spec: WorkloadSpec):
        key = json.dumps(wire, sort_keys=True)
        workload = self._workloads.pop(key, None)
        if workload is None:
            workload = spec.build()
        self._workloads[key] = workload  # most recently used last
        if len(self._workloads) > WORKLOAD_MEMO_LIMIT:
            self._workloads.popitem(last=False)
        return workload

    def execute(self, lease: Mapping) -> list[dict]:
        """Run one lease; returns wire-ready ``{"index", "result"}`` rows."""
        try:
            task = decode(MeasureTask, lease["task"])
            configs = decode(Configs, lease["configs"])
            indices = [int(i) for i in lease["indices"]]
        except (ProtocolVersionMismatch, ServiceError):
            raise
        except Exception as exc:
            # A lease that does not even decode is a protocol/version
            # problem, not a transient one — type it so the run loop
            # exits instead of hot-looping.
            raise ServiceError(
                f"lease {lease.get('lease')!r} does not decode: {exc!r}"
            ) from exc
        workload = self._workload_for(
            lease["task"]["workload_spec"], task.workload_spec
        )
        if len(configs) != len(indices):
            raise ServiceError(
                f"malformed lease {lease.get('lease')!r}: "
                f"{len(indices)} indices but {len(configs)} configurations"
            )
        parameters = tuple(workload.parameters)
        program = workload.program()
        setups = [workload.setup(c) for c in configs]
        keys = [config_key(parameters, c) for c in configs]
        if self.batch:
            chunks = [list(range(len(configs)))]
        else:
            chunks = [[i] for i in range(len(configs))]
        results = []
        for chunk in chunks:
            results += run_chunk(
                program,
                [setups[i] for i in chunk],
                [keys[i] for i in chunk],
                task.plan,
                task.noise,
                task.contention,
                task.repetitions,
                task.seed,
                task.engine,
            )
        return [
            encode(LeaseResult(index, result))
            for index, result in zip(indices, results)
        ]
