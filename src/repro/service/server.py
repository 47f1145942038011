"""The long-lived campaign server: submit, poll, fetch — over HTTP.

One :class:`CampaignService` owns the shared :class:`LocalStore` (stage
artifacts + run results), the measure-stage :class:`Broker`, and a
registry of submitted campaigns.  The HTTP layer on top is stdlib-only
(``http.server.ThreadingHTTPServer``; one thread per request, one thread
per running campaign) and speaks the versioned JSON envelopes of
:mod:`repro.service.protocol`:

========  =====================================  =======================
method    path                                   message
========  =====================================  =======================
GET       /api/v1/health                         -> health
POST      /api/v1/campaigns                      campaign.submit -> campaign.accepted
GET       /api/v1/campaigns/<id>                 -> campaign.status
GET       /api/v1/campaigns/<id>/artifact/<stage> -> campaign.artifact
POST      /api/v1/leases/claim                   lease.claim -> lease.grant
POST      /api/v1/leases/<id>/complete           lease.complete -> lease.ack
POST      /api/v1/leases/<id>/fail               lease.fail -> lease.ack
GET       /api/v1/telemetry                      -> telemetry
GET/HEAD  /api/v1/store/<ns>/<key>               -> store.entry / 404
PUT       /api/v1/store/<ns>/<key>               store.put -> store.ack
POST      /api/v1/store/<ns>/has-many            store.has_many -> store.presence
========  =====================================  =======================

Submitted campaigns run every stage *on the server*; the measure
stage's runner plans against the shared store, and its chunks go to the
broker (``Campaign.scheduler`` is :meth:`Broker.run_plan`), which leases
them to attached ``repro worker`` processes.  Because stage artifacts
live in the shared store and the scheduler is not fingerprinted, a
second submission of the same spec — from any client — resumes every
stage with zero profile executions.

Crash safety: every campaign transition is journaled to the store
(:mod:`repro.service.journal`), and a server restarted on the same store
root **recovers** — terminal campaigns are served from their journal
snapshots, unfinished ones are re-driven through the stage DAG (store
resume makes that bit-identical and re-execution-free for every stage
that had finished), and `repro status` marks them ``recovered`` with a
restart count.  SIGTERM drains in-flight leases before exit.

Chaos: ``REPRO_SERVICE_NET_FAULT=drop:<n>|garble:<n>|delay:<n>`` makes
the HTTP layer misbehave once, on the *n*-th request — the connection is
severed without a response, the response body is garbled to non-JSON, or
the response stalls — which is what the shared client retry policy is
tested against.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pathlib
import socket
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping

from ..codec import decode
from ..core.stages import STAGES, Campaign
from ..errors import ReproError, ServiceError
from ..store import STAGE_NAMESPACE, LocalStore, stage_key
from .broker import Broker
from .journal import CampaignHistory, ServiceJournal
from .protocol import Capability, envelope, open_envelope
from .remote_store import http_json, raise_for_error
from .retry import DEFAULT_RETRY_POLICY, retry_call

#: Environment variable carrying a server-side network fault spec
#: (``drop:<n>``/``garble:<n>``/``delay:<n>``, fired on the n-th request).
NET_FAULT_ENV = "REPRO_SERVICE_NET_FAULT"
#: Seconds a ``delay:<n>`` fault stalls the faulted response.
NET_DELAY_ENV = "REPRO_SERVICE_NET_DELAY_SECONDS"
DEFAULT_NET_DELAY_SECONDS = 0.5


def _parse_net_fault(spec: "str | None") -> "tuple[str, int] | None":
    if not spec:
        return None
    kind, _, count = str(spec).partition(":")
    if (
        kind not in ("drop", "garble", "delay")
        or not count.isdigit()
        or int(count) < 1
    ):
        raise ServiceError(
            f"invalid {NET_FAULT_ENV} spec {spec!r}: expected 'drop:<n>', "
            "'garble:<n>', or 'delay:<n>' with n >= 1"
        )
    return kind, int(count)


class _CampaignRecord:
    """Book-keeping for one submitted campaign.

    Lives in two flavours: a *live* record wrapping a running
    :class:`~repro.core.stages.Campaign`, and a *snapshot* record
    (``campaign is None``) for a finished campaign — rebuilt from the
    journal after a restart, or frozen by :meth:`release` when this
    server's run ends.  Status and artifacts keep working; there is just
    nothing left to run, and no stage outputs are held in memory.
    """

    def __init__(
        self,
        campaign_id: str,
        spec: Mapping,
        campaign: "Campaign | None",
        recovered: bool = False,
        restarts: int = 0,
    ):
        self.campaign_id = campaign_id
        self.spec = dict(spec)
        self.campaign = campaign
        self.state = "queued"  # queued | running | done | failed
        self.error: "str | None" = None
        self.stage_states: dict[str, str] = {
            name: "pending" for name in STAGES
        }
        self.profile_executions: "int | None" = None
        #: True when this record crossed a server restart (either
        #: re-driven or restored from its journal snapshot).
        self.recovered = bool(recovered)
        #: How many restarts this campaign has crossed.
        self.restarts = int(restarts)
        #: Snapshot fingerprints/stats for records without a live
        #: campaign object (folded from the journal).
        self.fingerprints: dict[str, str] = {}
        self.stats_line_text: "str | None" = None
        self.lock = threading.Lock()

    @classmethod
    def from_history(cls, history: CampaignHistory) -> "_CampaignRecord":
        """A snapshot record for a journaled terminal campaign."""
        record = cls(
            history.campaign_id,
            history.spec,
            campaign=None,
            recovered=True,
            restarts=history.restarts,
        )
        record.state = history.state
        record.stage_states.update(history.stage_states)
        record.fingerprints = dict(history.fingerprints)
        record.profile_executions = history.profile_executions
        record.stats_line_text = history.stats_line
        record.error = history.error
        return record

    def release(self) -> None:
        """Freeze a finished live record into its snapshot form.

        Keeps the fingerprints and stats line that ``status`` and
        ``artifact`` read and drops the campaign with its artifacts.
        The caller holds ``self.lock``.
        """
        campaign = self.campaign
        if campaign is None:
            return
        # Snapshot fields first: ``artifact`` reads them without the lock.
        self.fingerprints = dict(campaign.fingerprints)
        if self.state == "done":
            self.stats_line_text = campaign.stats_line()
        self.campaign = None

    def stage_fingerprints(self) -> dict:
        if self.campaign is not None:
            return dict(self.campaign.fingerprints)
        return dict(self.fingerprints)

    def status(self) -> dict:
        with self.lock:
            # Deterministic field order: `repro status` renders as-is.
            body = {
                "id": self.campaign_id,
                "state": self.state,
                "app": self.spec.get("app"),
                "recovered": self.recovered,
                "restarts": self.restarts,
                "stages": dict(self.stage_states),
                "fingerprints": self.stage_fingerprints(),
                "profile_executions": self.profile_executions,
            }
            if self.error is not None:
                body["error"] = self.error
            if self.state == "done":
                body["stats_line"] = self.stats_line_text
            return body


class CampaignService:
    """Campaign orchestration behind the HTTP surface (usable in-process).

    The tests drive this object directly; ``serve`` wraps it in the
    HTTP handler.  All campaign state is derivable from the store — the
    in-memory records only track liveness of this server's own runs.
    """

    def __init__(
        self,
        store_root: "str | pathlib.Path",
        lease_ttl: float = 30.0,
        max_attempts: int = 3,
        chunk_size: "int | None" = None,
        measure_timeout: "float | None" = None,
        target_lease_seconds: "float | None" = None,
        journal: bool = True,
    ) -> None:
        self.store = LocalStore(store_root)
        self.journal = ServiceJournal(self.store) if journal else None
        broker_kwargs = {}
        if target_lease_seconds is not None:
            broker_kwargs["target_lease_seconds"] = target_lease_seconds
        self.broker = Broker(
            store=self.store,
            lease_ttl=lease_ttl,
            max_attempts=max_attempts,
            chunk_size=chunk_size,
            journal=self.journal,
            **broker_kwargs,
        )
        self.measure_timeout = measure_timeout
        self._lock = threading.Lock()
        self._campaigns: dict[str, _CampaignRecord] = {}
        self._ids = itertools.count(1)
        #: Idempotency token -> campaign id (rebuilt from the journal).
        self._tokens: dict[str, str] = {}
        self.restarts = 0
        if self.journal is not None:
            self.restarts = max(0, self.journal.bump_incarnation() - 1)
            self._recover()

    # -- recovery ----------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal: restore snapshots, re-drive the unfinished.

        Terminal campaigns come back as snapshot records (status and
        artifact endpoints keep answering for them).  Unfinished ones
        are resubmitted through the stage DAG — every stage whose
        artifact reached the store resumes bit-identically, so recovery
        re-executes nothing that finished before the crash.
        """
        histories = self.journal.replay()
        max_id = 0
        for campaign_id, history in histories.items():
            tail = campaign_id.lstrip("C")
            if tail.isdigit():
                max_id = max(max_id, int(tail))
            if history.token:
                self._tokens[history.token] = campaign_id
            if history.terminal:
                record = _CampaignRecord.from_history(history)
                with self._lock:
                    self._campaigns[campaign_id] = record
                continue
            self._redrive(history)
        with self._lock:
            self._ids = itertools.count(max_id + 1)

    def _redrive(self, history: CampaignHistory) -> None:
        """Restart one unfinished journaled campaign from its spec."""
        campaign_id = history.campaign_id
        record = _CampaignRecord(
            campaign_id,
            history.spec,
            campaign=None,
            recovered=True,
            restarts=history.restarts + 1,
        )
        record.stage_states.update(history.stage_states)
        record.fingerprints = dict(history.fingerprints)
        with self._lock:
            self._campaigns[campaign_id] = record
        try:
            campaign = self._campaign(history.spec)
        except Exception as exc:  # noqa: BLE001 — surfaced via status
            with record.lock:
                record.state = "failed"
                record.error = f"{type(exc).__name__}: {exc}"
            self._journal(campaign_id, "failed", {"error": record.error})
            return
        record.campaign = campaign
        self._journal(
            campaign_id, "recovered", {"incarnation": self.restarts + 1}
        )
        self._start(record)

    # -- campaigns ---------------------------------------------------------

    def submit(self, spec: Mapping, token: "str | None" = None) -> str:
        """Validate *spec*, start the campaign thread, return its id.

        *token* is the client's idempotency token: a retried submit
        carrying a token this service has already accepted (in this or
        any prior incarnation) returns the original campaign id instead
        of starting a duplicate campaign.
        """
        if not isinstance(spec, Mapping):
            raise ServiceError(
                "campaign.submit body must carry a 'spec' mapping "
                "(the same keys as a TOML campaign file)"
            )
        spec = {k: v for k, v in spec.items() if k != "workspace"}
        campaign = self._campaign(spec)
        with self._lock:
            if token is not None and token in self._tokens:
                return self._tokens[token]
            campaign_id = f"C{next(self._ids)}"
            record = _CampaignRecord(campaign_id, spec, campaign)
            self._campaigns[campaign_id] = record
            if token is not None:
                self._tokens[token] = campaign_id
        self._journal(
            campaign_id, "accepted", {"spec": spec, "token": token}
        )
        self._start(record)
        return campaign_id

    def _campaign(self, spec: Mapping) -> Campaign:
        """A campaign over this server's store whose measure chunks run
        on the broker: its runner probes the store the broker publishes
        to, and the broker's wait is bounded by ``measure_timeout``."""
        campaign = Campaign.from_spec(spec, workspace=self.store)
        campaign.cache_dir = self.store
        campaign.scheduler = functools.partial(
            self.broker.run_plan, timeout=self.measure_timeout
        )
        return campaign

    def _start(self, record: _CampaignRecord) -> None:
        thread = threading.Thread(
            target=self._run, args=(record,), daemon=True,
            name=f"campaign-{record.campaign_id}",
        )
        thread.start()

    def _journal(self, campaign_id: str, event: str, data: Mapping) -> None:
        if self.journal is not None:
            self.journal.record(campaign_id, event, data)

    def _run(self, record: _CampaignRecord) -> None:
        campaign = record.campaign
        with record.lock:
            record.state = "running"
        try:
            for stage in STAGES.values():
                with record.lock:
                    record.stage_states[stage.name] = "running"
                campaign.run_stage(stage)
                with record.lock:
                    record.stage_states[stage.name] = campaign.stage_stats[
                        stage.name
                    ]
                self._journal(
                    record.campaign_id,
                    "stage",
                    {
                        "stage": stage.name,
                        "status": campaign.stage_stats[stage.name],
                        "fingerprint": campaign.fingerprints.get(stage.name),
                    },
                )
            with record.lock:
                if campaign.stage_stats.get("measure") == "computed":
                    record.profile_executions = (
                        campaign.measure_telemetry["runs"]["executed"]
                    )
                else:
                    record.profile_executions = 0
                record.state = "done"
                record.release()
            self._journal(
                record.campaign_id,
                "done",
                {
                    "fingerprints": dict(campaign.fingerprints),
                    "profile_executions": record.profile_executions,
                    "stats_line": campaign.stats_line(),
                },
            )
        except Exception as exc:  # noqa: BLE001 — surfaced via status
            with record.lock:
                for name, state in record.stage_states.items():
                    if state == "running":
                        record.stage_states[name] = "failed"
                record.error = f"{type(exc).__name__}: {exc}"
                record.state = "failed"
                record.release()
            try:
                self._journal(
                    record.campaign_id, "failed", {"error": record.error}
                )
            except Exception:  # noqa: BLE001 — store may be the failure
                pass

    def _record(self, campaign_id: str) -> _CampaignRecord:
        with self._lock:
            record = self._campaigns.get(campaign_id)
        if record is None:
            known = ", ".join(sorted(self._campaigns)) or "<none>"
            raise ServiceError(
                f"unknown campaign '{campaign_id}' "
                f"(campaigns on this server: {known})"
            )
        return record

    def status(self, campaign_id: str) -> dict:
        return self._record(campaign_id).status()

    def artifact(self, campaign_id: str, stage: str) -> dict:
        """The persisted artifact entry of one finished stage."""
        if stage not in STAGES:
            raise ServiceError(
                f"unknown stage '{stage}' "
                f"(stages: {', '.join(STAGES)})"
            )
        record = self._record(campaign_id)
        fingerprint = record.stage_fingerprints().get(stage)
        if fingerprint is None:
            raise ServiceError(
                f"campaign '{campaign_id}' has no fingerprint for stage "
                f"'{stage}' yet — poll status until the stage has run"
            )
        key = stage_key(stage, fingerprint)
        payload = self.store.get(STAGE_NAMESPACE, key)
        if payload is None:
            raise ServiceError(
                f"stage '{stage}' of campaign '{campaign_id}' "
                f"(fingerprint {fingerprint[:12]}) is not in the store yet"
            )
        return {
            "stage": stage,
            "fingerprint": fingerprint,
            "payload": payload,
        }

    def health(self) -> dict:
        with self._lock:
            campaigns = len(self._campaigns)
        return {
            "status": "ok",
            "campaigns": campaigns,
            "queue_depth": self.broker.queue_depth(),
        }

    def telemetry(self) -> dict:
        """Broker telemetry plus store health and recovery counters.

        Field order is deterministic (``repro status`` renders as-is):
        broker ``leases``/``workers``, then ``store`` quarantine
        counters, then ``service`` restart/recovery state.
        """
        data = self.broker.telemetry()
        data["store"] = self.store.corrupt_stats()
        with self._lock:
            recovered = sorted(
                (
                    campaign_id
                    for campaign_id, record in self._campaigns.items()
                    if record.recovered
                ),
                key=lambda c: (
                    c.rstrip("0123456789"),
                    int(c.lstrip("C")) if c.lstrip("C").isdigit() else -1,
                ),
            )
        data["service"] = {
            "restarts": self.restarts,
            "journal_corrupt_entries": (
                self.journal.corrupt_entries if self.journal else 0
            ),
            "recovered_campaigns": recovered,
        }
        return data

    def drain(self, timeout: "float | None" = None) -> bool:
        """Graceful-shutdown hook: stop granting leases, wait for the
        in-flight ones to land.  Returns True on a clean drain."""
        return self.broker.drain(timeout)


# ----------------------------------------------------------------------
# the HTTP layer


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning server's CampaignService."""

    server_version = "repro-campaign/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send(self, status: int, payload: "dict | None") -> None:
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if self.command != "HEAD" and body:
                self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client went away mid-response: there is nobody left to
            # tell, and answering with a 500 would only fail again.
            self.close_connection = True

    def _body(self) -> object:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return None
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ServiceError(f"request body is not JSON: {exc}") from exc

    def _inject_net_fault(self) -> bool:
        """Fire the server's single-shot network fault if this is the
        n-th request.  Returns True when the request was consumed
        (dropped/garbled) and must not be handled."""
        fault = getattr(self.server, "net_fault", None)
        if fault is None:
            return False
        kind, n = fault
        with self.server.net_fault_lock:  # type: ignore[attr-defined]
            self.server.net_requests += 1  # type: ignore[attr-defined]
            if self.server.net_requests != n:  # type: ignore[attr-defined]
                return False
            self.server.net_fault = None  # type: ignore[attr-defined]
        if kind == "drop":
            # Sever the connection with no response: the client sees a
            # reset/empty reply and must retry.
            self.close_connection = True
            try:
                self.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            return True
        if kind == "garble":
            raw = b"{ \"this\": is not json"
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)
            return True
        # kind == "delay": stall, then handle normally.
        time.sleep(
            float(
                os.environ.get(NET_DELAY_ENV, DEFAULT_NET_DELAY_SECONDS)
            )
        )
        return False

    def _route(self, handler) -> None:
        try:
            if self._inject_net_fault():
                return
            handler()
        except ReproError as exc:
            status = 404 if "unknown campaign" in str(exc) else 400
            self._send(
                status,
                envelope(
                    "error",
                    {"error": str(exc), "kind": type(exc).__name__},
                ),
            )
        except Exception as exc:  # noqa: BLE001 — keep the server alive
            self._send(
                500,
                envelope(
                    "error",
                    {"error": f"{type(exc).__name__}: {exc}",
                     "kind": "InternalError"},
                ),
            )

    def _parts(self) -> list[str]:
        path = self.path.split("?", 1)[0]
        return [p for p in path.split("/") if p]

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        self._route(self._get)

    def do_HEAD(self) -> None:  # noqa: N802
        self._route(self._get)

    def do_POST(self) -> None:  # noqa: N802
        self._route(self._post)

    def do_PUT(self) -> None:  # noqa: N802
        self._route(self._put)

    def _get(self) -> None:
        parts = self._parts()
        if parts[:2] != ["api", "v1"]:
            self._send(404, envelope("error", {"error": "unknown path"}))
            return
        rest = parts[2:]
        if rest == ["health"]:
            self._send(200, envelope("health", self.service.health()))
        elif rest == ["telemetry"]:
            self._send(
                200,
                envelope("telemetry", self.service.telemetry()),
            )
        elif len(rest) == 2 and rest[0] == "campaigns":
            self._send(
                200,
                envelope("campaign.status", self.service.status(rest[1])),
            )
        elif len(rest) == 4 and rest[0] == "campaigns" and rest[2] == "artifact":
            entry = self.service.artifact(rest[1], rest[3])
            self._send(200, envelope("campaign.artifact", entry))
        elif len(rest) == 3 and rest[0] == "store":
            payload = self.service.store.get(rest[1], rest[2])
            if payload is None:
                self._send(
                    404, envelope("error", {"error": "no such entry"})
                )
            else:
                self._send(
                    200, envelope("store.entry", {"payload": payload})
                )
        else:
            self._send(404, envelope("error", {"error": "unknown path"}))

    def _post(self) -> None:
        parts = self._parts()
        rest = parts[2:] if parts[:2] == ["api", "v1"] else None
        if rest == ["campaigns"]:
            body = open_envelope(self._body(), "campaign.submit")
            spec = body.get("spec") if isinstance(body, Mapping) else None
            token = None
            if isinstance(body, Mapping) and body.get("token"):
                token = str(body["token"])
            campaign_id = self.service.submit(spec, token=token)
            self._send(
                200, envelope("campaign.accepted", {"id": campaign_id})
            )
        elif rest == ["leases", "claim"]:
            body = open_envelope(self._body(), "lease.claim")
            claim = decode(Capability, body)
            lease = self.service.broker.claim(
                claim.worker,
                supports_batch=claim.supports_batch,
                lanes_per_sec=claim.lanes_per_sec,
            )
            self._send(200, envelope("lease.grant", {"lease": lease}))
        elif rest is not None and len(rest) == 3 and rest[0] == "leases":
            lease_id, action = rest[1], rest[2]
            if action == "complete":
                body = open_envelope(self._body(), "lease.complete")
                results = (
                    body.get("results") if isinstance(body, Mapping) else None
                )
                if not isinstance(results, list):
                    raise ServiceError(
                        "lease.complete body must carry a 'results' list"
                    )
                self.service.broker.complete(lease_id, results)
                self._send(200, envelope("lease.ack", {"lease": lease_id}))
            elif action == "fail":
                body = open_envelope(self._body(), "lease.fail")
                reason = ""
                if isinstance(body, Mapping):
                    reason = str(body.get("reason") or "")
                self.service.broker.fail(lease_id, reason)
                self._send(200, envelope("lease.ack", {"lease": lease_id}))
            else:
                self._send(404, envelope("error", {"error": "unknown path"}))
        elif (
            rest is not None
            and len(rest) == 3
            and rest[0] == "store"
            and rest[2] == "has-many"
        ):
            body = open_envelope(self._body(), "store.has_many")
            keys = body.get("keys") if isinstance(body, Mapping) else None
            if not isinstance(keys, list):
                raise ServiceError(
                    "store.has_many body must carry a 'keys' list"
                )
            present = self.service.store.has_many(
                rest[1], [str(key) for key in keys]
            )
            self._send(
                200, envelope("store.presence", {"present": present})
            )
        else:
            self._send(404, envelope("error", {"error": "unknown path"}))

    def _put(self) -> None:
        parts = self._parts()
        rest = parts[2:] if parts[:2] == ["api", "v1"] else None
        if rest is not None and len(rest) == 3 and rest[0] == "store":
            body = open_envelope(self._body(), "store.put")
            if not isinstance(body, Mapping) or "payload" not in body:
                raise ServiceError(
                    "store.put body must carry a 'payload' entry"
                )
            self.service.store.put(rest[1], rest[2], body["payload"])
            self._send(200, envelope("store.ack", {}))
        else:
            self._send(404, envelope("error", {"error": "unknown path"}))


def serve(
    store_root: "str | pathlib.Path",
    host: str = "127.0.0.1",
    port: int = 8642,
    lease_ttl: float = 30.0,
    max_attempts: int = 3,
    chunk_size: "int | None" = None,
    verbose: bool = False,
    target_lease_seconds: "float | None" = None,
    journal: bool = True,
    net_fault: "str | None" = None,
) -> ThreadingHTTPServer:
    """Build a ready-to-run campaign server (call ``serve_forever()``).

    ``port=0`` binds an ephemeral port (tests); the chosen address is
    ``httpd.server_address``.  The service object rides along as
    ``httpd.service``.  ``journal=False`` disables crash-safety
    journaling (and with it restart recovery).  ``net_fault`` injects a
    single-shot network fault (``drop:<n>``/``garble:<n>``/
    ``delay:<n>``); it defaults to the ``REPRO_SERVICE_NET_FAULT``
    environment variable.
    """
    # Validate the fault spec before anything holds a socket or a store.
    fault = _parse_net_fault(
        os.environ.get(NET_FAULT_ENV) if net_fault is None else net_fault
    )
    service = CampaignService(
        store_root,
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
        chunk_size=chunk_size,
        target_lease_seconds=target_lease_seconds,
        journal=journal,
    )
    httpd = ThreadingHTTPServer((host, port), _Handler)
    httpd.daemon_threads = True
    httpd.service = service  # type: ignore[attr-defined]
    httpd.verbose = verbose  # type: ignore[attr-defined]
    httpd.net_fault = fault  # type: ignore[attr-defined]
    httpd.net_fault_lock = threading.Lock()  # type: ignore[attr-defined]
    httpd.net_requests = 0  # type: ignore[attr-defined]
    return httpd


# ----------------------------------------------------------------------
# the client


class ServiceClient:
    """Typed client for the campaign server (CLI + tests).

    Every call retries transient failures under the shared service
    policy; submits carry a generated idempotency token, so a submit
    whose response was dropped can be re-sent without starting a
    duplicate campaign.
    """

    def __init__(
        self, base_url: str, timeout: float = 30.0, retry=None
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY

    def _call(
        self,
        method: str,
        path: str,
        msg_type: "str | None" = None,
        body: "object | None" = None,
        reply: "str | None" = None,
        retry_key: "str | None" = None,
    ):
        url = f"{self.base_url}{path}"
        payload = envelope(msg_type, body) if msg_type is not None else None

        def call():
            status, response = http_json(
                method, url, payload, timeout=self.timeout
            )
            raise_for_error(status, response, url)
            return open_envelope(response, reply)

        return retry_call(
            call,
            key=retry_key or f"client:{method}:{path}",
            policy=self.retry,
        )

    def health(self) -> dict:
        return self._call("GET", "/api/v1/health", reply="health")

    def telemetry(self) -> dict:
        """Per-lease timing and per-worker rate estimates from the broker."""
        return self._call("GET", "/api/v1/telemetry", reply="telemetry")

    def submit(self, spec: Mapping) -> str:
        # The token makes a retried submit (response lost in transit)
        # return the original campaign id instead of a duplicate.
        token = uuid.uuid4().hex
        body = self._call(
            "POST",
            "/api/v1/campaigns",
            "campaign.submit",
            {"spec": dict(spec), "token": token},
            "campaign.accepted",
            retry_key=f"campaign.submit:{token}",
        )
        return str(body["id"])

    def status(self, campaign_id: str) -> dict:
        return self._call(
            "GET",
            f"/api/v1/campaigns/{campaign_id}",
            reply="campaign.status",
        )

    def artifact(self, campaign_id: str, stage: str) -> dict:
        return self._call(
            "GET",
            f"/api/v1/campaigns/{campaign_id}/artifact/{stage}",
            reply="campaign.artifact",
        )

    def wait(
        self,
        campaign_id: str,
        timeout: "float | None" = None,
        poll: float = 0.2,
    ) -> dict:
        """Poll until the campaign leaves the running states."""
        start = time.monotonic()
        while True:
            status = self.status(campaign_id)
            if status.get("state") in ("done", "failed"):
                return status
            if (
                timeout is not None
                and time.monotonic() - start > timeout
            ):
                raise ServiceError(
                    f"campaign '{campaign_id}' still "
                    f"{status.get('state')} after {timeout:g}s — "
                    "are any workers attached to the server?"
                )
            time.sleep(poll)
