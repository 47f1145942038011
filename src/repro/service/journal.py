"""The durable service journal: crash-safe campaign + lease state.

The campaign service's design premise is that **the artifact store is
the source of truth** — every stage artifact and every profiled run
lands in the content-addressed store the moment it exists, under
fingerprints that are pure functions of the spec.  What a crash of
``repro serve`` loses is therefore never *results*, only *intent*: which
campaigns were accepted, how far each had progressed, which measure
leases were outstanding.  This module persists exactly that intent, so
recovery is a **replay** (resubmit the journaled specs and let store
resume skip everything already computed), not a loss.

Layout — all entries live in the server's :class:`~repro.store.LocalStore`
(atomic temp-file + rename writes; corrupt entries are quarantined, not
re-read), beside the ``stage`` and ``runs`` namespaces, under three
namespaces of their own:

* ``campaigns`` — append-only, hash-chained per-campaign entries.  Each
  :class:`_CampaignRecord <repro.service.server._CampaignRecord>`
  transition (``accepted`` → per-stage ``stage`` events → ``done`` /
  ``failed``, plus ``recovered`` markers) is one entry keyed
  ``<campaign id>-<seq>``, fingerprinted over its content **and the
  previous entry's fingerprint** — a torn or tampered tail is detected
  and the replay stops at the last verifiable entry instead of
  propagating garbage.
* ``broker`` — per-measure-job checkpoints (merged design indices and
  accounting), keyed by the job's content fingerprint, so a restarted
  broker can tell the recovered prefix from the unfinished tail it must
  re-lease.
* ``meta`` — the server incarnation counter (how many times a service
  was started on this state directory; ``restarts = incarnation - 1``).

Everything here is deliberately small, synchronous, and atomic: one
journal write per state transition, each a single ``os.replace``.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Mapping

from ..store import LocalStore

#: Store namespace holding the append-only campaign journal entries.
CAMPAIGN_NAMESPACE = "campaigns"
#: Store namespace holding per-measure-job broker checkpoints.
BROKER_NAMESPACE = "broker"
#: Store namespace holding journal metadata (incarnation counter).
META_NAMESPACE = "meta"

#: Events a campaign journal entry may carry, in lifecycle order.
CAMPAIGN_EVENTS = (
    "accepted",   # spec + idempotency token; the campaign exists
    "stage",      # one stage transition (running/computed/resumed/failed)
    "recovered",  # a restarted server re-drove this campaign
    "done",       # terminal: fingerprints + provenance
    "failed",     # terminal: error text
)


def _entry_fingerprint(content: Mapping) -> str:
    """Content hash of one journal entry (chain link included)."""
    canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class CampaignHistory:
    """One campaign's state, folded from its verified journal entries."""

    campaign_id: str
    spec: dict = field(default_factory=dict)
    #: Idempotency token the submit carried (retried submits map here).
    token: "str | None" = None
    state: str = "queued"  # queued | running | done | failed
    stage_states: dict = field(default_factory=dict)
    fingerprints: dict = field(default_factory=dict)
    error: "str | None" = None
    profile_executions: "int | None" = None
    stats_line: "str | None" = None
    #: How many times a restarted server re-drove this campaign.
    restarts: int = 0
    #: Highest verified entry sequence number.
    last_seq: int = -1
    #: Fingerprint of the last verified entry (the chain head).
    last_fingerprint: "str | None" = None

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")

    def apply(self, entry: Mapping) -> None:
        """Fold one verified entry into this history."""
        event = entry.get("event")
        data = entry.get("data") or {}
        if event == "accepted":
            self.spec = dict(data.get("spec") or {})
            token = data.get("token")
            self.token = str(token) if token else None
            self.state = "queued"
        elif event == "stage":
            name = str(data.get("stage"))
            self.stage_states[name] = str(data.get("status"))
            fingerprint = data.get("fingerprint")
            if fingerprint:
                self.fingerprints[name] = str(fingerprint)
            self.state = "running"
        elif event == "recovered":
            self.restarts += 1
            self.state = "running"
        elif event == "done":
            self.state = "done"
            self.profile_executions = data.get("profile_executions")
            self.stats_line = data.get("stats_line")
            for name, fingerprint in (data.get("fingerprints") or {}).items():
                self.fingerprints[str(name)] = str(fingerprint)
        elif event == "failed":
            self.state = "failed"
            self.error = str(data.get("error") or "")


class ServiceJournal:
    """Durable, append-only journal over a :class:`LocalStore`.

    Thread-safe: the campaign server appends from per-campaign threads
    and HTTP handler threads; each append is one atomic store write.
    """

    def __init__(self, store: LocalStore) -> None:
        self.store = store
        self._lock = threading.Lock()
        #: campaign id -> (next seq, previous fingerprint); loaded
        #: lazily from the journal so appends continue the chain after
        #: a restart.
        self._chains: dict[str, tuple[int, "str | None"]] = {}
        #: Entries that failed chain/shape verification during replay.
        self.corrupt_entries = 0

    # -- campaign entries --------------------------------------------------

    def record(self, campaign_id: str, event: str, data: Mapping) -> None:
        """Append one fingerprinted entry to *campaign_id*'s chain."""
        if event not in CAMPAIGN_EVENTS:
            raise ValueError(
                f"unknown journal event {event!r} "
                f"(events: {', '.join(CAMPAIGN_EVENTS)})"
            )
        with self._lock:
            seq, prev = self._chains.get(campaign_id, (0, None))
            content = {
                "campaign": str(campaign_id),
                "seq": seq,
                "event": event,
                "data": _jsonable(data),
                "prev": prev,
            }
            entry = dict(content)
            entry["fingerprint"] = _entry_fingerprint(content)
            self.store.put(
                CAMPAIGN_NAMESPACE, f"{campaign_id}-{seq:06d}", entry
            )
            self._chains[campaign_id] = (seq + 1, entry["fingerprint"])

    def replay(self) -> dict[str, CampaignHistory]:
        """Fold the journal into per-campaign histories.

        Entries are verified in sequence order: an entry whose
        fingerprint or chain link does not match (torn write survivor,
        tampering, a skipped sequence number) ends that campaign's
        verified history — later entries are counted as corrupt and
        ignored, so replay never acts on unverifiable state.  Also
        primes the append chains, so new entries continue each chain.
        """
        grouped: dict[str, list[tuple[int, str]]] = {}
        for key in self.store.keys(CAMPAIGN_NAMESPACE):
            campaign_id, _, seq_text = key.rpartition("-")
            if not campaign_id or not seq_text.isdigit():
                self.corrupt_entries += 1
                continue
            grouped.setdefault(campaign_id, []).append((int(seq_text), key))

        histories: dict[str, CampaignHistory] = {}
        with self._lock:
            for campaign_id in sorted(grouped, key=_campaign_sort_key):
                history = CampaignHistory(campaign_id=campaign_id)
                prev: "str | None" = None
                for seq, key in sorted(grouped[campaign_id]):
                    entry = self.store.get(CAMPAIGN_NAMESPACE, key)
                    if not self._verified(entry, campaign_id, seq, prev):
                        self.corrupt_entries += 1
                        break
                    history.apply(entry)
                    history.last_seq = seq
                    history.last_fingerprint = entry["fingerprint"]
                    prev = entry["fingerprint"]
                if history.last_seq >= 0:
                    histories[campaign_id] = history
                    self._chains[campaign_id] = (
                        history.last_seq + 1,
                        history.last_fingerprint,
                    )
        return histories

    @staticmethod
    def _verified(
        entry: object, campaign_id: str, seq: int, prev: "str | None"
    ) -> bool:
        if not isinstance(entry, Mapping):
            return False
        content = {
            "campaign": entry.get("campaign"),
            "seq": entry.get("seq"),
            "event": entry.get("event"),
            "data": entry.get("data"),
            "prev": entry.get("prev"),
        }
        return (
            entry.get("campaign") == campaign_id
            and entry.get("seq") == seq
            and entry.get("prev") == prev
            and entry.get("event") in CAMPAIGN_EVENTS
            and entry.get("fingerprint") == _entry_fingerprint(content)
        )

    # -- broker checkpoints ------------------------------------------------

    def checkpoint_job(self, job_key: str, state: Mapping) -> None:
        """Persist one measure job's merge progress (last write wins)."""
        self.store.put(BROKER_NAMESPACE, job_key, _jsonable(state))

    def job_checkpoint(self, job_key: str) -> "dict | None":
        """The last persisted checkpoint for *job_key*, if any."""
        payload = self.store.get(BROKER_NAMESPACE, job_key)
        return dict(payload) if isinstance(payload, Mapping) else None

    def clear_job(self, job_key: str) -> None:
        """Forget a finished job's checkpoint (an empty tombstone)."""
        self.store.put(BROKER_NAMESPACE, job_key, {"done": True})

    # -- incarnations ------------------------------------------------------

    def incarnation(self) -> int:
        """How many times a service has started on this journal."""
        payload = self.store.get(META_NAMESPACE, "incarnation")
        if isinstance(payload, Mapping):
            try:
                return max(0, int(payload.get("count", 0)))
            except (TypeError, ValueError):
                return 0
        return 0

    def bump_incarnation(self) -> int:
        """Record one more service start; returns the new count."""
        with self._lock:
            count = self.incarnation() + 1
            self.store.put(META_NAMESPACE, "incarnation", {"count": count})
        return count


def _campaign_sort_key(campaign_id: str) -> tuple:
    """Numeric-aware ordering for ids like ``C10`` (after ``C9``)."""
    head = campaign_id.rstrip("0123456789")
    tail = campaign_id[len(head):]
    return (head, int(tail) if tail else -1)


def _jsonable(value):
    """Round-trip *value* through JSON semantics (fail fast on junk)."""
    return json.loads(json.dumps(value))
