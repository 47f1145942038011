"""Distributed campaign service: broker, workers, shared artifact cache.

The measurement campaigns of the paper are embarrassingly parallel
(every design configuration is an independent profiled run), and every
stage artifact is already content-addressed by a sha256 fingerprint.
This package promotes those two facts into a service:

* :mod:`~repro.service.protocol` — the versioned JSON wire protocol:
  :mod:`repro.codec` bodies built from
  :class:`~repro.measure.parallel.WorkloadSpec` recipes and per-stage /
  per-run fingerprints;
* :mod:`~repro.service.broker` — splits the measure stage into leases,
  hands them to workers, re-queues them on worker death or timeout, and
  merges results in deterministic design order (bit-identical to the
  local runner for any worker count or failure schedule);
* :mod:`~repro.service.worker` — pulls leases and executes them with
  the local runner's chunk executor (batch-capable engines as
  whole-chunk tensor passes);
* :mod:`~repro.service.remote_store` — the one store
  (:class:`~repro.store.LocalStore`: stage artifacts, run results and
  the server's journal) behind ``get``/``put``/``has`` HTTP endpoints,
  so concurrent campaigns from many clients dedupe work fleet-wide;
* :mod:`~repro.service.server` — the long-lived campaign server
  (stdlib ``http.server`` + threads): submit a spec, poll per-stage
  status and provenance, fetch artifacts;
* :mod:`~repro.service.journal` — the durable, hash-chained journal of
  campaign transitions and broker checkpoints that makes a server
  restart a **replay** (store resume re-executes nothing that
  finished);
* :mod:`~repro.service.retry` — the one shared retry/backoff policy
  (bounded exponential, deterministic keyed jitter) every client path
  funnels through.

Everything is stdlib-only (sockets, ``http.server``, threads); the CLI
front doors are ``repro serve``, ``repro worker``, ``repro submit``, and
``repro status``.
"""

from ..store import LocalStore
from .broker import Broker, BrokerScheduler, Lease, MeasureJob, measure_job_key
from .journal import CampaignHistory, ServiceJournal
from .protocol import (
    PROTOCOL_VERSION,
    envelope,
    open_envelope,
)
from .remote_store import RemoteStore
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy, retry_call
from .server import CampaignService, ServiceClient, serve
from .worker import HttpBrokerTransport, LocalBrokerTransport, Worker

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "PROTOCOL_VERSION",
    "Broker",
    "BrokerScheduler",
    "CampaignHistory",
    "CampaignService",
    "HttpBrokerTransport",
    "Lease",
    "LocalBrokerTransport",
    "LocalStore",
    "MeasureJob",
    "RemoteStore",
    "RetryPolicy",
    "ServiceClient",
    "ServiceJournal",
    "Worker",
    "measure_job_key",
    "retry_call",
    "envelope",
    "open_envelope",
    "serve",
]
