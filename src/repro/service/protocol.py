"""The campaign service's wire protocol: versioned, validated JSON.

Every message between clients, the campaign server, the broker, and the
workers is a JSON **envelope**::

    {"protocol": 2, "type": "<message type>", "body": {...}}

:func:`open_envelope` rejects unknown versions with a typed
:class:`~repro.errors.ProtocolVersionMismatch` instead of silently
misinterpreting messages from a peer running a different repro version.

The typed bodies — the lease task (:class:`MeasureTask`), its
configurations, lease results (:class:`LeaseResult`) and a worker's
claim (:class:`Capability`) — are :mod:`repro.codec` payloads, built
from two existing content-addressed currencies:

* :class:`~repro.measure.parallel.WorkloadSpec` — the picklable
  (factory, args, kwargs) recipe the runner's process pool already ships
  to workers; its factory and arguments take the codec's marked form,
  resolved by ``module:qualname`` like unpickling;
* sha256 fingerprints — the per-stage artifact fingerprints of
  :mod:`repro.core.stages` and the per-configuration run fingerprints of
  :func:`repro.measure.parallel.configuration_fingerprints` — which name
  every piece of work and every cache entry fleet-wide.

A lease result's ``result`` is exactly the run-cache entry the broker
stores.  JSON round trips are exact: Python floats serialize via
``repr`` (the shortest round-tripping form), so a measurement that
crosses the wire is bit-identical to one that never left the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import ProtocolVersionMismatch, ServiceError
from ..measure.experiment import ConfigRunResult
from ..measure.instrumentation import InstrumentationPlan
from ..measure.parallel import WorkloadSpec

#: Version of the service wire protocol; bump on incompatible change
#: (2: bodies encoded by :mod:`repro.codec`).
PROTOCOL_VERSION = 2


# ----------------------------------------------------------------------
# envelopes


def envelope(msg_type: str, body: object) -> dict:
    """Wrap *body* in a versioned message envelope."""
    return {"protocol": PROTOCOL_VERSION, "type": str(msg_type), "body": body}


def open_envelope(payload: object, expected_type: "str | None" = None):
    """Validate an envelope and return its body.

    Raises :class:`ProtocolVersionMismatch` on a version skew and
    :class:`ServiceError` on a malformed or unexpected message.
    """
    if not isinstance(payload, Mapping):
        raise ServiceError(
            f"malformed service message: expected a JSON object envelope, "
            f"got {type(payload).__name__}"
        )
    version = payload.get("protocol")
    if version != PROTOCOL_VERSION:
        raise ProtocolVersionMismatch(version, PROTOCOL_VERSION)
    msg_type = payload.get("type")
    if expected_type is not None and msg_type != expected_type:
        raise ServiceError(
            f"unexpected service message type {msg_type!r} "
            f"(expected {expected_type!r})"
        )
    if "body" not in payload:
        raise ServiceError(
            f"malformed service message of type {msg_type!r}: missing body"
        )
    return payload["body"]


# ----------------------------------------------------------------------
# typed bodies


@dataclass(frozen=True)
class MeasureTask:
    """Everything a worker needs to execute one measure-stage chunk."""

    workload_spec: WorkloadSpec
    plan: InstrumentationPlan
    noise: object
    contention: object
    repetitions: int
    seed: int
    engine: str


#: A lease's configurations (parameter name -> value), in lease order.
Configs = list[dict[str, float]]


@dataclass(frozen=True)
class LeaseResult:
    """One configuration's result in a lease completion."""

    index: int
    result: ConfigRunResult


@dataclass(frozen=True)
class Capability:
    """A worker's claim: its identity plus what it can run."""

    worker: str
    supports_batch: bool = True
    #: Self-reported throughput; the broker's own estimate wins.
    lanes_per_sec: float | None = None
