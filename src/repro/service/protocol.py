"""The campaign service's wire protocol: versioned, validated JSON.

Every message between clients, the campaign server, the broker, and the
workers is a JSON **envelope**::

    {"protocol": 1, "type": "<message type>", "body": {...}}

:func:`open_envelope` rejects unknown versions with a typed
:class:`~repro.errors.ProtocolVersionMismatch` instead of silently
misinterpreting messages from a peer running a different repro version.

Message bodies are built from two existing content-addressed currencies:

* :class:`~repro.measure.parallel.WorkloadSpec` — the picklable
  (factory, args, kwargs) recipe the runner's process pool already ships
  to workers — encoded here as pure JSON via a small marked codec
  (:func:`to_wire` / :func:`from_wire`) that handles the dataclasses,
  enums, tuples, and module-level callables workload specs are made of;
* sha256 fingerprints — the per-stage artifact fingerprints of
  :mod:`repro.core.stages` and the per-configuration run fingerprints of
  :func:`repro.measure.parallel.configuration_fingerprints` — which name
  every piece of work and every cache entry fleet-wide.

JSON round trips are exact: Python floats serialize via ``repr`` (the
shortest round-tripping form), so a measurement that crosses the wire is
bit-identical to one that never left the process.

Trust model: :func:`from_wire` resolves ``module:qualname`` references by
import, exactly like unpickling a :class:`WorkloadSpec` does — the
service is a cooperative compute fleet, not a boundary against hostile
peers.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import json
from dataclasses import dataclass
from typing import Mapping

from ..errors import ProtocolVersionMismatch, ServiceError
from ..measure.experiment import Workload
from ..measure.instrumentation import InstrumentationPlan
from ..measure.parallel import WorkloadSpec, spec_of

#: Version of the service wire protocol; bump on incompatible change.
PROTOCOL_VERSION = 1

_KIND = "__kind__"


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
# the marked value codec


def _ref_of(obj: object) -> str:
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise ServiceError(
            f"cannot encode {obj!r} for the wire: only module-level "
            "functions and classes are addressable by reference "
            "(define it at module scope so workers can import it)"
        )
    return f"{module}:{qualname}"


def _resolve_ref(ref: str):
    module_name, _, qualname = str(ref).partition(":")
    if not module_name or not qualname:
        raise ServiceError(f"malformed wire reference {ref!r}")
    try:
        obj = importlib.import_module(module_name)
    except ImportError as exc:
        raise ServiceError(
            f"cannot resolve wire reference {ref!r}: {exc} — the worker "
            "must have the same code importable as the submitting client"
        ) from exc
    for part in qualname.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise ServiceError(
                f"cannot resolve wire reference {ref!r}: module "
                f"'{module_name}' has no attribute path '{qualname}'"
            ) from None
    return obj


def to_wire(value: object) -> object:
    """Encode *value* as pure JSON-able data.

    Primitives pass through; containers, dataclasses, enums, and
    module-level callables become ``{"__kind__": ...}`` marker objects,
    so :func:`from_wire` reconstructs the exact Python value (tuples stay
    tuples, frozensets stay frozensets, dataclass types are preserved).
    """
    # Enums before primitives: str/int-mixin enums (InstrumentationMode
    # is a str subclass) must keep their enum identity across the wire.
    if isinstance(value, enum.Enum):
        return {
            _KIND: "enum",
            "ref": _ref_of(type(value)),
            "value": to_wire(value.value),
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            _KIND: "dataclass",
            "ref": _ref_of(type(value)),
            "fields": {
                field.name: to_wire(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return {
            _KIND: "tuple" if isinstance(value, tuple) else "list",
            "items": [to_wire(item) for item in value],
        }
    if isinstance(value, (set, frozenset)):
        items = [to_wire(item) for item in value]
        items.sort(key=lambda enc: json.dumps(enc, sort_keys=True))
        return {
            _KIND: "frozenset" if isinstance(value, frozenset) else "set",
            "items": items,
        }
    if isinstance(value, Mapping):
        return {
            _KIND: "dict",
            "items": [[to_wire(k), to_wire(v)] for k, v in value.items()],
        }
    if callable(value):
        return {_KIND: "ref", "ref": _ref_of(value)}
    raise ServiceError(
        f"cannot encode {type(value).__name__} value {value!r} for the "
        "wire: supported are JSON primitives, containers, enums, "
        "dataclasses, and module-level callables"
    )


def from_wire(value: object) -> object:
    """Inverse of :func:`to_wire`."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):  # only produced by raw JSON, be lenient
        return [from_wire(item) for item in value]
    if not isinstance(value, Mapping):
        raise ServiceError(
            f"malformed wire value of type {type(value).__name__}"
        )
    kind = value.get(_KIND)
    if kind == "tuple":
        return tuple(from_wire(item) for item in value["items"])
    if kind == "list":
        return [from_wire(item) for item in value["items"]]
    if kind == "set":
        return {from_wire(item) for item in value["items"]}
    if kind == "frozenset":
        return frozenset(from_wire(item) for item in value["items"])
    if kind == "dict":
        return {
            from_wire(k): from_wire(v) for k, v in value["items"]
        }
    if kind == "enum":
        cls = _resolve_ref(value["ref"])
        return cls(from_wire(value["value"]))
    if kind == "dataclass":
        cls = _resolve_ref(value["ref"])
        if not dataclasses.is_dataclass(cls):
            raise ServiceError(
                f"wire reference {value['ref']!r} is not a dataclass"
            )
        fields = {
            str(name): from_wire(enc)
            for name, enc in value["fields"].items()
        }
        try:
            return cls(**fields)
        except TypeError as exc:
            raise ServiceError(
                f"cannot rebuild {value['ref']!r} from wire fields: {exc}"
            ) from None
    if kind == "ref":
        return _resolve_ref(value["ref"])
    raise ServiceError(f"unknown wire value kind {kind!r}")


# ----------------------------------------------------------------------
# workload specs


def workload_spec_to_wire(spec: WorkloadSpec) -> dict:
    """Encode a workload spec as JSON (factory by importable reference)."""
    return {
        "factory": to_wire(spec.factory),
        "args": to_wire(tuple(spec.args)),
        "kwargs": to_wire(dict(spec.kwargs)),
    }


def workload_spec_from_wire(payload: Mapping) -> WorkloadSpec:
    """Inverse of :func:`workload_spec_to_wire`."""
    factory = from_wire(payload["factory"])
    if not callable(factory):
        raise ServiceError(
            f"workload spec factory {payload.get('factory')!r} did not "
            "resolve to a callable"
        )
    return WorkloadSpec(
        factory=factory,
        args=tuple(from_wire(payload["args"])),
        kwargs=dict(from_wire(payload["kwargs"])),
    )


def workload_to_wire(workload: Workload) -> dict:
    """Encode *workload* via its :meth:`spec` recipe.

    Workloads without a ``spec()`` method fall back to shipping the
    object itself, which only works when it is wire-encodable (a
    dataclass of encodable fields); otherwise a :class:`ServiceError`
    names the workload and the fix.
    """
    spec = spec_of(workload)
    try:
        return workload_spec_to_wire(spec)
    except ServiceError as exc:
        name = getattr(workload, "name", type(workload).__name__)
        raise ServiceError(
            f"workload '{name}' cannot cross the service wire: {exc} — "
            "give the workload class a spec() method returning a "
            "WorkloadSpec with an importable factory (see "
            "repro.measure.parallel.WorkloadSpec)"
        ) from exc


# ----------------------------------------------------------------------
# measure tasks (the lease payload)


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


def measure_task_to_wire(
    workload: Workload,
    plan: InstrumentationPlan,
    noise: object,
    contention: object,
    repetitions: int,
    seed: int,
    engine: str,
) -> dict:
    """Encode the shared, per-job half of a lease payload."""
    return {
        "workload": workload_to_wire(workload),
        "plan": to_wire(plan),
        "noise": to_wire(noise),
        "contention": to_wire(contention),
        "repetitions": int(repetitions),
        "seed": int(seed),
        "engine": str(engine),
    }


def measure_task_from_wire(payload: Mapping) -> MeasureTask:
    """Inverse of :func:`measure_task_to_wire`."""
    plan = from_wire(payload["plan"])
    if not isinstance(plan, InstrumentationPlan):
        raise ServiceError(
            "measure task plan did not decode to an InstrumentationPlan"
        )
    return MeasureTask(
        workload_spec=workload_spec_from_wire(payload["workload"]),
        plan=plan,
        noise=from_wire(payload["noise"]),
        contention=from_wire(payload["contention"]),
        repetitions=int(payload["repetitions"]),
        seed=int(payload["seed"]),
        engine=str(payload["engine"]),
    )


def configs_to_wire(configs) -> list:
    """Encode a sequence of configuration points (name -> value)."""
    return [
        sorted((str(k), float(v)) for k, v in config.items())
        for config in configs
    ]


def configs_from_wire(payload) -> list[dict[str, float]]:
    """Inverse of :func:`configs_to_wire`."""
    return [
        {str(name): float(value) for name, value in entries}
        for entries in payload
    ]


def capability_to_wire(
    worker: str,
    supports_batch: bool = True,
    lanes_per_sec: "float | None" = None,
) -> dict:
    """Encode a worker's claim envelope: identity plus capability.

    Additive to protocol v1 — brokers that predate capability claims
    simply ignore the extra keys, and :func:`capability_from_wire`
    defaults them for old workers, so mixed fleets interoperate.
    """
    return {
        "worker": str(worker),
        "supports_batch": bool(supports_batch),
        "lanes_per_sec": (
            float(lanes_per_sec) if lanes_per_sec is not None else None
        ),
    }


def capability_from_wire(body: Mapping) -> "tuple[str, bool, float | None]":
    """Inverse of :func:`capability_to_wire`; missing keys get defaults."""
    rate = body.get("lanes_per_sec")
    return (
        str(body.get("worker", "")),
        bool(body.get("supports_batch", True)),
        float(rate) if rate is not None else None,
    )
