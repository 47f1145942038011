"""Serialization of measurements and models, plus the on-disk run cache.

Extra-P consumes measurement archives (Cube files / JSON line formats);
this module provides the equivalent for the repro pipeline so experiments
can be measured once, stored, and re-modeled offline:

* :func:`save_measurements` / :func:`load_measurements` — JSON round trip
  of a :class:`~repro.measure.experiment.Measurements` container;
* :func:`model_to_dict` / :func:`model_from_dict` — JSON-able fitted
  models (terms, coefficients, statistics);
* :func:`profile_to_dict` / :func:`profile_from_dict` — JSON-able
  :class:`~repro.measure.profiler.ProfileResult`;
* :func:`cached_runs` / :func:`store_run` — the run cache:
  per-configuration run results in the ``runs`` namespace of a store
  (:class:`~repro.store.LocalStore` or
  :class:`~repro.service.remote_store.RemoteStore`), keyed by
  :func:`run_fingerprint` over (program hash, configuration, execution
  config, noise/seed, ...), so repeated sweeps and benchmark reruns skip
  already-measured configurations entirely.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Mapping, Sequence

import numpy as np

from ..errors import MeasurementError, ReproError
from ..ir.program import Program
from ..modeling.hypothesis import Model, ModelStats
from ..modeling.terms import TermSpec
from ..store import RUNS_NAMESPACE
from .experiment import ConfigRunResult, Measurements
from .instrumentation import InstrumentationMode, InstrumentationPlan
from .profiler import ProfileNode, ProfileResult

FORMAT_VERSION = 1

#: Version of the run-cache entry format; bump to invalidate old caches
#: (2: entries measured since counting loops run in closed form).
CACHE_VERSION = 2

#: What decoding a malformed stored payload raises.  A store entry that
#: fails with one of these reads as a miss and is recomputed.
DECODE_ERRORS = (ReproError, AttributeError, KeyError, TypeError, ValueError)


def measurements_to_dict(measurements: Measurements) -> dict:
    """JSON-able representation of a measurements container."""
    return {
        "version": FORMAT_VERSION,
        "parameters": list(measurements.parameters),
        "data": {
            fn: [
                {"config": list(key), "values": list(map(float, values))}
                for key, values in sorted(per_fn.items())
            ]
            for fn, per_fn in measurements.data.items()
        },
        "calls": {
            fn: [
                {"config": list(key), "calls": int(calls)}
                for key, calls in sorted(per_fn.items())
            ]
            for fn, per_fn in measurements.calls.items()
        },
    }


def measurements_from_dict(payload: Mapping) -> Measurements:
    """Inverse of :func:`measurements_to_dict`."""
    if payload.get("version") != FORMAT_VERSION:
        raise MeasurementError(
            f"unsupported measurements format version "
            f"{payload.get('version')!r}"
        )
    out = Measurements(parameters=tuple(payload["parameters"]))
    for fn, entries in payload["data"].items():
        for entry in entries:
            key = tuple(float(v) for v in entry["config"])
            if len(key) != len(out.parameters):
                raise MeasurementError(
                    f"configuration arity mismatch for '{fn}'"
                )
            for value in entry["values"]:
                out.add(fn, key, float(value))
    for fn, entries in payload.get("calls", {}).items():
        for entry in entries:
            key = tuple(float(v) for v in entry["config"])
            out.calls.setdefault(fn, {})[key] = int(entry["calls"])
    return out


def save_measurements(measurements: Measurements, path: "str | pathlib.Path") -> None:
    """Write measurements as JSON."""
    pathlib.Path(path).write_text(
        json.dumps(measurements_to_dict(measurements), indent=1)
    )


def load_measurements(path: "str | pathlib.Path") -> Measurements:
    """Read measurements from JSON."""
    return measurements_from_dict(json.loads(pathlib.Path(path).read_text()))


def profile_to_dict(profile: ProfileResult) -> dict:
    """JSON-able representation of a profiled run."""
    return {
        "plan": {
            "mode": profile.plan.mode.value,
            "functions": sorted(profile.plan.functions),
            "overhead_per_call": float(profile.plan.overhead_per_call),
        },
        "contention_factor": float(profile.contention_factor),
        "nodes": [
            {
                "callpath": list(node.callpath),
                "calls": int(node.calls),
                "compute": float(node.compute),
                "memory": float(node.memory),
                "comm": float(node.comm),
                "overhead": float(node.overhead),
            }
            for _, node in sorted(profile.nodes.items())
        ],
        "loop_iterations": [
            {"function": fn, "loop": int(loop_id), "iterations": int(n)}
            for (fn, loop_id), n in sorted(profile.loop_iterations.items())
        ],
    }


def profile_from_dict(payload: Mapping) -> ProfileResult:
    """Inverse of :func:`profile_to_dict`."""
    plan = InstrumentationPlan(
        InstrumentationMode(payload["plan"]["mode"]),
        frozenset(payload["plan"]["functions"]),
        float(payload["plan"]["overhead_per_call"]),
    )
    nodes = {}
    for entry in payload["nodes"]:
        path = tuple(entry["callpath"])
        nodes[path] = ProfileNode(
            callpath=path,
            calls=int(entry["calls"]),
            compute=float(entry["compute"]),
            memory=float(entry["memory"]),
            comm=float(entry["comm"]),
            overhead=float(entry["overhead"]),
        )
    return ProfileResult(
        plan=plan,
        nodes=nodes,
        contention_factor=float(payload["contention_factor"]),
        loop_iterations={
            (e["function"], int(e["loop"])): int(e["iterations"])
            for e in payload["loop_iterations"]
        },
    )


def config_run_result_to_dict(result: ConfigRunResult) -> dict:
    """JSON-able representation of one configuration's run result."""
    return {
        "version": CACHE_VERSION,
        "key": [float(v) for v in result.key],
        "profile": profile_to_dict(result.profile),
        "samples": {
            fn: [float(v) for v in values]
            for fn, values in result.samples.items()
        },
        "calls": {fn: int(c) for fn, c in result.calls.items()},
    }


def config_run_result_from_dict(payload: Mapping) -> ConfigRunResult:
    """Inverse of :func:`config_run_result_to_dict`."""
    if payload.get("version") != CACHE_VERSION:
        raise MeasurementError(
            f"unsupported run-cache entry version {payload.get('version')!r}"
        )
    return ConfigRunResult(
        key=tuple(float(v) for v in payload["key"]),
        profile=profile_from_dict(payload["profile"]),
        samples={
            fn: [float(v) for v in values]
            for fn, values in payload["samples"].items()
        },
        calls={fn: int(c) for fn, c in payload["calls"].items()},
    )


# ----------------------------------------------------------------------
# run cache


def program_hash(program: Program) -> str:
    """Content hash of a program (its canonical printed form), computed
    once per finalized program (:meth:`~repro.ir.program.Program.digest`)."""
    return program.digest()


def run_fingerprint(
    program_digest: str,
    config: Mapping[str, float],
    plan: InstrumentationPlan,
    exec_repr: str,
    noise_repr: str,
    contention_repr: str,
    repetitions: int,
    seed: int,
    workload_repr: str = "",
    *,
    engine: str,
) -> str:
    """Content-addressed key of one configuration's run.

    Every input that can change the measured numbers participates: the
    program (by content hash), the configuration point, the
    instrumentation plan, the execution config, the noise model and seed,
    the contention model, the repetition count, and a workload
    fingerprint covering non-modeled defaults (which alter the setup the
    workload derives from the same configuration point).  The execution
    engine identity also participates: engines are differentially tested
    to be bit-identical, but a cache entry must still never cross engines
    — an engine bug would otherwise be masked (or spread) by the cache.
    """
    payload = {
        "cache_version": CACHE_VERSION,
        "program": program_digest,
        "config": sorted((k, float(v)) for k, v in config.items()),
        "plan": {
            "mode": plan.mode.value,
            "functions": sorted(plan.functions),
            "overhead_per_call": float(plan.overhead_per_call),
        },
        "exec": exec_repr,
        "noise": noise_repr,
        "contention": contention_repr,
        "repetitions": int(repetitions),
        "seed": int(seed),
        "workload": workload_repr,
        "engine": str(engine),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cached_runs(
    store, fingerprints: Sequence[str]
) -> dict[str, ConfigRunResult]:
    """The run results of *fingerprints* that *store* holds, by fingerprint.

    One ``has_many`` call (one round trip on a remote store) narrows the
    set, then each present entry is fetched.  An entry that does not
    decode is a miss; every hit is marked ``cached``.
    """
    unique = list(dict.fromkeys(fingerprints))
    present = store.has_many(RUNS_NAMESPACE, unique)
    hits: dict[str, ConfigRunResult] = {}
    for fingerprint, there in zip(unique, present):
        payload = store.get(RUNS_NAMESPACE, fingerprint) if there else None
        if payload is None:
            continue
        try:
            result = config_run_result_from_dict(payload)
        except DECODE_ERRORS:
            continue
        result.cached = True
        hits[fingerprint] = result
    return hits


def store_run(store, fingerprint: str, result: ConfigRunResult) -> None:
    """Publish one configuration's run result under *fingerprint*."""
    store.put(RUNS_NAMESPACE, fingerprint, config_run_result_to_dict(result))


# ----------------------------------------------------------------------
# models


def model_to_dict(model: Model) -> dict:
    """JSON-able representation of a fitted model."""
    return {
        "parameters": list(model.parameters),
        "terms": [
            [[float(i), int(j)] for i, j in term.exponents]
            for term in model.terms
        ],
        "coefficients": [float(c) for c in model.coefficients],
        "stats": {
            "rss": model.stats.rss,
            "smape": model.stats.smape,
            "r_squared": model.stats.r_squared,
            "n_points": model.stats.n_points,
            "n_coefficients": model.stats.n_coefficients,
        },
        "metadata": dict(model.metadata),
    }


def model_from_dict(payload: Mapping) -> Model:
    """Inverse of :func:`model_to_dict`."""
    terms = tuple(
        TermSpec(tuple((float(i), int(j)) for i, j in exps))
        for exps in payload["terms"]
    )
    stats = ModelStats(**payload["stats"])
    return Model(
        parameters=tuple(payload["parameters"]),
        terms=terms,
        coefficients=np.asarray(payload["coefficients"], dtype=float),
        stats=stats,
        metadata=dict(payload.get("metadata", {})),
    )
