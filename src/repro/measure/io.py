"""The measurements file and the on-disk run cache.

Extra-P consumes measurement archives (Cube files / JSON line formats);
this module provides the equivalent for the repro pipeline so experiments
can be measured once, stored, and re-modeled offline.  Both formats are
:mod:`repro.codec` payloads:

* :func:`save_measurements` / :func:`load_measurements` — a
  :class:`~repro.measure.experiment.Measurements` container as a JSON
  file;
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

from ..codec import decode, encode
from ..errors import ArtifactError, MeasurementError
from ..ir.program import Program
from ..store import RUNS_NAMESPACE
from .experiment import ConfigRunResult, Measurements
from .instrumentation import InstrumentationPlan

#: Version of the measurements file (2: a :mod:`repro.codec` payload).
FORMAT_VERSION = 2

#: Version of the run-cache entry format, folded into every run
#: fingerprint; bump to invalidate old caches (2: entries measured since
#: counting loops run in closed form; 3: :mod:`repro.codec` payloads).
CACHE_VERSION = 3


def save_measurements(measurements: Measurements, path: "str | pathlib.Path") -> None:
    """Write measurements as JSON."""
    payload = {"version": FORMAT_VERSION, "measurements": encode(measurements)}
    pathlib.Path(path).write_text(json.dumps(payload, indent=1))


def load_measurements(path: "str | pathlib.Path") -> Measurements:
    """Read measurements from JSON."""
    payload = json.loads(pathlib.Path(path).read_text())
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != FORMAT_VERSION:
        raise MeasurementError(
            f"unsupported measurements format version {version!r}"
        )
    return decode(Measurements, payload.get("measurements"))


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
        "plan": encode(plan),
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
            result = decode(ConfigRunResult, payload)
        except ArtifactError:
            continue
        result.cached = True
        hits[fingerprint] = result
    return hits


def store_run(store, fingerprint: str, result: ConfigRunResult) -> None:
    """Publish one configuration's run result under *fingerprint*."""
    store.put(RUNS_NAMESPACE, fingerprint, encode(result))
