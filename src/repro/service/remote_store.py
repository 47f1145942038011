"""The shared, remote artifact cache behind ``get``/``put``/``has``.

Generalizes the two existing content-addressed stores — the per-stage
:class:`~repro.core.artifacts.ArtifactStore` (campaign workspaces) and
the per-configuration :class:`~repro.measure.io.RunCache` — into one
namespaced key/value store with three faces:

* :class:`LocalStore` — the on-disk backend (one JSON file per entry,
  atomic temp-file + rename writes; corrupt entries are counted, logged
  once, and quarantined to ``<store>/corrupt/`` instead of being re-read
  as misses forever), the state behind a campaign server;
* :class:`RemoteStore` — the same ``get``/``put``/``has`` surface over
  the campaign server's HTTP endpoints, for clients and workers;
* :class:`SharedWorkspace` / :class:`RemoteRunCache` — adapters giving a
  store the exact interfaces :class:`~repro.core.stages.Campaign` and
  the experiment runners already consume, so a campaign pointed at a
  shared store resumes stages other clients computed, with zero code
  changes above this module.

Atomicity contract (the concurrent-writer guarantee): writers land
entries with ``os.replace`` after writing a private temp file, so two
processes racing the same fingerprint can never produce a torn or
interleaved entry — the worst case is the same content being computed
twice and the last writer winning with identical bytes.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import pathlib
import re
import tempfile
import threading
import urllib.error
import urllib.request
from typing import Mapping

from ..errors import ServiceError, TransientServiceError
from ..measure.experiment import ConfigRunResult
from ..measure.io import (
    config_run_result_from_dict,
    config_run_result_to_dict,
)
from .protocol import envelope, open_envelope
from .retry import RetryPolicy, retry_call

logger = logging.getLogger(__name__)

#: Store namespace holding per-stage campaign artifacts.
STAGE_NAMESPACE = "stage"
#: Store namespace holding per-configuration run results.
RUNS_NAMESPACE = "runs"

_NAME_RE = re.compile(r"[A-Za-z0-9._-]+")

#: Version tag written into every store entry (mirrors the artifact
#: store's envelope validation).
STORE_VERSION = 1


def _check_name(kind: str, name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ServiceError(
            f"invalid store {kind} {name!r}: expected "
            "[A-Za-z0-9._-]+ (fingerprints and stage names only)"
        )
    return name


class LocalStore:
    """Namespaced, content-addressed JSON store on the local disk.

    Corrupt entries (torn by a crash older than the atomic-write path,
    bit-rotted, or hand-edited) are **quarantined**: the first read that
    fails to decode or validate moves the file to ``<store>/corrupt/``,
    logs the key once, and counts it — so the entry reads as a plain
    miss from then on and is recomputed instead of being re-read (and
    re-failed) forever.  :meth:`corrupt_stats` surfaces the counters
    (the campaign server exposes them at ``/api/v1/telemetry``).
    """

    #: Directory name (under the store root) holding quarantined files.
    CORRUPT_DIR = "corrupt"

    def __init__(self, root: "str | pathlib.Path") -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._quarantine_ids = itertools.count(1)
        #: ``namespace/key`` names quarantined so far, in event order.
        self._corrupt_keys: list[str] = []

    def _path(self, namespace: str, key: str) -> pathlib.Path:
        return (
            self.root
            / _check_name("namespace", namespace)
            / f"{_check_name('key', key)}.json"
        )

    def has(self, namespace: str, key: str) -> bool:
        return self._path(namespace, key).exists()

    def has_many(self, namespace: str, keys) -> list[bool]:
        """Presence of each key, one answer per key, order preserved."""
        return [self.has(namespace, key) for key in keys]

    def get(self, namespace: str, key: str) -> object | None:
        """The stored payload; None on a miss or a quarantined entry."""
        path = self._path(namespace, key)
        try:
            entry = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._quarantine(namespace, key, path)
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("version") != STORE_VERSION
            or entry.get("key") != key
            or "payload" not in entry
        ):
            self._quarantine(namespace, key, path)
            return None
        return entry["payload"]

    def _quarantine(
        self, namespace: str, key: str, path: pathlib.Path
    ) -> None:
        """Move a corrupt entry aside; count and log it exactly once."""
        folder = self.root / self.CORRUPT_DIR
        folder.mkdir(parents=True, exist_ok=True)
        with self._lock:
            destination = (
                folder
                / f"{namespace}-{key}-{next(self._quarantine_ids)}.quarantined"
            )
            try:
                os.replace(path, destination)
            except OSError:
                # Lost a race with a concurrent quarantine (or the file
                # vanished); whoever moved it already counted it.
                return
            self._corrupt_keys.append(f"{namespace}/{key}")
        logger.warning(
            "quarantined corrupt store entry %s/%s -> %s "
            "(it will be recomputed, not re-read)",
            namespace,
            key,
            destination,
        )

    def corrupt_stats(self) -> dict:
        """Quarantine counters, in deterministic field order."""
        with self._lock:
            return {
                "corrupt_entries": len(self._corrupt_keys),
                "quarantined_keys": list(self._corrupt_keys),
            }

    def put(self, namespace: str, key: str, payload: object) -> None:
        """Store *payload* atomically under (*namespace*, *key*)."""
        path = self._path(namespace, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"version": STORE_VERSION, "key": key, "payload": payload}
        try:
            # Compact: ``indent`` would force json's pure-Python encoder.
            text = json.dumps(entry, separators=(",", ":"))
        except (TypeError, ValueError) as exc:
            raise ServiceError(
                f"store payload for '{namespace}/{key}' is not "
                f"JSON-serializable: {exc}"
            ) from exc
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def keys(self, namespace: str) -> list[str]:
        """All keys stored under *namespace* (for inspection/tests)."""
        folder = self.root / _check_name("namespace", namespace)
        return sorted(p.stem for p in folder.glob("*.json"))

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))


# ----------------------------------------------------------------------
# HTTP plumbing (shared by every service client)


def http_json(
    method: str,
    url: str,
    payload: "object | None" = None,
    timeout: float = 30.0,
) -> tuple[int, object]:
    """One JSON request/response cycle with typed failure.

    Bare socket and decode errors become
    :class:`~repro.errors.TransientServiceError` naming the endpoint —
    the CLI boundary never leaks a raw ``URLError``, and the shared
    retry policy knows these are worth retrying (a dropped connection
    and a garbled response body are the same network-level event).
    Responses with HTTP error codes are returned (status, body) rather
    than raised, so callers can map 404 to a cache miss.
    """
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        url, data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            body = response.read()
            status = response.status
    except urllib.error.HTTPError as exc:
        body = exc.read()
        status = exc.code
    except (urllib.error.URLError, OSError) as exc:
        reason = getattr(exc, "reason", exc)
        raise TransientServiceError(
            f"cannot reach the campaign service at {url}: {reason} — "
            "is `repro serve` running and the URL correct?"
        ) from exc
    if not body:
        return status, None
    try:
        return status, json.loads(body)
    except ValueError as exc:
        raise TransientServiceError(
            f"non-JSON (possibly truncated or garbled) response from "
            f"{url} (HTTP {status}): {body[:120]!r}"
        ) from exc


def raise_for_error(status: int, body: object, url: str) -> None:
    """Map an HTTP error response to the typed service hierarchy.

    5xx responses raise :class:`~repro.errors.TransientServiceError`
    (the server may simply be restarting); 4xx responses are permanent.
    """
    if status < 400:
        return
    detail = ""
    if isinstance(body, Mapping):
        try:
            error_body = open_envelope(body, "error")
        except ServiceError:
            error_body = None
        if isinstance(error_body, Mapping):
            detail = str(error_body.get("error", ""))
    message = (
        f"campaign service at {url} rejected the request "
        f"(HTTP {status}){': ' + detail if detail else ''}"
    )
    if status >= 500:
        raise TransientServiceError(message)
    raise ServiceError(message)


class RemoteStore:
    """``get``/``put``/``has`` against a campaign server's store endpoints.

    The drop-in remote twin of :class:`LocalStore`: same namespaces, same
    payloads, same miss semantics — an entry another client put a moment
    ago is immediately visible here.

    Every call runs under the shared service retry policy, keyed on the
    content-addressed store key it touches: store reads are naturally
    idempotent, and a retried ``put`` re-lands byte-identical content
    (the store is content-addressed), so transient network failures
    cost a deterministic backoff, never correctness.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retry: "RetryPolicy | None" = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy.from_env()

    def _retry(self, fn, key: str):
        return retry_call(fn, key=key, policy=self.retry)

    def _url(self, namespace: str, key: str) -> str:
        return (
            f"{self.base_url}/api/v1/store/"
            f"{_check_name('namespace', namespace)}/"
            f"{_check_name('key', key)}"
        )

    def has(self, namespace: str, key: str) -> bool:
        url = self._url(namespace, key)
        status, _ = self._retry(
            lambda: http_json("HEAD", url, timeout=self.timeout),
            key=f"store.has:{namespace}/{key}",
        )
        return status == 200

    def has_many(self, namespace: str, keys) -> list[bool]:
        """Presence of each key in **one** round trip (vs one HEAD each).

        This is the store-side twin of lane dedup: a broker (or runner)
        checking hundreds of fingerprints before a submission pays one
        request, not hundreds.
        """
        keys = [_check_name("key", key) for key in keys]
        if not keys:
            return []
        url = (
            f"{self.base_url}/api/v1/store/"
            f"{_check_name('namespace', namespace)}/has-many"
        )

        def call():
            status, body = http_json(
                "POST",
                url,
                envelope("store.has_many", {"keys": keys}),
                timeout=self.timeout,
            )
            raise_for_error(status, body, url)
            return status, body

        status, body = self._retry(
            call, key=f"store.has_many:{namespace}/{keys[0]}+{len(keys)}"
        )
        entry = open_envelope(body, "store.presence")
        present = entry.get("present") if isinstance(entry, Mapping) else None
        if not isinstance(present, list) or len(present) != len(keys):
            raise ServiceError(f"malformed store presence reply from {url}")
        return [bool(flag) for flag in present]

    def get(self, namespace: str, key: str) -> object | None:
        url = self._url(namespace, key)

        def call():
            status, body = http_json("GET", url, timeout=self.timeout)
            if status == 404:
                return None
            raise_for_error(status, body, url)
            entry = open_envelope(body, "store.entry")
            if not isinstance(entry, Mapping) or "payload" not in entry:
                raise ServiceError(f"malformed store entry from {url}")
            return entry["payload"]

        return self._retry(call, key=f"store.get:{namespace}/{key}")

    def put(self, namespace: str, key: str, payload: object) -> None:
        url = self._url(namespace, key)
        body_wire = envelope("store.put", {"payload": payload})

        def call():
            status, body = http_json(
                "PUT", url, body_wire, timeout=self.timeout
            )
            raise_for_error(status, body, url)

        self._retry(call, key=f"store.put:{namespace}/{key}")


# ----------------------------------------------------------------------
# adapters onto the existing cache interfaces


class SharedWorkspace:
    """A campaign workspace backed by a shared (local or remote) store.

    Implements the :class:`~repro.core.artifacts.ArtifactStore` surface
    (``get(stage, fingerprint)`` / ``put(stage, fingerprint, payload)``)
    over the store's ``stage`` namespace, with the same envelope
    validation — so concurrent campaigns from many clients resume each
    other's stages with zero re-execution, and a local workspace file is
    byte-compatible with what the server stores.
    """

    def __init__(self, store: "LocalStore | RemoteStore") -> None:
        self.store = store
        #: Display name (a path for local stores, a URL for remote ones).
        self.root = getattr(store, "base_url", None) or getattr(
            store, "root", ""
        )

    def _key(self, stage: str, fingerprint: str) -> str:
        return f"{stage}-{fingerprint}"

    def get(self, stage: str, fingerprint: str) -> object | None:
        entry = self.store.get(
            STAGE_NAMESPACE, self._key(stage, fingerprint)
        )
        if (
            not isinstance(entry, Mapping)
            or entry.get("stage") != stage
            or entry.get("fingerprint") != fingerprint
            or "payload" not in entry
        ):
            return None
        return entry["payload"]

    def put(self, stage: str, fingerprint: str, payload: object) -> None:
        self.store.put(
            STAGE_NAMESPACE,
            self._key(stage, fingerprint),
            {"stage": stage, "fingerprint": fingerprint, "payload": payload},
        )

    def __contains__(self, key: tuple[str, str]) -> bool:
        stage, fingerprint = key
        return self.store.has(STAGE_NAMESPACE, self._key(stage, fingerprint))


class RemoteRunCache:
    """A :class:`~repro.measure.io.RunCache`-compatible view of a store.

    Lets any experiment runner (or the broker) key per-configuration run
    results by :func:`~repro.measure.parallel.configuration_fingerprint`
    against the fleet-shared store instead of a local directory.
    """

    def __init__(self, store: "LocalStore | RemoteStore") -> None:
        self.store = store

    def __contains__(self, fingerprint: str) -> bool:
        return self.store.has(RUNS_NAMESPACE, fingerprint)

    def has_many(self, fingerprints) -> list[bool]:
        """Batched presence check (one round trip on remote stores)."""
        return self.store.has_many(RUNS_NAMESPACE, list(fingerprints))

    def get(self, fingerprint: str) -> ConfigRunResult | None:
        payload = self.store.get(RUNS_NAMESPACE, fingerprint)
        if payload is None:
            return None
        try:
            result = config_run_result_from_dict(payload)
        except Exception:
            return None
        result.cached = True
        return result

    def put(self, fingerprint: str, result: ConfigRunResult) -> None:
        self.store.put(
            RUNS_NAMESPACE, fingerprint, config_run_result_to_dict(result)
        )
