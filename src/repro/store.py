"""The one content-addressed store: stage artifacts, runs, service state.

A campaign workspace, a runner's ``cache_dir`` and a campaign server's
state directory are all a :class:`LocalStore`: one JSON file per entry
at ``<root>/<namespace>/<key>.json``.  Campaigns keep stage artifacts in
the :data:`STAGE_NAMESPACE` (keys from :func:`stage_key`), the runner
and the broker keep per-configuration run results in the
:data:`RUNS_NAMESPACE`, and the server adds its journal namespaces
beside them — so a server started on a directory a local campaign
filled resumes every stage, and the other way round.
:class:`~repro.service.remote_store.RemoteStore` serves the same
``get``/``put``/``has``/``has_many`` surface over HTTP.

Atomicity contract (the concurrent-writer guarantee): writers land
entries with ``os.replace`` after writing a private temp file, so two
processes racing the same fingerprint can never produce a torn or
interleaved entry — the worst case is the same content being computed
twice and the last writer winning with identical bytes.

This module imports nothing from the rest of the package but its error
types, so every layer (campaign stages, the runner, the service) can use it.
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

from .errors import ArtifactError, ServiceError

logger = logging.getLogger(__name__)

#: Store namespace holding per-stage campaign artifacts.
STAGE_NAMESPACE = "stage"
#: Store namespace holding per-configuration run results.
RUNS_NAMESPACE = "runs"

_NAME_RE = re.compile(r"[A-Za-z0-9._-]+")

#: Version tag written into every store entry.
STORE_VERSION = 1


def check_name(kind: str, name: str) -> str:
    """*name* itself when it is a valid store namespace or key."""
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ServiceError(
            f"invalid store {kind} {name!r}: expected "
            "[A-Za-z0-9._-]+ (fingerprints and stage names only)"
        )
    return name


def stage_key(stage: str, fingerprint: str) -> str:
    """Key of one stage artifact in the :data:`STAGE_NAMESPACE`."""
    return f"{stage}-{fingerprint}"


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
            / check_name("namespace", namespace)
            / f"{check_name('key', key)}.json"
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
        except (OSError, RecursionError, ValueError):
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
            raise ArtifactError(
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
        folder = self.root / check_name("namespace", namespace)
        return sorted(p.stem for p in folder.glob("*.json"))

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))
