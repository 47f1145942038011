"""The campaign server's store over HTTP, and the HTTP plumbing under it.

:class:`RemoteStore` is the remote face of the one store
(:class:`~repro.store.LocalStore`): the same namespaces, keys, payloads
and miss semantics behind ``get``/``put``/``has``/``has_many`` HTTP
endpoints, for clients and workers.  Anything that takes a store —
a campaign workspace, :func:`~repro.measure.io.cached_runs`,
:func:`~repro.measure.io.store_run` — takes either.  :func:`http_json`
and :func:`raise_for_error` are the typed request/response cycle every
service client shares.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Mapping

from ..errors import ServiceError, TransientServiceError
from ..store import check_name
from .protocol import envelope, open_envelope
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy, retry_call

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

    The drop-in remote twin of :class:`~repro.store.LocalStore`: same
    namespaces, same payloads, same miss semantics — an entry another
    client put a moment ago is immediately visible here.

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
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY

    def _retry(self, fn, key: str):
        return retry_call(fn, key=key, policy=self.retry)

    def _url(self, namespace: str, key: str) -> str:
        return (
            f"{self.base_url}/api/v1/store/"
            f"{check_name('namespace', namespace)}/"
            f"{check_name('key', key)}"
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
        keys = [check_name("key", key) for key in keys]
        if not keys:
            return []
        url = (
            f"{self.base_url}/api/v1/store/"
            f"{check_name('namespace', namespace)}/has-many"
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
