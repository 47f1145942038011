"""One shared retry/backoff policy for every service client path.

Fleets guarantee transient failure: brokers restart, responses get
dropped mid-socket, proxies garble payloads.  Every HTTP-speaking piece
of the campaign service (:class:`~repro.service.server.ServiceClient`,
:class:`~repro.service.remote_store.RemoteStore`, the worker transport)
funnels its calls through :func:`retry_call` with the same
:class:`RetryPolicy`, so the whole service layer degrades the same way:

* only :class:`~repro.errors.TransientServiceError` is retried —
  connection failures, dropped/garbled responses, HTTP 5xx.  Version
  skew, malformed specs, and unknown campaigns fail immediately.
* backoff is bounded exponential with **deterministic jitter**: the
  jitter stream is seeded from the call's idempotency key, so a given
  (key, attempt) always sleeps the same amount — reproducible both in
  tests and across a fleet re-driving the same fingerprinted work.
* every operation is named by an idempotency key derived from campaign
  or lease fingerprints, and the server side is idempotent under those
  keys (a retried submit returns the original campaign id, a retried
  lease completion is a no-op), so "retried after the server actually
  processed it" is indistinguishable from "retried after a real drop".
* exhaustion raises a typed :class:`~repro.errors.RetryExhausted`
  carrying the per-attempt trace.

A client built without an explicit ``retry=`` policy uses
:data:`DEFAULT_RETRY_POLICY`.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Callable

from ..errors import RetryExhausted, TransientServiceError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic, keyed jitter."""

    #: Total attempts (the first call plus retries).
    max_attempts: int = 4
    #: Backoff before the second attempt; doubles per further attempt.
    base_delay: float = 0.05
    #: Ceiling on any single backoff.
    max_delay: float = 2.0
    #: Jitter fraction: each backoff is scaled by a factor drawn
    #: uniformly from ``[1 - jitter, 1 + jitter]``.
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not 0 <= self.jitter < 1:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoffs(self, key: str) -> list[float]:
        """The deterministic backoff schedule for *key*.

        One entry per retry (``max_attempts - 1`` in total).  The jitter
        stream is seeded from sha256 of the key, so the schedule is a
        pure function of (policy, key) — two processes retrying the same
        fingerprinted operation sleep identically.
        """
        seed = int.from_bytes(
            hashlib.sha256(key.encode()).digest()[:8], "big"
        )
        rng = random.Random(seed)
        schedule = []
        for attempt in range(self.max_attempts - 1):
            delay = min(self.max_delay, self.base_delay * (2.0 ** attempt))
            factor = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            schedule.append(delay * factor)
        return schedule


#: Retry policy used when a client is built without an explicit one.
DEFAULT_RETRY_POLICY = RetryPolicy()


def retry_call(
    fn: Callable,
    *,
    key: str,
    policy: "RetryPolicy | None" = None,
    sleep: Callable[[float], None] = time.sleep,
):
    """Call *fn* under *policy*, retrying transient failures.

    *key* is the operation's idempotency key (campaign/lease/store
    fingerprints); it seeds the jitter stream and names the operation in
    the :class:`~repro.errors.RetryExhausted` trace.  Non-transient
    errors propagate immediately, untouched.
    """
    policy = policy or DEFAULT_RETRY_POLICY
    backoffs = policy.backoffs(key)
    trace: list[dict] = []
    last: "TransientServiceError | None" = None
    for attempt in range(policy.max_attempts):
        try:
            return fn()
        except TransientServiceError as exc:
            last = exc
            backoff = backoffs[attempt] if attempt < len(backoffs) else None
            trace.append(
                {
                    "attempt": attempt + 1,
                    "error": f"{type(exc).__name__}: {exc}",
                    "backoff": round(backoff, 4)
                    if backoff is not None
                    else None,
                }
            )
            if backoff is None:
                break
            sleep(backoff)
    raise RetryExhausted(key, attempts=trace, detail=str(last)) from last
