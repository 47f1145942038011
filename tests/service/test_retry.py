"""The shared retry/backoff policy: deterministic jitter, typed exhaustion."""

from __future__ import annotations

import pytest

from repro.errors import RetryExhausted, ServiceError, TransientServiceError
from repro.service.retry import RetryPolicy, retry_call


class TestRetryPolicy:
    def test_backoff_schedule_is_deterministic_per_key(self):
        policy = RetryPolicy(max_attempts=5)
        assert policy.backoffs("store.get:runs/abc") == policy.backoffs(
            "store.get:runs/abc"
        )

    def test_different_keys_jitter_differently(self):
        policy = RetryPolicy(max_attempts=6)
        assert policy.backoffs("key-one") != policy.backoffs("key-two")

    def test_schedule_is_bounded_exponential(self):
        policy = RetryPolicy(
            max_attempts=8, base_delay=0.1, max_delay=1.0, jitter=0.25
        )
        schedule = policy.backoffs("k")
        assert len(schedule) == 7
        for attempt, delay in enumerate(schedule):
            ideal = min(1.0, 0.1 * 2.0**attempt)
            assert ideal * 0.75 <= delay <= ideal * 1.25

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.1, max_delay=10.0, jitter=0.0
        )
        assert policy.backoffs("anything") == [0.1, 0.2, 0.4]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)


class TestRetryCall:
    def test_success_needs_no_sleep(self):
        slept = []
        result = retry_call(
            lambda: 42, key="k", sleep=slept.append
        )
        assert result == 42
        assert slept == []

    def test_transient_failures_are_retried(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientServiceError("connection reset")
            return "ok"

        slept = []
        policy = RetryPolicy(max_attempts=4)
        assert (
            retry_call(flaky, key="k", policy=policy, sleep=slept.append)
            == "ok"
        )
        assert len(calls) == 3
        # The two sleeps are the first two entries of the key's
        # deterministic schedule.
        assert slept == policy.backoffs("k")[:2]

    def test_permanent_errors_propagate_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise ServiceError("unknown campaign 'C9'")

        with pytest.raises(ServiceError):
            retry_call(broken, key="k", sleep=lambda _: None)
        assert len(calls) == 1

    def test_exhaustion_raises_typed_error_with_trace(self):
        def always_down():
            raise TransientServiceError("connection refused")

        policy = RetryPolicy(max_attempts=3, base_delay=0.01)
        with pytest.raises(RetryExhausted) as excinfo:
            retry_call(
                always_down, key="store.put:runs/fp", policy=policy,
                sleep=lambda _: None,
            )
        exc = excinfo.value
        assert exc.key == "store.put:runs/fp"
        assert len(exc.attempts) == 3
        assert all(
            "connection refused" in entry["error"] for entry in exc.attempts
        )
        # The final attempt has no backoff (nothing follows it).
        assert exc.attempts[-1]["backoff"] is None
        assert isinstance(exc.__cause__, TransientServiceError)
        assert "store.put:runs/fp" in str(exc)
        # RetryExhausted is itself permanent: nesting retry layers must
        # not multiply attempts.
        assert not isinstance(exc, TransientServiceError)

    def test_single_attempt_policy_never_sleeps(self):
        slept = []
        policy = RetryPolicy(max_attempts=1)
        with pytest.raises(RetryExhausted):
            retry_call(
                lambda: (_ for _ in ()).throw(
                    TransientServiceError("down")
                ),
                key="k",
                policy=policy,
                sleep=slept.append,
            )
        assert slept == []
