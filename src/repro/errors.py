"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at the API boundary.  Sub-hierarchies mirror the
pipeline stages described in the paper: program construction (IR), execution
(interpreter), taint analysis, measurement, and modeling.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IRError(ReproError):
    """Malformed program IR (validation failures, duplicate names, ...)."""


class IRValidationError(IRError):
    """A program failed structural validation (see :mod:`repro.ir.validate`)."""


class InterpreterError(ReproError):
    """Runtime failure while interpreting a program."""


class UndefinedVariableError(InterpreterError):
    """A variable was read before any assignment."""

    def __init__(self, name: str, function: str | None = None) -> None:
        self.name = name
        self.function = function
        where = f" in function '{function}'" if function else ""
        super().__init__(f"undefined variable '{name}'{where}")


class UndefinedFunctionError(InterpreterError):
    """A call referenced a function unknown to the program and library DB."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"undefined function '{name}'")


class ArityError(InterpreterError):
    """A call supplied the wrong number of arguments."""

    def __init__(self, name: str, expected: int, got: int) -> None:
        self.name = name
        self.expected = expected
        self.got = got
        super().__init__(
            f"function '{name}' expects {expected} argument(s), got {got}"
        )


class ArrayIndexError(InterpreterError, IndexError):
    """An array load or store indexed outside ``[0, len)``.  Subclasses
    :class:`IndexError` so callers that guarded array access with
    ``except IndexError`` keep working."""


class ExecutionLimitError(InterpreterError):
    """An execution engine exceeded a configured limit (likely a hang).

    Raised for both the step budget (``ExecConfig.step_limit``) and the
    call-depth bound (``ExecConfig.max_call_depth``).  The message names
    the offending function and the configured limit; both are also
    exposed as attributes for programmatic handling.
    """

    def __init__(
        self,
        message: str,
        function: str | None = None,
        limit: int | None = None,
    ) -> None:
        super().__init__(message)
        self.function = function
        self.limit = limit


class TaintError(ReproError):
    """Failure inside the dynamic taint engine."""


class LabelExhaustionError(TaintError):
    """The 16-bit union-label space was exhausted (paper, section 5.2)."""


class RecursionUnsupportedError(TaintError):
    """Recursive call encountered: analysis results are over-approximated.

    The paper's analysis "does not support recursive functions" but "warns of
    over-approximation when recursion is detected" (section 4.1).  Engines
    raise this only in strict mode; the default is to warn.
    """


class RegistryError(ReproError, ValueError):
    """A component-registry lookup failed (unknown name, unnameable
    factory).  Subclasses :class:`ValueError` so pre-registry callers that
    guarded name lookups with ``except ValueError`` keep working."""


class PipelineError(ReproError):
    """A pipeline/campaign stage cannot run with the inputs it was given.

    Names the stage and, when applicable, the missing upstream artifact —
    both as message text and as attributes for programmatic handling.
    """

    def __init__(
        self,
        stage: str,
        message: str,
        missing_artifact: str | None = None,
    ) -> None:
        self.stage = stage
        self.missing_artifact = missing_artifact
        detail = message
        if missing_artifact is not None:
            detail = f"{message} (missing artifact: '{missing_artifact}')"
        super().__init__(f"stage '{stage}': {detail}")


class CampaignSpecError(ReproError):
    """A declarative campaign spec is malformed (unknown keys, bad types,
    unregistered component names)."""


class ArtifactError(ReproError):
    """A store payload (a stage artifact or run result) is not JSON."""


class ServiceError(ReproError):
    """Failure in the distributed campaign service (broker, worker,
    remote store, or campaign server).

    The service CLI boundary wraps bare socket/JSON failures into this
    hierarchy so users see which endpoint, lease, or fingerprint is
    involved instead of a raw traceback.
    """


class TransientServiceError(ServiceError):
    """A service failure that is expected to heal on retry.

    Connection refusals/resets, dropped or garbled responses, timeouts,
    and HTTP 5xx replies all land here: the request may simply be
    repeated (every service write is idempotent under its campaign or
    lease fingerprint).  The shared backoff policy in
    :mod:`repro.service.retry` retries exactly this class; everything
    else — version skew, malformed specs, unknown campaigns — is
    permanent and surfaces immediately.
    """


class RetryExhausted(ServiceError):
    """A retried call failed through its whole backoff budget.

    Carries the idempotency *key* that named the operation and the full
    per-attempt trace (error text and the backoff slept before the next
    try), so a flaky deployment is diagnosable from the exception alone.
    The last underlying error is chained as ``__cause__``.
    """

    def __init__(
        self,
        key: str,
        attempts: "list[dict] | None" = None,
        detail: str | None = None,
    ) -> None:
        self.key = key
        self.attempts = list(attempts or [])
        lines = [
            f"retry budget exhausted after {len(self.attempts)} attempt(s) "
            f"for '{key}'"
        ]
        if detail:
            lines[0] += f": {detail}"
        for entry in self.attempts:
            lines.append(
                f"  attempt {entry.get('attempt')}: {entry.get('error')}"
                + (
                    f" (backed off {entry.get('backoff'):g}s)"
                    if entry.get("backoff") is not None
                    else ""
                )
            )
        super().__init__("\n".join(lines))


class LeaseTimeout(ServiceError):
    """A measure-stage lease exhausted its retry budget.

    Every attempt either timed out (worker death, hang) or was failed
    explicitly by a worker.  The message names the lease, the owning job,
    and the configuration fingerprints still outstanding so the stuck
    work is identifiable in the shared cache.
    """

    def __init__(
        self,
        lease_id: str,
        job_id: str | None = None,
        attempts: int | None = None,
        fingerprints: "tuple[str, ...] | None" = None,
        detail: str | None = None,
    ) -> None:
        self.lease_id = lease_id
        self.job_id = job_id
        self.attempts = attempts
        self.fingerprints = tuple(fingerprints or ())
        parts = [f"lease '{lease_id}'"]
        if job_id is not None:
            parts.append(f"of job '{job_id}'")
        message = " ".join(parts)
        if attempts is not None:
            message += f" failed after {attempts} attempt(s)"
        if self.fingerprints:
            shown = ", ".join(fp[:12] for fp in self.fingerprints[:3])
            more = (
                f" (+{len(self.fingerprints) - 3} more)"
                if len(self.fingerprints) > 3
                else ""
            )
            message += f"; outstanding run fingerprints: {shown}{more}"
        if detail:
            message += f"; last error: {detail}"
        message += (
            " — check worker logs, then resubmit: completed leases are "
            "already in the shared cache and will not re-execute"
        )
        super().__init__(message)


class ProtocolVersionMismatch(ServiceError):
    """A service message carried an incompatible protocol version.

    Raised instead of silently misinterpreting messages when brokers,
    workers, and clients are running different repro versions.
    """

    def __init__(self, got: object, expected: int) -> None:
        self.got = got
        self.expected = expected
        super().__init__(
            f"service protocol version mismatch: peer sent {got!r}, this "
            f"process speaks version {expected} — upgrade the older side "
            "(broker, worker, and client must run the same repro protocol)"
        )


class MeasurementError(ReproError):
    """Failure in the measurement / instrumentation substrate."""


class ModelingError(ReproError):
    """Failure in the empirical modeling substrate (Extra-P reimplementation)."""


class DesignError(ReproError):
    """Invalid experiment design specification."""
