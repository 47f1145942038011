"""Span tracing for the traced benchmark run, installed from outside.

The program under test has no spans of its own yet, so the traced run
wraps the public call at each layer boundary of ``repro`` and records
one span per call.  A wrapper is installed where the caller looks the
name up -- every ``repro`` module global bound to the function (which
also covers function-local ``from ..interp import make_engine`` imports,
because those read the package attribute), class attributes for
methods, and the entries of the stage table -- and removed afterwards.
No source file is touched.

Each span records its name, start, end, parent span, thread and
campaign id.  Spans stay in memory and are written as Chrome trace-event
JSON at exit; :func:`layer_metrics` reduces them to per-campaign self
times and counts.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from typing import Callable

from workloads import ALL_STAGES

_MISSING = object()


#: Fields of a recorded span.  Spans are plain tuples of numbers and
#: strings, which the garbage collector stops tracking, so holding many
#: of them does not slow the campaigns that follow.
ID, PARENT, NAME, CAMPAIGN, TID, START, END = range(7)


class Tracer:
    """In-memory spans and per-campaign counters.

    ``campaign`` labels everything recorded while it is set; the
    benchmark is a closed loop with one campaign in flight, so a single
    label covers the client, server, campaign and worker threads alike.
    Spans and counts recorded while it is ``None`` are dropped.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[tuple, float] = {}
        self.campaign: "str | None" = None
        #: Span id of the worker's broker RPC in flight; the broker call
        #: it causes runs on an HTTP handler thread and adopts it.
        self.remote_parent = 0
        self.submitted: dict[str, int] = {}
        self._granted: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> "str | None":
        """Name of this thread's innermost open span."""
        stack = self._stack()
        return stack[-1][NAME] if stack else None

    def begin(self, name: str, adopt_remote: bool = False) -> tuple:
        """Open a span; returns its open record for :meth:`end`."""
        stack = self._stack()
        if stack:
            parent = stack[-1][ID]
        else:
            parent = self.remote_parent if adopt_remote else 0
        record = (
            next(self._ids),
            parent,
            name,
            self.campaign,
            threading.get_ident(),
            time.perf_counter_ns(),
        )
        stack.append(record)
        return record

    def end(self, record: tuple) -> None:
        end = time.perf_counter_ns()
        self._stack().pop()
        if record[CAMPAIGN] is not None:
            self.spans.append(record + (end,))

    def interval(self, name: str, start: int, end: int) -> None:
        """A span that no single call covers (queue wait)."""
        if self.campaign is not None:
            self.spans.append(
                (next(self._ids), 0, name, self.campaign, 0, start, end)
            )

    def count(self, name: str, amount: float = 1) -> None:
        campaign = self.campaign
        if campaign is None:
            return
        with self._lock:
            key = (campaign, name)
            self.counts[key] = self.counts.get(key, 0) + amount

    def first_grant(self, job: str) -> bool:
        with self._lock:
            if job in self._granted:
                return False
            self._granted.add(job)
            return True

    def timed(
        self,
        name: "str | Callable",
        after: "Callable | None" = None,
        adopt_remote: bool = False,
        remote_parent: bool = False,
    ) -> Callable:
        """Decorator factory: time every call of a function as a span.

        *name* is a span name or ``f(args, kwargs) -> name``; *after*
        is called as ``after(args, kwargs, result, outer)`` once the
        span closes, with *outer* the enclosing span's name, to count
        work done.
        """

        def decorate(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                outer = self.current()
                label = name(args, kwargs) if callable(name) else name
                span = self.begin(label, adopt_remote)
                if remote_parent:
                    self.remote_parent = span[ID]
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if remote_parent:
                        self.remote_parent = 0
                    self.end(span)
                if after is not None:
                    after(args, kwargs, result, outer)
                return result

            return wrapper

        return decorate

    # -- output --------------------------------------------------------

    def write_chrome_trace(self, path: str) -> None:
        """All spans as Chrome trace-event JSON (Perfetto, chrome://tracing)."""
        events = []
        origin = min((s[START] for s in self.spans), default=0)
        pid = os.getpid()
        for span in self.spans:
            events.append(
                {
                    "name": span[NAME],
                    "cat": span[NAME].split(".", 1)[0],
                    "ph": "X",
                    "ts": (span[START] - origin) / 1000.0,
                    "dur": (span[END] - span[START]) / 1000.0,
                    "pid": pid,
                    "tid": span[TID],
                    "args": {
                        "span": span[ID],
                        "parent": span[PARENT],
                        "campaign": span[CAMPAIGN],
                    },
                }
            )
        with open(path, "w") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms"}, handle
            )


def _resolve(target: str):
    """``"pkg.module:Class"`` -> the class, ``"pkg.module"`` -> the module."""
    module, _, attr = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, attr) if attr else owner


class Patches:
    """Reversible replacements of attributes and table entries.

    Targets are named by import path, so a target a later change removes
    is recorded in :attr:`missing` (its metrics then read 0) instead of
    breaking the traced run.
    """

    def __init__(self) -> None:
        self._undo: list[tuple] = []
        #: Targets that do not exist at this commit.
        self.missing: list[str] = []

    def attribute(self, target: str, name: str, wrap: Callable) -> None:
        """Wrap attribute *name* of the class or module *target*."""
        try:
            owner = _resolve(target)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            self.missing.append(f"{target}.{name}")
            return
        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, wrap(original))

    def function(self, module: str, name: str, wrap: Callable) -> None:
        """Wrap a function in every ``repro`` module that binds it."""
        try:
            original = getattr(_resolve(module), name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{name}")
            return
        wrapper = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.partition(".")[0] != "repro":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def stages(self, encode: Callable, decode: Callable) -> None:
        """Wrap every stage's ``to_payload``/``from_payload`` in the stage
        table the campaign iterates."""
        try:
            table = _resolve("repro.core.stages").STAGES
            replaced = {
                key: dataclasses.replace(
                    stage,
                    to_payload=encode(stage.to_payload),
                    from_payload=decode(stage.from_payload),
                )
                for key, stage in table.items()
            }
        except (ImportError, AttributeError, TypeError):
            self.missing.append("repro.core.stages.STAGES payload codecs")
            return
        for key, stage in replaced.items():
            self._undo.append((table, key, table[key]))
            table[key] = stage

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = old
            elif old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)


def _file_size(store, *key) -> int:
    """Bytes of the entry a store just wrote (0 if its layout changed)."""
    try:
        return os.path.getsize(store._path(*key))
    except (AttributeError, OSError, TypeError, ValueError):
        return 0


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary the per-layer metrics need."""
    from repro.registry import WORKLOAD_REGISTRY, load_builtin_components

    load_builtin_components()
    p = Patches()
    t = tracer.timed
    count = tracer.count

    def counted(metric, amount=lambda a, k, r: 1, unless_inside=None):
        """``after`` hook adding *amount* to *metric*, except for calls
        nested in a span named *unless_inside* (counted by the outer)."""

        def after(args, kwargs, result, outer):
            if unless_inside is None or outer != unless_inside:
                count(metric, amount(args, kwargs, result))

        return after

    def tally(metric):
        """Count calls without a span."""

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                count(metric)
                return fn(*args, **kwargs)

            return wrapper

        return wrap

    # campaign stages and their bookkeeping
    campaign = "repro.core.stages:Campaign"
    p.attribute(campaign, "run_stage", t(lambda a, k: f"stage.{a[1].name}"))
    p.attribute(campaign, "stage_fingerprint", t("core.fingerprint"))
    p.function("repro.measure.io", "program_hash", t("core.fingerprint"))
    for name in WORKLOAD_REGISTRY.names():
        cls = WORKLOAD_REGISTRY.entry(name).factory
        if isinstance(cls, type) and "program" in vars(cls):
            target = f"{cls.__module__}:{cls.__qualname__}"
            p.attribute(target, "program", t("apps.program_build"))

    def artifact_got(args, kwargs, result, outer):
        count("core.artifacts.gets")
        if result is not None:
            count("core.artifacts.hits")

    def artifact_put(args, kwargs, result, outer):
        count("core.artifacts.puts")
        count("core.artifacts.put_bytes", _file_size(*args[:3]))

    store = "repro.core.artifacts:ArtifactStore"
    p.attribute(store, "get", t("core.artifacts.get", artifact_got))
    p.attribute(store, "put", t("core.artifacts.put", artifact_put))
    p.stages(t("core.artifacts.encode"), t("core.artifacts.decode"))

    # analysis layers
    p.function(
        "repro.staticanalysis.prune",
        "analyze_program",
        t("staticanalysis.analyze"),
    )
    p.attribute("repro.taint.engine:TaintEngine", "analyze", t("taint.analyze"))
    p.function("repro.volume.loopnest", "compute_volumes", t("volume.compute"))
    p.function("repro.volume.depclass", "classify_program", t("volume.classify"))

    # engine and measure path
    p.function(
        "repro.interp",
        "make_engine",
        t("interp.make_engine", counted("interp.engines_built")),
    )
    profile_run = counted("measure.profile_runs", unless_inside="measure.profile")
    p.function(
        "repro.measure.profiler", "profile_run", t("measure.profile", profile_run)
    )
    p.function(
        "repro.measure.profiler",
        "profile_run_batch",
        t(
            "measure.profile",
            counted("measure.profile_runs", lambda a, k, r: len(r)),
        ),
    )
    stream = counted("measure.noise_streams", unless_inside="measure.noise")
    p.function("repro.measure.noise", "rng_for", t("measure.noise", stream))
    for cls in ("GaussianNoise", "NoNoise"):
        p.attribute(f"repro.measure.noise:{cls}", "perturb", t("measure.noise"))
    p.function(
        "repro.measure.noise",
        "perturb_block",
        t(
            "measure.noise",
            counted(
                "measure.noise_streams",
                lambda a, k, r: sum(len(row) for row in r),
            ),
        ),
    )
    for name in ("merge_results", "merge_results_dense"):
        p.function("repro.measure.experiment", name, t("measure.merge"))

    # model and validate
    p.attribute(
        "repro.core.hybrid:HybridModeler",
        "model_all",
        t("modeling.fit", counted("modeling.functions", lambda a, k, r: len(r))),
    )
    p.function(
        "repro.core.validation", "detect_contention", t("validation.detect")
    )

    # campaign service
    client = "repro.service.server:ServiceClient"
    p.attribute(client, "submit", t("service.submit"))
    p.attribute(client, "status", tally("service.status_polls"))

    def submitted(args, kwargs, result, outer):
        tracer.submitted[str(result)] = time.perf_counter_ns()

    def claimed(args, kwargs, result, outer):
        count("service.claims")
        if not result:
            return
        count("service.leases")
        count("service.lanes", len(result.get("indices", ())))
        job = str(result.get("job"))
        start = tracer.submitted.get(job)
        if start is not None and tracer.first_grant(job):
            tracer.interval("service.queue_wait", start, time.perf_counter_ns())

    broker = "repro.service.broker:Broker"
    p.attribute(broker, "submit_measure", t("service.submit_measure", submitted))
    p.attribute(broker, "claim", t("service.claim", claimed, adopt_remote=True))
    p.attribute(broker, "complete", t("service.complete", adopt_remote=True))
    p.attribute(broker, "wait", t("service.broker_wait"))
    p.attribute("repro.service.worker:Worker", "execute", t("service.execute"))
    for name in ("claim", "complete"):
        p.attribute(
            "repro.service.worker:HttpBrokerTransport",
            name,
            t("service.rpc", remote_parent=True),
        )

    def local_put(args, kwargs, result, outer):
        count("service.store_puts")
        count("service.store_put_bytes", _file_size(*args[:3]))

    local = "repro.service.remote_store:LocalStore"
    p.attribute(local, "put", t("service.store_put", local_put))
    for name in ("get", "has_many"):
        p.attribute(
            local, name, t("service.store_get", counted("service.store_gets"))
        )
    p.attribute(
        "repro.service.journal:ServiceJournal",
        "record",
        t("service.journal", counted("service.journal_records")),
    )

    def retry_wrap(fn):
        @functools.wraps(fn)
        def retry_call(call, *args, **kwargs):
            attempts = [0]

            def attempt():
                attempts[0] += 1
                return call()

            try:
                return fn(attempt, *args, **kwargs)
            finally:
                if attempts[0] > 1:
                    count("service.retries", attempts[0] - 1)

        return retry_call

    p.function("repro.service.retry", "retry_call", retry_wrap)
    return p


#: Spans whose self time, summed over a campaign, is a per-layer metric
#: named ``<span>_s``; ``stage.<name>`` spans are summed inclusive.
SELF_TIME_SPANS = (
    "apps.program_build",
    "core.fingerprint",
    "core.artifacts.get",
    "core.artifacts.decode",
    "core.artifacts.put",
    "core.artifacts.encode",
    "staticanalysis.analyze",
    "taint.analyze",
    "volume.compute",
    "volume.classify",
    "interp.make_engine",
    "measure.profile",
    "measure.noise",
    "measure.merge",
    "modeling.fit",
    "validation.detect",
    "service.submit",
    "service.queue_wait",
    "service.execute",
    "service.rpc",
    "service.complete",
    "service.broker_wait",
    "service.store_put",
    "service.store_get",
    "service.journal",
)

#: Per-layer counters, read straight from the tracer.
COUNTS = {
    "core.artifacts.gets": "count",
    "core.artifacts.puts": "count",
    "core.artifacts.put_bytes": "bytes",
    "interp.engines_built": "count",
    "measure.profile_runs": "count",
    "measure.noise_streams": "count",
    "modeling.functions": "count",
    "service.claims": "count",
    "service.leases": "count",
    "service.store_puts": "count",
    "service.store_put_bytes": "bytes",
    "service.store_gets": "count",
    "service.journal_records": "count",
    "service.status_polls": "count",
    "service.retries": "count",
}

#: Ratios: metric -> (numerator counter, denominator counter).
RATIOS = {
    "core.artifacts.hit_ratio": ("core.artifacts.hits", "core.artifacts.gets"),
    "service.claim_hit_ratio": ("service.leases", "service.claims"),
    "service.lanes_per_lease": ("service.lanes", "service.leases"),
}


def layer_metrics(tracer: Tracer, campaigns: list[str]) -> dict:
    """Per-campaign self times, stage times and counts; medians over
    *campaigns*.  Returns ``metric -> (value, unit)``."""
    child_ns: dict[int, int] = {}
    for span in tracer.spans:
        if span[PARENT]:
            child_ns[span[PARENT]] = child_ns.get(span[PARENT], 0) + (
                span[END] - span[START]
            )
    self_s: dict[tuple, float] = {}
    stage_s: dict[tuple, float] = {}
    for span in tracer.spans:
        duration = span[END] - span[START]
        key = (span[CAMPAIGN], span[NAME])
        own = max(0, duration - child_ns.get(span[ID], 0))
        self_s[key] = self_s.get(key, 0.0) + own / 1e9
        if span[NAME].startswith("stage."):
            stage_s[key] = stage_s.get(key, 0.0) + duration / 1e9

    def median(values):
        return statistics.median(values) if values else 0.0

    out: dict[str, tuple] = {}
    for stage in ALL_STAGES:
        out[f"stage.{stage}_s"] = (
            median([stage_s.get((c, f"stage.{stage}"), 0.0) for c in campaigns]),
            "s",
        )
    for name in SELF_TIME_SPANS:
        out[f"{name}_s"] = (
            median([self_s.get((c, name), 0.0) for c in campaigns]),
            "s",
        )
    for metric, unit in COUNTS.items():
        out[metric] = (
            median([tracer.counts.get((c, metric), 0) for c in campaigns]),
            unit,
        )
    for metric, (num, den) in RATIOS.items():
        values = []
        for c in campaigns:
            d = tracer.counts.get((c, den), 0)
            values.append(tracer.counts.get((c, num), 0) / d if d else 0.0)
        out[metric] = (median(values), "ratio")
    return out
