"""Command-line interface: ``python -m repro <command> ...``.

Commands mirror the pipeline stages on the registered workloads:

* ``analyze <app>`` — static + taint analysis, Table 2/3 style report;
* ``taint --app <app>`` — the taint stage alone, with a deterministic
  report fingerprint;
* ``model <app> --values p=27,64 size=10,20`` — full pipeline with models;
* ``run <spec.toml>`` — a declarative campaign with a persistent,
  resumable artifact workspace;
* ``apps`` / ``stages`` — list registered workloads and pipeline stages;
* ``engines`` — list registered execution engines with their capability
  flag (``supports_batch``);
* ``contention <app> --r 2,4,8,16`` — ranks-per-node study (C1);
* ``segments <app> --p 4,8,32`` — branch-direction validation (C2);
* ``sweep <app> --values p=2,4 s=4,8 --jobs 4`` — measurement stage only,
  fanned out over worker processes with an optional on-disk run cache;
* ``serve --state-dir DIR`` / ``worker --server URL`` / ``submit <spec.toml>
  --server URL`` / ``status <id> --server URL`` — the distributed
  campaign service: a long-lived server owning the shared artifact
  store, workers pulling measure-stage leases over HTTP, and clients
  submitting campaign specs and polling per-stage provenance (see
  :mod:`repro.service`).

``<app>`` is any registered workload — the bundled ``lulesh``, ``milc``
and ``synthetic``, plus anything user code registers via
:func:`repro.registry.register_workload` before invoking :func:`main`.
``model`` and ``sweep`` take ``--jobs N`` to parallelize the instrumented
experiments and ``--cache-dir DIR`` to reuse already-measured
configurations across invocations; results are bit-identical for every
jobs count.  Measurement commands take ``--engine`` to pick a registered
execution engine (default: ``vectorized``, which runs the whole sweep as
tensor batches; ``tree`` is the one-configuration-at-a-time tree-walker,
the scalar reference, bit-identical).  The taint stage has one engine,
the shadow-tracking tree-walker, so no command chooses it.  Everything
prints plain text; the same functionality is available programmatically
via :mod:`repro.api`.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from typing import Sequence

from .core.pipeline import PerfTaintPipeline
from .core.classify import table3_counts
from .core.report import render_summary, render_table2, render_table3
from .core.stages import STAGES, Campaign
from .core.validation import detect_segmented_behavior
from .errors import ReproError
from .interp import DEFAULT_MEASUREMENT_ENGINE
from .libdb import MPI_DATABASE
from .measure.instrumentation import InstrumentationMode
from .measure.profiler import APP_KEY
from .mpisim.contention import LogQuadraticContention
from .registry import (
    ENGINE_REGISTRY,
    WORKLOAD_REGISTRY,
    load_builtin_components,
)


def _workload(name: str, parameters: tuple[str, ...] | None = None):
    """Build the registered workload *name*.

    Unknown names exit with a one-line error listing every registered
    app — including apps registered by user code, not a frozen literal
    list.
    """
    try:
        factory = WORKLOAD_REGISTRY.get(name)
    except ReproError:
        raise SystemExit(
            f"error: unknown app '{name}' "
            f"(valid apps: {', '.join(WORKLOAD_REGISTRY.names())})"
        ) from None
    return factory(parameters=parameters) if parameters else factory()


def _check_app_supports(workload, config: dict, app: str) -> None:
    """Exit with a one-line error when *workload* cannot run *config*.

    With app names validated against the live registry (not argparse
    ``choices``), a command's hard-coded inputs may not exist on every
    registered workload — probe the setup instead of letting a raw
    ``KeyError`` escape mid-run.
    """
    try:
        workload.setup(dict(config))
    except KeyError as exc:
        raise SystemExit(
            f"error: app '{app}' does not support this command: "
            f"the workload needs an input {exc.args[0]!r} that the "
            f"command's configuration does not provide"
        ) from None


def _table_params(workload, name: str) -> list[str]:
    """Table 3 rows: the registered parameter list, or the workload's
    annotated parameters plus the implicit ``p``."""
    params = WORKLOAD_REGISTRY.entry(name).metadata.get("params")
    if params:
        return list(params)
    annotated = getattr(workload, "annotated", None)
    if annotated:
        return ["p", *annotated]
    return list(workload.parameters)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got '{text}'")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _cache_dir(text: str) -> str:
    import pathlib

    path = pathlib.Path(text)
    if path.exists() and not path.is_dir():
        raise argparse.ArgumentTypeError(
            f"'{text}' exists and is not a directory"
        )
    return text


def _parse_values(pairs: Sequence[str]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"expected name=v1,v2,... got '{pair}'")
        name, values = pair.split("=", 1)
        out[name] = [float(v) for v in values.split(",") if v]
        if not out[name]:
            raise SystemExit(f"no values for parameter '{name}'")
    return out


def cmd_analyze(args: argparse.Namespace) -> int:
    workload = _workload(args.app)
    pipeline = PerfTaintPipeline(workload=workload)
    static, taint, volumes, deps, classification = pipeline.analyze()
    print(render_table2(args.app.upper(), classification))
    print()
    print(
        render_table3(
            args.app.upper(),
            table3_counts(
                workload.program(), taint, _table_params(workload, args.app)
            ),
        )
    )
    if taint.warnings:
        print("\nWarnings:")
        for w in taint.warnings:
            print(f"  * {w}")
    return 0


def cmd_taint(args: argparse.Namespace) -> int:
    from .codec import encode
    from .core.artifacts import artifact_fingerprint

    workload = _workload(args.app)
    taint = PerfTaintPipeline(workload=workload).analyze_taint()
    print(f"taint analysis of '{args.app}'")
    print(f"  parameters:         {', '.join(taint.parameters) or '-'}")
    print(f"  executed functions: {len(taint.executed_functions)}")
    print(
        f"  loop records:       {len(taint.loop_records)} "
        f"({len(taint.relevant_loops())} parameter-dependent)"
    )
    print(f"  branch records:     {len(taint.branch_records)}")
    print(f"  library records:    {len(taint.library_records)}")
    # Content fingerprint of the canonical report payload (the taint
    # stage digest the stage-digest tests pin).
    print(
        "  report fingerprint: "
        f"{artifact_fingerprint(encode(taint))}"
    )
    if taint.warnings:
        print("warnings:")
        for w in taint.warnings:
            print(f"  * {w}")
    return 0


def cmd_model(args: argparse.Namespace) -> int:
    values = _parse_values(args.values)
    workload = _workload(args.app, tuple(values))
    _check_app_supports(
        workload, {name: vals[0] for name, vals in values.items()}, args.app
    )
    pipeline = PerfTaintPipeline(
        workload=workload,
        repetitions=args.repetitions,
        seed=args.seed,
        n_jobs=args.jobs,
        cache_dir=args.cache_dir,
        engine=args.engine,
    )
    result = pipeline.run(
        values,
        mode=InstrumentationMode(args.mode),
        compare_black_box=args.compare,
    )
    print(render_summary(args.app.upper(), result))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    campaign = Campaign.from_toml(args.spec, workspace=args.workspace)
    if args.jobs is not None:
        campaign.n_jobs = args.jobs
    started = time.perf_counter()
    result = campaign.run()
    elapsed = time.perf_counter() - started
    name = getattr(campaign.workload, "name", "campaign")
    print(render_summary(str(name).upper(), result))
    print()
    for stage_name, how in campaign.stage_stats.items():
        print(f"  {stage_name:<9} {how}")
    lanes = campaign.measure_telemetry.get("lanes")
    if lanes:
        print(
            f"  lanes     {lanes['planned']} planned, "
            f"{lanes['executed']} executed, "
            f"{lanes['deduped']} deduplicated"
        )
    print(f"{campaign.stats_line()} in {elapsed:.2f}s")
    if campaign.workspace is not None:
        print(f"workspace: {campaign.workspace.root}")
    return 0


def cmd_apps(args: argparse.Namespace) -> int:
    for entry in WORKLOAD_REGISTRY:
        params = entry.metadata.get("params")
        extra = f"  (parameters: {', '.join(params)})" if params else ""
        print(f"{entry.name:<12} {entry.description}{extra}")
    return 0


def cmd_engines(args: argparse.Namespace) -> int:
    for entry in ENGINE_REGISTRY:
        batch = entry.metadata.get("supports_batch")
        extra = "  [supports_batch]" if batch else ""
        print(f"{entry.name:<12} {entry.description}{extra}")
    return 0


def cmd_stages(args: argparse.Namespace) -> int:
    for stage in STAGES.values():
        inputs = ", ".join(stage.inputs) if stage.inputs else "-"
        print(f"{stage.name:<9} <- {inputs:<24} {stage.description}")
    return 0


def cmd_contention(args: argparse.Namespace) -> int:
    workload = _workload(args.app, ("r",))
    _check_app_supports(
        workload, {"r": 2.0, "p": args.p, "size": args.size}, args.app
    )
    pipeline = PerfTaintPipeline(
        workload=workload,
        repetitions=args.repetitions,
        seed=args.seed,
        contention=LogQuadraticContention(beta=args.beta),
        engine=args.engine,
    )
    static, taint, volumes, deps, _ = pipeline.analyze()
    plan = pipeline.plan_for(InstrumentationMode.TAINT_FILTER, taint, static)
    design = [
        {"r": r, "p": args.p, "size": args.size}
        for r in [float(v) for v in args.r.split(",")]
    ]
    meas, _ = pipeline.measure(design, plan)
    models = pipeline.model(meas, taint, volumes, compare_black_box=True)
    findings = pipeline.validate(meas, models, taint)
    if APP_KEY not in models:
        raise SystemExit(
            "error: no whole-application model could be fitted "
            "(all measurements failed the noise screen)"
        )
    app_model = models[APP_KEY].black_box or models[APP_KEY].hybrid
    print(f"application model over r: {app_model.format()}")
    print(f"contention findings: {len(findings)}")
    for f in findings:
        print(f"  ! {f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .measure.experiment import full_factorial
    from .measure.instrumentation import full_plan
    from .measure.parallel import ExperimentRunner

    values = _parse_values(args.values)
    workload = _workload(args.app, tuple(values))
    design = full_factorial(values)
    _check_app_supports(workload, design[0], args.app)
    runner = ExperimentRunner(
        workload=workload,
        plan=full_plan(workload.program()),
        repetitions=args.repetitions,
        seed=args.seed,
        n_jobs=args.jobs,
        cache_dir=args.cache_dir,
        engine=args.engine,
    )
    started = time.perf_counter()
    measurements, profiles = runner.run(design)
    elapsed = time.perf_counter() - started
    samples = sum(
        len(v) for per_fn in measurements.data.values() for v in per_fn.values()
    )
    # A repeated design point is measured once (unique_configurations).
    repeated = len(design) - runner.last_stats.total
    print(
        f"swept {len(design)} configurations "
        f"({runner.last_stats.executed} executed, "
        f"{runner.last_stats.cached} from cache"
        + (f", {repeated} repeated" if repeated else "")
        + f") with {args.jobs} job(s) in {elapsed:.2f}s"
    )
    lane_stats = runner.last_lane_stats
    if lane_stats.planned:
        print(
            f"lanes: {lane_stats.planned} planned "
            f"(configurations x repetitions), "
            f"{lane_stats.executed} executed, "
            f"{lane_stats.deduped} deduplicated"
        )
    print(
        f"collected {samples} measurements over "
        f"{len(measurements.functions())} functions"
    )
    if args.output:
        from .measure.io import save_measurements

        save_measurements(measurements, args.output)
        print(f"wrote {args.output}")
    return 0


def cmd_segments(args: argparse.Namespace) -> int:
    workload = _workload(args.app)
    configs = [
        {"p": float(p), "size": args.size}
        for p in args.p.split(",")
    ]
    _check_app_supports(workload, configs[0], args.app)
    findings = detect_segmented_behavior(
        workload.program(),
        configs,
        workload.setup,
        workload.sources(),
        library_taint=MPI_DATABASE,
    )
    if not findings:
        print("no qualitative behavior changes detected")
    for f in findings:
        print(
            f"! {f.function} branch {f.branch_id} "
            f"(depends on {sorted(f.params)}): {f.boundary()}"
        )
    return 0


def _print_campaign_status(status: dict) -> None:
    print(f"campaign {status.get('id')}: {status.get('state')}")
    if status.get("recovered"):
        restarts = status.get("restarts", 0)
        detail = (
            f"re-driven across {restarts} server restart(s)"
            if restarts
            else "restored from the journal after a server restart"
        )
        print(f"recovered: true ({detail})")
    for stage_name, how in status.get("stages", {}).items():
        print(f"  {stage_name:<9} {how}")
    if status.get("profile_executions") is not None:
        print(f"profile executions: {status['profile_executions']}")
    if status.get("stats_line"):
        print(status["stats_line"])
    if status.get("error"):
        print(f"error: {status['error']}")


def cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .service import serve

    httpd = serve(
        args.state_dir,
        host=args.host,
        port=args.port,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
        chunk_size=args.chunk_size,
        verbose=args.verbose,
        target_lease_seconds=args.target_lease_seconds,
        journal=not args.no_journal,
    )
    host, port = httpd.server_address[:2]
    restarts = getattr(httpd.service, "restarts", 0)
    print(f"campaign server on http://{host}:{port} (state: {args.state_dir})")
    if restarts:
        print(
            f"recovered state from {args.state_dir} "
            f"(restart #{restarts} on this state directory)"
        )
    print("submit campaigns with: repro submit <spec> --server "
          f"http://{host}:{port}")
    print("attach workers with:   repro worker --server "
          f"http://{host}:{port}")

    def _drain_and_stop(signum, frame):  # pragma: no cover - signal path
        # Drain on a helper thread: httpd.shutdown() deadlocks when
        # called from the serve_forever thread a signal interrupted.
        def drain():
            clean = httpd.service.drain(timeout=args.drain_timeout)
            print(
                "drained clean, shutting down"
                if clean
                else "drain timed out with leases in flight, shutting down"
            )
            httpd.shutdown()

        threading.Thread(target=drain, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _drain_and_stop)
    except ValueError:  # pragma: no cover - non-main thread (tests)
        pass
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        httpd.server_close()
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    from .service import HttpBrokerTransport, Worker

    worker = Worker(
        HttpBrokerTransport(args.server),
        worker_id=args.id,
        poll_interval=args.poll_interval,
        max_leases=args.max_leases,
        stop_when_idle=args.stop_when_idle,
        idle_timeout=args.idle_timeout,
        batch=not args.no_batch,
        reconnect_timeout=args.reconnect_timeout,
    )
    print(f"worker '{args.id}' pulling leases from {args.server}")
    try:
        stats = worker.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0
    if stats.fatal_error is not None:
        print(f"worker '{args.id}' fatal: {stats.fatal_error}")
        return 1
    reconnect_text = (
        f", {stats.reconnects} reconnect(s)" if stats.reconnects else ""
    )
    print(
        f"worker '{args.id}' done: {stats.completed} lease(s) completed "
        f"({stats.configurations} configuration(s)), "
        f"{stats.failed} failed{reconnect_text}"
    )
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    spec = Campaign.read_spec(args.spec)
    client = ServiceClient(args.server)
    campaign_id = client.submit(spec)
    print(f"submitted campaign {campaign_id} to {args.server}")
    if args.no_wait:
        print(f"poll with: repro status {campaign_id} --server {args.server}")
        return 0
    status = client.wait(campaign_id, timeout=args.timeout)
    _print_campaign_status(status)
    return 0 if status.get("state") == "done" else 1


def _print_telemetry(telemetry: dict) -> None:
    workers = telemetry.get("workers") or []
    leases = telemetry.get("leases") or []
    print(f"workers ({len(workers)}):")
    for w in workers:
        rate = w.get("lanes_per_sec")
        rate_text = f"{rate:g} lanes/s" if rate is not None else "rate unknown"
        mode = "batch" if w.get("supports_batch") else "scalar"
        quarantine_text = " [QUARANTINED]" if w.get("quarantined") else ""
        print(
            f"  {w.get('worker'):<12} {mode:<6} {rate_text:<16} "
            f"{w.get('leases_completed')} lease(s), "
            f"{w.get('lanes_completed')} lane(s)"
            f"{quarantine_text}"
        )
    print(f"leases ({len(leases)}):")
    for r in leases:
        seconds = r.get("seconds")
        timing = f"{seconds:.3f}s" if seconds is not None else "-"
        splits = r.get("splits") or 0
        split_text = f", {splits} split(s)" if splits else ""
        print(
            f"  {r.get('lease'):<6} {r.get('job'):<5} "
            f"{str(r.get('worker')):<12} {r.get('status'):<9} "
            f"{r.get('configurations')} cfg(s), "
            f"attempt {r.get('attempt')}, {timing}{split_text}"
        )
    store = telemetry.get("store")
    if store is not None:
        print(
            f"store: {store.get('corrupt_entries', 0)} corrupt "
            "entr(y/ies) quarantined"
        )
    service = telemetry.get("service")
    if service is not None:
        recovered = service.get("recovered_campaigns") or []
        recovered_text = (
            f", recovered campaigns: {', '.join(recovered)}"
            if recovered
            else ""
        )
        print(
            f"service: {service.get('restarts', 0)} restart(s), "
            f"{service.get('journal_corrupt_entries', 0)} corrupt "
            f"journal entr(y/ies){recovered_text}"
        )


def cmd_status(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    client = ServiceClient(args.server)
    status = client.status(args.id)
    _print_campaign_status(status)
    if args.telemetry:
        print()
        _print_telemetry(client.telemetry())
    return 0


def _add_server_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--server",
        default="http://127.0.0.1:8642",
        help="campaign server URL (default: %(default)s)",
    )


def _add_engine_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        default=DEFAULT_MEASUREMENT_ENGINE,
        choices=ENGINE_REGISTRY.names(),
        help="execution engine for the measurement stage (default: "
        "%(default)s); the built-in engines produce bit-identical results",
    )


def _add_app_arg(parser: argparse.ArgumentParser) -> None:
    # No argparse ``choices``: validation happens in ``_workload`` against
    # the live registry, so apps registered by user code are accepted and
    # unknown names list the full registered set.
    parser.add_argument(
        "app", help=f"one of: {', '.join(WORKLOAD_REGISTRY.names())}"
    )


def build_parser() -> argparse.ArgumentParser:
    load_builtin_components()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Perf-Taint reproduction: tainted performance modeling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="static + taint analysis report")
    _add_app_arg(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "taint",
        help="run the dynamic taint stage alone (prints a deterministic "
        "report fingerprint)",
    )
    p.add_argument(
        "--app",
        required=True,
        help=f"one of: {', '.join(WORKLOAD_REGISTRY.names())}",
    )
    p.set_defaults(func=cmd_taint)

    p = sub.add_parser("model", help="run the full modeling pipeline")
    _add_app_arg(p)
    p.add_argument(
        "--values",
        nargs="+",
        required=True,
        metavar="NAME=V1,V2",
        help="parameter value lists, e.g. p=27,64,125 size=10,15,20",
    )
    p.add_argument(
        "--mode",
        default="taint",
        choices=[m.value for m in InstrumentationMode],
    )
    p.add_argument("--repetitions", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--compare", action="store_true", help="also fit black-box models"
    )
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for the measurement stage",
    )
    p.add_argument(
        "--cache-dir",
        type=_cache_dir,
        default=None,
        help="run-cache directory (reruns skip measured configurations)",
    )
    _add_engine_arg(p)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser(
        "run",
        help="run a declarative campaign spec (TOML/JSON) with resumable "
        "stage artifacts",
    )
    p.add_argument("spec", help="path to a campaign spec file")
    p.add_argument(
        "--workspace",
        type=_cache_dir,
        default=None,
        help="stage-artifact workspace directory (overrides the spec; "
        "reruns resume unchanged stages from it)",
    )
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="override the spec's worker-process count",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("apps", help="list registered workloads")
    p.set_defaults(func=cmd_apps)

    p = sub.add_parser(
        "engines",
        help="list registered execution engines with their capability "
        "flag (supports_batch)",
    )
    p.set_defaults(func=cmd_engines)

    p = sub.add_parser(
        "stages", help="list the campaign stage graph (name <- inputs)"
    )
    p.set_defaults(func=cmd_stages)

    p = sub.add_parser(
        "sweep",
        help="measurement stage only, parallel with an optional run cache",
    )
    _add_app_arg(p)
    p.add_argument(
        "--values",
        nargs="+",
        required=True,
        metavar="NAME=V1,V2",
        help="parameter value lists, e.g. p=2,4 s=4,8",
    )
    p.add_argument("--repetitions", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--cache-dir", type=_cache_dir, default=None)
    p.add_argument(
        "--output", default=None, help="write measurements JSON here"
    )
    _add_engine_arg(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("contention", help="ranks-per-node study (C1)")
    _add_app_arg(p)
    p.add_argument("--r", default="2,4,8,12,16", help="ranks/node values")
    p.add_argument("--p", type=float, default=64)
    p.add_argument("--size", type=float, default=16)
    p.add_argument("--beta", type=float, default=0.06)
    p.add_argument("--repetitions", type=_positive_int, default=3)
    p.add_argument("--seed", type=int, default=0)
    _add_engine_arg(p)
    p.set_defaults(func=cmd_contention)

    p = sub.add_parser("segments", help="branch-direction validation (C2)")
    _add_app_arg(p)
    p.add_argument("--p", default="4,8,16,32,64", help="rank counts to probe")
    p.add_argument("--size", type=float, default=16)
    p.set_defaults(func=cmd_segments)

    p = sub.add_parser(
        "serve",
        help="run the campaign server (shared artifact store + "
        "measure-stage broker over HTTP)",
    )
    p.add_argument(
        "--state-dir",
        type=_cache_dir,
        required=True,
        help="server state directory: shared store (stage artifacts + "
        "run results) plus the crash-recovery journal — restarting "
        "with the same directory recovers in-flight campaigns",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument(
        "--no-journal",
        action="store_true",
        help="disable the durable campaign journal (and with it "
        "restart recovery)",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="on SIGTERM, wait up to this many seconds for in-flight "
        "leases to land before shutting down",
    )
    p.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="seconds before an unreported lease is re-queued "
        "(crashed-worker recovery)",
    )
    p.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=3,
        help="attempts per lease before the campaign fails",
    )
    p.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        help="configurations per lease (default: adaptive — sized per "
        "worker from measured lanes/sec)",
    )
    p.add_argument(
        "--target-lease-seconds",
        type=float,
        default=None,
        help="adaptive lease sizing aims each lease at this wall-clock "
        "duration (default: 2.0; ignored with --chunk-size)",
    )
    p.add_argument("--verbose", action="store_true", help="log HTTP requests")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "worker",
        help="pull measure-stage leases from a campaign server and "
        "execute them",
    )
    _add_server_arg(p)
    p.add_argument("--id", default="worker", help="worker name in leases")
    p.add_argument("--poll-interval", type=float, default=0.2)
    p.add_argument(
        "--max-leases",
        type=_positive_int,
        default=None,
        help="exit after completing this many leases",
    )
    p.add_argument(
        "--stop-when-idle",
        action="store_true",
        help="exit when the queue is empty instead of polling",
    )
    p.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="exit after this many idle seconds",
    )
    p.add_argument(
        "--no-batch",
        action="store_true",
        help="execute leases configuration by configuration even on "
        "batch-capable engines (bit-identical; advertises the reduced "
        "capability so the broker sizes leases accordingly)",
    )
    p.add_argument(
        "--reconnect-timeout",
        type=float,
        default=None,
        help="give up after the broker has been unreachable this many "
        "seconds (default: reconnect forever, riding out server "
        "restarts)",
    )
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "submit",
        help="submit a campaign spec (TOML/JSON) to a campaign server",
    )
    p.add_argument("spec", help="path to a campaign spec file")
    _add_server_arg(p)
    p.add_argument(
        "--no-wait",
        action="store_true",
        help="return immediately after submission instead of polling",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="max seconds to wait for completion",
    )
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "status", help="per-stage status/provenance of a submitted campaign"
    )
    p.add_argument("id", help="campaign id returned by submit")
    _add_server_arg(p)
    p.add_argument(
        "--telemetry",
        action="store_true",
        help="also print per-lease timing/attempts and per-worker "
        "rate estimates from the broker",
    )
    p.set_defaults(func=cmd_status)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from exc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
