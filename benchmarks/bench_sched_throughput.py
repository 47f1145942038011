"""Capability-aware lease scheduling speedup on a heterogeneous fleet.

A mixed fleet — two batch-capable workers and two ``--no-batch`` scalar
fallback workers — runs the same LULESH sweep under two brokers:

* uniform — fixed ``chunk_size = ceil(N / workers)``, the pre-adaptive
  scheduling: every worker gets the same lease size, so the fleet
  finishes at the scalar stragglers' pace;
* adaptive — no fixed chunk: scalar workers are probed with one lane
  and then sized by their measured lanes/sec, batch workers get big
  tensor chunks, and straggler tails are re-leased (bounded splits).

Both runs attach real ``python -m repro worker`` subprocesses over HTTP
and must be bit-identical to the serial scalar runner.  A third, untimed
run injects a crashing and a slow worker (``REPRO_SERVICE_FAULT``) and
asserts the merge still does not move by a bit.

Run with ``pytest benchmarks/bench_sched_throughput.py -s``.

Environment knobs:

* ``REPRO_BENCH_SCHED_MIN_SPEEDUP`` — the assertion bar (default 1.5 on
  a real host; the CI smoke job lowers it to 1.0, i.e. "adaptive
  scheduling must never be slower than uniform chunking").

As in ``bench_service_throughput.py``, the speedup bar only applies
where the host has the cores to actually run the four-worker fleet; the
bit-identity assertions always apply.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time

from repro.codec import encode
from repro.apps.lulesh import LuleshWorkload
from repro.interp.config import ExecConfig
from repro.measure import (
    ExperimentRunner,
    full_factorial,
    full_plan,
)
from repro.measure.noise import GaussianNoise
from repro.mpisim.contention import NoContention
from repro.service import BrokerScheduler, serve

from conftest import report

WORKERS = 4
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _canonical(measurements) -> str:
    return json.dumps(encode(measurements), sort_keys=True)


def _spawn_fleet(url: str, specs: list[dict]) -> list[subprocess.Popen]:
    """One worker subprocess per spec: {"id", "no_batch", "fault", "slow"}."""
    procs = []
    for spec in specs:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        if spec.get("fault"):
            env["REPRO_SERVICE_FAULT"] = spec["fault"]
        if spec.get("slow") is not None:
            env["REPRO_SERVICE_SLOW_SECONDS"] = str(spec["slow"])
        argv = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--server",
            url,
            "--id",
            spec["id"],
            "--poll-interval",
            "0.02",
        ]
        if spec.get("no_batch"):
            argv.append("--no-batch")
        procs.append(
            subprocess.Popen(
                argv,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
        )
    return procs


def _stop_fleet(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


def _mixed_fleet_specs(**extra) -> list[dict]:
    """2 batch-capable + 2 scalar-fallback workers."""
    return [
        {"id": "vec0", **extra},
        {"id": "vec1", **extra},
        {"id": "sca0", "no_batch": True, **extra},
        {"id": "sca1", "no_batch": True, **extra},
    ]


def _run_distributed(broker, workload, design, plan, kw, timeout=600.0):
    scheduler = BrokerScheduler(broker, timeout=timeout)
    started = time.perf_counter()
    measurements, _ = scheduler.run_measure(
        workload, design, plan, engine="vectorized", **kw
    )
    elapsed = time.perf_counter() - started
    return elapsed, measurements, scheduler


def test_sched_throughput(tmp_path):
    min_speedup = float(
        os.environ.get("REPRO_BENCH_SCHED_MIN_SPEEDUP", "1.5")
    )
    # fast_loops=False: each lane is ~1 s of interpreter work on the
    # scalar path, so lease sizing (not HTTP overhead) dominates.
    workload = LuleshWorkload(exec_config=ExecConfig(fast_loops=False))
    plan = full_plan(workload.program())
    design = full_factorial(
        {"p": [8.0, 27.0, 64.0, 125.0], "size": [10.0, 12.0]}
    )
    # Warm-up design: same cost profile, disjoint fingerprints — it
    # teaches the brokers realistic per-worker lanes/sec before any
    # clock runs (and absorbs worker-process start-up).
    warmup = full_factorial({"p": [343.0], "size": [10.0, 12.0]})
    kw = dict(
        noise=GaussianNoise(),
        contention=NoContention(),
        repetitions=3,
        seed=0,
    )
    uniform_chunk = math.ceil(len(design) / WORKERS)

    serial, _ = ExperimentRunner(workload=workload, plan=plan, **kw).run(
        design
    )
    reference = _canonical(serial)

    results = {}
    for mode, serve_kwargs in (
        ("uniform", {"chunk_size": uniform_chunk}),
        ("adaptive", {"target_lease_seconds": 1.0}),
    ):
        httpd = serve(
            tmp_path / f"store-{mode}",
            port=0,
            lease_ttl=120.0,
            **serve_kwargs,
        )
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        host, port = httpd.server_address[:2]
        fleet = _spawn_fleet(
            f"http://{host}:{port}", _mixed_fleet_specs()
        )
        try:
            time.sleep(1.0)
            _run_distributed(
                httpd.service.broker, workload, warmup, plan, kw
            )
            elapsed, measurements, scheduler = _run_distributed(
                httpd.service.broker, workload, design, plan, kw
            )
            assert _canonical(measurements) == reference
            assert scheduler.last_stats.executed == len(design)
            results[mode] = elapsed
        finally:
            _stop_fleet(fleet)
            httpd.shutdown()
            httpd.server_close()

    # Fault schedule (untimed): a crashing batch worker and a slow
    # scalar worker on a fresh store — recovery and straggler re-leasing
    # must not move the merge by a bit.  Runs on the fast-loops workload
    # so lease execution stays well inside the short recovery TTL.
    fault_workload = LuleshWorkload()
    fault_plan = full_plan(fault_workload.program())
    fault_serial, _ = ExperimentRunner(
        workload=fault_workload, plan=fault_plan, **kw
    ).run(design)
    httpd = serve(tmp_path / "store-faults", port=0, lease_ttl=5.0)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    host, port = httpd.server_address[:2]
    fleet = _spawn_fleet(
        f"http://{host}:{port}",
        [
            {"id": "vec0"},
            {"id": "vec1", "fault": "crash:1"},
            {"id": "sca0", "no_batch": True, "fault": "slow:1", "slow": 0.5},
        ],
    )
    try:
        time.sleep(1.0)
        _, faulted, scheduler = _run_distributed(
            httpd.service.broker, fault_workload, design, fault_plan, kw
        )
        faults_identical = _canonical(faulted) == _canonical(fault_serial)
        assert faults_identical
        assert scheduler.last_stats.executed == len(design)
    finally:
        _stop_fleet(fleet)
        httpd.shutdown()
        httpd.server_close()

    speedup = results["uniform"] / results["adaptive"]
    lines = [
        f"LULESH sweep (fast_loops off): {len(design)} configurations, "
        f"{WORKERS}-worker fleet (2 batch + 2 --no-batch scalar)",
        f"host cores: {os.cpu_count()}",
        "",
        f"{'scheduling':>22}  {'time [s]':>9}",
        f"{f'uniform (chunk={uniform_chunk})':>22}  "
        f"{results['uniform']:>9.3f}",
        f"{'adaptive':>22}  {results['adaptive']:>9.3f}",
        "",
        f"capability-aware speedup: {speedup:.2f}x "
        f"(bar: {min_speedup:.1f}x)",
        "measurements bit-identical: yes (uniform, adaptive, and under "
        "crash+slow faults)",
    ]
    report(
        "sched_throughput",
        "\n".join(lines),
        data={
            "configurations": len(design),
            "workers": WORKERS,
            "host_cores": os.cpu_count(),
            "uniform_chunk": uniform_chunk,
            "uniform_seconds": results["uniform"],
            "adaptive_seconds": results["adaptive"],
            "speedup": speedup,
            "min_speedup_bar": min_speedup,
            "measurements_identical": True,
            "faults_identical": faults_identical,
        },
    )

    # The bar applies only where the four-worker fleet can truly overlap.
    if (os.cpu_count() or 1) >= WORKERS:
        assert speedup >= min_speedup, (
            f"expected >= {min_speedup:.1f}x speedup from "
            f"capability-aware leases, got {speedup:.2f}x "
            f"(uniform {results['uniform']:.3f}s vs "
            f"adaptive {results['adaptive']:.3f}s)"
        )
