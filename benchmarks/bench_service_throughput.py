"""Distributed campaign-service sweep speedup over the serial runner.

The campaign service spreads a measure-stage design over worker
*processes* behind the lease broker — this benchmark measures what that
buys end to end.  It starts the real stdlib HTTP campaign server on an
ephemeral port, attaches four ``python -m repro worker`` subprocesses
(started and polling before any clock runs), and times the same LULESH
sweep twice:

* serial — ``ExperimentRunner.run(design)`` in this process;
* distributed — ``BrokerScheduler.run_measure(...)`` through the
  broker, every byte crossing a real socket.

The sweep uses ``ExecConfig(fast_loops=False)`` so each configuration
carries real interpreter work (~1 s) rather than being dominated by
lease/HTTP overhead — the regime the service exists for.

Beyond the speedup the benchmark asserts the service's two core
guarantees: the distributed ``Measurements`` are *bit-identical* to the
serial runner's, and a second distributed submission of the same sweep
is served entirely from the shared run store (zero executions).

Run with ``pytest benchmarks/bench_service_throughput.py -s``.

Environment knobs:

* ``REPRO_BENCH_SERVICE_MIN_SPEEDUP`` — the assertion bar (default 2.0
  with four local workers; the CI smoke job lowers it to 1.0, i.e.
  "distributing must never be slower than staying serial").

As in ``bench_parallel_scaling.py``, the speedup bar only applies where
the host actually has the cores to run four workers — on smaller hosts
the benchmark reports the (lack of) speedup without asserting on it;
the bit-identity and zero-execution-resume assertions always apply.
"""

from __future__ import annotations

import json
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


def _spawn_workers(url: str, n: int) -> list[subprocess.Popen]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return [
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                "--server",
                url,
                "--id",
                f"bench{i}",
                "--poll-interval",
                "0.02",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for i in range(n)
    ]


def test_service_throughput(tmp_path):
    min_speedup = float(
        os.environ.get("REPRO_BENCH_SERVICE_MIN_SPEEDUP", "2.0")
    )
    # fast_loops=False makes each configuration ~1 s of real interpreter
    # work, so the comparison measures distribution, not lease overhead.
    workload = LuleshWorkload(exec_config=ExecConfig(fast_loops=False))
    plan = full_plan(workload.program())
    design = full_factorial(
        {"p": [8.0, 27.0, 64.0], "size": [10.0, 12.0, 14.0]}
    )
    noise = GaussianNoise()
    contention = NoContention()
    repetitions = 3

    httpd = serve(tmp_path / "store", port=0, lease_ttl=120.0, chunk_size=1)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    host, port = httpd.server_address[:2]
    url = f"http://{host}:{port}"
    workers = _spawn_workers(url, WORKERS)
    try:
        # Let every worker come up and start polling, then push one
        # cheap warm-up job through the fleet before any clock runs —
        # the benchmark times steady-state throughput, not Python
        # start-up or first-lease code paths.
        time.sleep(1.0)
        BrokerScheduler(httpd.service.broker).run_measure(
            workload,
            full_factorial({"p": [8.0, 27.0, 64.0, 125.0], "size": [4.0]}),
            plan,
            noise=noise,
            contention=contention,
            repetitions=repetitions,
            seed=0,
            engine="tree",
        )

        started = time.perf_counter()
        m_serial, p_serial = ExperimentRunner(
            workload=workload,
            plan=plan,
            noise=noise,
            contention=contention,
            repetitions=repetitions,
            seed=0,
        ).run(design)
        serial_time = time.perf_counter() - started

        scheduler = BrokerScheduler(httpd.service.broker)
        started = time.perf_counter()
        m_dist, p_dist = scheduler.run_measure(
            workload,
            design,
            plan,
            noise=noise,
            contention=contention,
            repetitions=repetitions,
            seed=0,
            engine="tree",
        )
        distributed_time = time.perf_counter() - started
        speedup = serial_time / distributed_time
        executed = scheduler.last_stats.executed

        # Distribution must not move a single bit: same samples, same
        # per-configuration profiles, regardless of which worker ran
        # which lease.
        identical = _canonical(m_serial) == _canonical(m_dist)
        assert identical
        assert set(p_serial) == set(p_dist)
        for key in p_serial:
            assert encode(p_serial[key]) == encode(
                p_dist[key]
            )
        assert executed == len(design)

        # The shared run store makes repeats free fleet-wide: a second
        # identical submission executes nothing.
        warm = BrokerScheduler(httpd.service.broker)
        started = time.perf_counter()
        m_warm, _ = warm.run_measure(
            workload,
            design,
            plan,
            noise=noise,
            contention=contention,
            repetitions=repetitions,
            seed=0,
            engine="tree",
        )
        warm_time = time.perf_counter() - started
        assert warm.last_stats.executed == 0
        assert warm.last_stats.cached == len(design)
        assert _canonical(m_warm) == _canonical(m_serial)
    finally:
        for proc in workers:
            proc.terminate()
        for proc in workers:
            proc.wait(timeout=10)
        httpd.shutdown()
        httpd.server_close()

    lines = [
        f"LULESH sweep (fast_loops off): {len(design)} configurations x "
        f"{repetitions} repetitions, {WORKERS} worker processes",
        f"host cores: {os.cpu_count()}",
        "",
        f"{'mode':>22}  {'time [s]':>9}",
        f"{'serial':>22}  {serial_time:>9.3f}",
        f"{f'distributed ({WORKERS}w)':>22}  {distributed_time:>9.3f}",
        f"{'distributed (warm)':>22}  {warm_time:>9.3f}",
        "",
        f"service speedup: {speedup:.2f}x (bar: {min_speedup:.1f}x)",
        "measurements bit-identical: yes",
        "second submission executed: 0 (all from shared store)",
    ]
    report(
        "service",
        "\n".join(lines),
        data={
            "configurations": len(design),
            "repetitions": repetitions,
            "workers": WORKERS,
            "host_cores": os.cpu_count(),
            "serial_seconds": serial_time,
            "distributed_seconds": distributed_time,
            "warm_seconds": warm_time,
            "speedup": speedup,
            "min_speedup_bar": min_speedup,
            "measurements_identical": identical,
            "warm_executed": 0,
        },
    )

    # Worker processes only overlap when the host has the cores; the
    # speedup bar applies where the four-worker fleet can actually run.
    if (os.cpu_count() or 1) >= WORKERS:
        assert speedup >= min_speedup, (
            f"expected >= {min_speedup:.1f}x speedup with {WORKERS} "
            f"workers, got {speedup:.2f}x"
        )
