"""Serial-vs-parallel scaling of the experiment execution engine.

Fans the synthetic app sweep out over worker processes and records the
speedup over the serial runner, the bit-identity of the results, and the
effect of the on-disk run cache (a second sweep performs zero profile
executions).  The paper's measurement campaigns (5x5 grids, 5
repetitions) are embarrassingly parallel across configurations; this
benchmark shows the engine exploits that without changing a single
measured bit.

Run with ``pytest benchmarks/bench_parallel_scaling.py -s``.
"""

from __future__ import annotations

import json
import os
import time

from repro.codec import encode
from repro.apps.synthetic import SyntheticWorkload, build_multiplicative_example
from repro.interp.config import ExecConfig
from repro.measure import (
    ExperimentRunner,
    full_factorial,
    full_plan,
)

from conftest import report

#: The synthetic app sweep: a 5x5 grid like the paper's designs, with the
#: interpreter's O(1) loop fast path disabled so every configuration does
#: real, size-dependent work.
PARAMETER_VALUES = {
    "p": [40.0, 60.0, 80.0, 100.0, 120.0],
    "s": [40.0, 60.0, 80.0, 100.0, 120.0],
}


def _workload() -> SyntheticWorkload:
    return SyntheticWorkload(
        builder=build_multiplicative_example,
        parameters=("p", "s"),
        name="scaling-synthetic",
        exec_config=ExecConfig(fast_loops=False),
    )


def _canonical(measurements) -> str:
    return json.dumps(encode(measurements), sort_keys=True)


def test_parallel_scaling(tmp_path, bench_jobs):
    job_counts = tuple(sorted({1, 2, bench_jobs}))
    workload = _workload()
    plan = full_plan(workload.program())
    design = full_factorial(PARAMETER_VALUES)

    timings: dict[int, float] = {}
    digests: dict[int, str] = {}
    for jobs in job_counts:
        runner = ExperimentRunner(
            workload=workload, plan=plan, repetitions=5, seed=3, n_jobs=jobs
        )
        started = time.perf_counter()
        measurements, _ = runner.run(design)
        timings[jobs] = time.perf_counter() - started
        digests[jobs] = _canonical(measurements)
        assert runner.last_stats.executed == len(design)

    # The headline invariant: identical bits for every worker count.
    assert len(set(digests.values())) == 1

    # Cached rerun: zero profile executions the second time around.
    cache_dir = tmp_path / "run-cache"
    cold = ExperimentRunner(
        workload=workload, plan=plan, repetitions=5, seed=3,
        n_jobs=job_counts[-1], cache_dir=cache_dir,
    )
    started = time.perf_counter()
    cold_measurements, _ = cold.run(design)
    cold_time = time.perf_counter() - started
    warm = ExperimentRunner(
        workload=workload, plan=plan, repetitions=5, seed=3,
        n_jobs=job_counts[-1], cache_dir=cache_dir,
    )
    started = time.perf_counter()
    warm_measurements, _ = warm.run(design)
    warm_time = time.perf_counter() - started
    assert warm.last_stats.executed == 0
    assert warm.last_stats.cached == len(design)
    assert _canonical(warm_measurements) == _canonical(cold_measurements)
    assert _canonical(warm_measurements) == digests[1]

    lines = [
        f"synthetic app sweep: {len(design)} configurations x 5 repetitions",
        f"host cores: {os.cpu_count()}",
        "",
        f"{'jobs':>6}  {'time [s]':>9}  {'speedup':>8}  identical",
    ]
    for jobs in job_counts:
        lines.append(
            f"{jobs:>6}  {timings[jobs]:>9.3f}  "
            f"{timings[1] / timings[jobs]:>7.2f}x  "
            f"{'yes' if digests[jobs] == digests[1] else 'NO'}"
        )
    lines += [
        "",
        f"cache cold ({job_counts[-1]} jobs): {cold_time:.3f}s "
        f"({cold.last_stats.executed} executed)",
        f"cache warm ({job_counts[-1]} jobs): {warm_time:.3f}s "
        f"({warm.last_stats.cached} from cache, 0 executed, "
        f"{cold_time / max(warm_time, 1e-9):.0f}x faster)",
    ]
    report(
        "parallel_scaling",
        "\n".join(lines),
        data={
            "configurations": len(design),
            "host_cores": os.cpu_count(),
            "seconds_by_jobs": {str(j): timings[j] for j in job_counts},
            "speedup_at_top_jobs": timings[1] / timings[job_counts[-1]],
            "cache_cold_seconds": cold_time,
            "cache_warm_seconds": warm_time,
            "bit_identical": len(set(digests.values())) == 1,
        },
    )

    # Process-level parallelism only helps when the host has the cores;
    # the speedup bar applies where the top worker count can actually run.
    top = job_counts[-1]
    if (os.cpu_count() or 1) >= top >= 4:
        assert timings[1] / timings[top] >= 1.5, (
            f"expected >= 1.5x speedup at {top} jobs, got "
            f"{timings[1] / timings[top]:.2f}x"
        )
