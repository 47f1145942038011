"""Whole-sweep batched measurement speedup over scalar serial measurement.

On the ``vectorized`` engine the runner executes an entire design as one
tensor pass per chunk and samples every noise stream through the
vectorized ``perturb_block`` — versus one tree-walking interpreter run
per configuration and ~20us of RNG stream setup per sample on the
``tree`` engine.  This benchmark times the one runner end-to-end
(profiling + noise sampling + merging) on both engines over the LULESH
three-parameter sweep and asserts the batched speedup *and*
bit-identical ``Measurements``.

Run with ``pytest benchmarks/bench_batch_speedup.py -s``.

Environment knobs:

* ``REPRO_BENCH_BATCH_MIN_SPEEDUP`` — the assertion bar (default 5.0 on
  a real host; the CI smoke job lowers it to 1.0, i.e. "the batched
  runner must never be slower than the serial runner").
"""

from __future__ import annotations

import json
import os
import time

from repro.codec import encode
from repro.apps.lulesh import LuleshWorkload
from repro.measure import (
    ExperimentRunner,
    full_factorial,
    full_plan,
)

from conftest import report


def _canonical(measurements) -> str:
    return json.dumps(encode(measurements), sort_keys=True)


def _time_runner(runner, design, rounds: int = 3):
    """Best-of-*rounds* wall time of a full design run plus its output."""
    best = float("inf")
    output = None
    for _ in range(rounds):
        started = time.perf_counter()
        output = runner.run(design)
        best = min(best, time.perf_counter() - started)
    return best, output


def test_batch_speedup():
    min_speedup = float(
        os.environ.get("REPRO_BENCH_BATCH_MIN_SPEEDUP", "5.0")
    )
    # The paper-style three-parameter LULESH sweep: every swept name is a
    # workload parameter, so configuration keys are unique (the canonical
    # design the dense merge requires).
    workload = LuleshWorkload(parameters=("p", "size", "iters"))
    plan = full_plan(workload.program())
    design = full_factorial(
        {
            "p": [8.0, 27.0, 64.0],
            "size": [10.0, 14.0, 18.0, 22.0],
            "iters": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        }
    )
    repetitions = 5
    kwargs = dict(workload=workload, plan=plan, repetitions=repetitions, seed=0)

    serial_time, (m_serial, p_serial) = _time_runner(
        ExperimentRunner(**kwargs), design
    )
    batched_runner = ExperimentRunner(**kwargs, engine="vectorized")
    batched_time, (m_batched, p_batched) = _time_runner(
        batched_runner, design
    )
    speedup = serial_time / batched_time

    # Lane accounting: the planned grid is (configurations x repetitions)
    # but repetitions are pure dedup gain — the engine must execute one
    # representative lane per configuration, i.e. <= 1/R of the grid.
    lanes = batched_runner.last_lane_stats
    assert lanes.planned == len(design) * repetitions
    assert lanes.executed == len(design)
    assert lanes.executed * repetitions <= lanes.planned

    # The speedup must never come at the cost of a single diverging bit:
    # same samples, same call counts, same per-configuration profiles.
    identical = _canonical(m_serial) == _canonical(m_batched)
    assert identical
    assert set(p_serial) == set(p_batched)
    for key in p_serial:
        assert encode(p_serial[key]) == encode(
            p_batched[key]
        )

    samples = sum(
        len(values)
        for per_fn in m_serial.data.values()
        for values in per_fn.values()
    )
    lines = [
        f"LULESH 3-parameter sweep: {len(design)} configurations x "
        f"{repetitions} repetitions ({samples} samples)",
        "",
        f"{'runner':>10}  {'time [s]':>9}",
        f"{'serial':>10}  {serial_time:>9.3f}",
        f"{'batched':>10}  {batched_time:>9.3f}",
        "",
        f"batched-runner speedup: {speedup:.2f}x (bar: {min_speedup:.1f}x)",
        f"lanes: {lanes.planned} planned, {lanes.executed} executed "
        f"({lanes.deduped} deduplicated — 1/{repetitions} of the grid)",
        "measurements bit-identical: yes",
    ]
    report(
        "batch_speedup",
        "\n".join(lines),
        data={
            "configurations": len(design),
            "repetitions": repetitions,
            "samples": samples,
            "serial_seconds": serial_time,
            "batched_seconds": batched_time,
            "speedup": speedup,
            "min_speedup_bar": min_speedup,
            "measurements_identical": identical,
            "lanes_planned": lanes.planned,
            "lanes_executed": lanes.executed,
            "lanes_deduped": lanes.deduped,
            "host_cores": os.cpu_count(),
        },
    )

    assert speedup >= min_speedup, (
        f"batched runner speedup {speedup:.2f}x below the "
        f"{min_speedup:.1f}x bar (serial {serial_time:.3f}s vs "
        f"batched {batched_time:.3f}s)"
    )
