"""Taint-stage speedup of the closed form over genuine iteration.

Taint is an analysis domain the shadow-tracking tree-walker
(``ShadowInterpreter``) executes.  With ``ExecConfig.fast_loops`` off it
runs every trip of every loop: the genuine-iteration reference.  With it
on (the default) it runs the pure-cost nests the fast-path planner
summarises in closed form, recording each nest's loop sinks once.  This
benchmark times the full taint stage (``run_taint_stage``, engine
construction included) on the LULESH workload at its paper-style
representative configuration in both modes, asserts the two reports are
identical, and asserts the closed form's speedup.

Run with ``pytest benchmarks/bench_taint_speedup.py -s``.

Environment knobs:

* ``REPRO_BENCH_TAINT_MIN_SPEEDUP`` — the assertion bar (default 2.0 on
  a real host; the CI smoke job lowers it to 1.0, i.e. "the closed form
  must never be slower than genuine iteration").
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

from repro.core.artifacts import artifact_fingerprint, taint_report_to_dict
from repro.core.stages import run_taint_stage
from repro.libdb.mpi_models import MPI_DATABASE
from repro.taint.policy import FULL_POLICY

from conftest import report


class GenuineIteration:
    """*workload* with ``fast_loops`` off in every run it sets up."""

    def __init__(self, workload) -> None:
        self._workload = workload

    def __getattr__(self, name):
        return getattr(self._workload, name)

    def setup(self, config):
        setup = self._workload.setup(config)
        return replace(
            setup, exec_config=replace(setup.exec_config, fast_loops=False)
        )


def _time_taint_stage(workload, program, rounds: int = 3):
    """Best-of-*rounds* wall time of the taint stage plus its report."""
    best = float("inf")
    taint = None
    for _ in range(rounds):
        library = MPI_DATABASE.copy()
        started = time.perf_counter()
        taint = run_taint_stage(workload, program, FULL_POLICY, library)
        best = min(best, time.perf_counter() - started)
    return best, taint


def test_taint_speedup(lulesh_workload):
    min_speedup = float(
        os.environ.get("REPRO_BENCH_TAINT_MIN_SPEEDUP", "2.0")
    )
    program = lulesh_workload.program()

    genuine_time, genuine_report = _time_taint_stage(
        GenuineIteration(lulesh_workload), program
    )
    closed_time, closed_report = _time_taint_stage(lulesh_workload, program)
    speedup = genuine_time / closed_time

    # The speedup must never come at the cost of a single diverging bit:
    # same records, same parameter sets, same canonical payload.
    assert genuine_report == closed_report
    genuine_fp = artifact_fingerprint(taint_report_to_dict(genuine_report))
    closed_fp = artifact_fingerprint(taint_report_to_dict(closed_report))
    assert genuine_fp == closed_fp

    lines = [
        "LULESH taint stage (representative config "
        f"{lulesh_workload.taint_config()}, full policy)",
        f"loop records: {len(closed_report.loop_records)}, "
        f"library records: {len(closed_report.library_records)}",
        "",
        f"{'loops':>12}  {'time [s]':>9}",
        f"{'genuine':>12}  {genuine_time:>9.3f}",
        f"{'closed form':>12}  {closed_time:>9.3f}",
        "",
        f"taint-stage speedup: {speedup:.2f}x (bar: {min_speedup:.1f}x)",
        f"reports bit-identical: yes ({closed_fp[:16]}...)",
    ]
    report(
        "taint_speedup",
        "\n".join(lines),
        data={
            "genuine_seconds": genuine_time,
            "closed_form_seconds": closed_time,
            "speedup": speedup,
            "min_speedup_bar": min_speedup,
            "loop_records": len(closed_report.loop_records),
            "report_fingerprint": closed_fp,
            "reports_identical": True,
            "host_cores": os.cpu_count(),
        },
    )

    assert speedup >= min_speedup, (
        f"closed-form taint speedup {speedup:.2f}x below the "
        f"{min_speedup:.1f}x bar (genuine {genuine_time:.3f}s vs "
        f"closed form {closed_time:.3f}s)"
    )
