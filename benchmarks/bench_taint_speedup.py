"""Taint-stage speedup of the compiled shadow engine over the tree-walker.

Taint is an analysis domain both engines execute.  The tree-walking
``ShadowInterpreter`` is the genuine-iteration oracle: it runs every trip
of every loop and pays per-node ``isinstance`` dispatch and per-name dict
lookups.  The ``CompiledShadowEngine`` propagates labels through the same
pre-resolved frame slots the values use, and it runs the pure-cost nests
the fast-path planner summarises in closed form, recording each nest's
loop sinks once.  This benchmark times the full taint stage (engine
construction included — a taint run builds a fresh engine, so the
compiled engine's one-time lowering cost is part of what production
pays) on the LULESH workload at its paper-style representative
configuration, asserts the two engines' reports are identical, and
asserts the compiled engine's speedup.

Run with ``pytest benchmarks/bench_taint_speedup.py -s``.

Environment knobs:

* ``REPRO_BENCH_TAINT_MIN_SPEEDUP`` — the assertion bar (default 2.0 on
  a real host; the CI smoke job lowers it to 1.0, i.e. "compiled taint
  must never be slower than the tree-walker").
"""

from __future__ import annotations

import os
import time

from repro.core.artifacts import artifact_fingerprint, taint_report_to_dict
from repro.core.stages import run_taint_stage
from repro.libdb.mpi_models import MPI_DATABASE
from repro.taint.policy import FULL_POLICY

from conftest import report


def _time_taint_stage(workload, program, engine: str, rounds: int = 3):
    """Best-of-*rounds* wall time of the taint stage plus its report."""
    best = float("inf")
    taint = None
    for _ in range(rounds):
        library = MPI_DATABASE.copy()
        started = time.perf_counter()
        taint = run_taint_stage(
            workload, program, FULL_POLICY, library, engine=engine
        )
        best = min(best, time.perf_counter() - started)
    return best, taint


def test_taint_speedup(lulesh_workload):
    min_speedup = float(
        os.environ.get("REPRO_BENCH_TAINT_MIN_SPEEDUP", "2.0")
    )
    program = lulesh_workload.program()

    tree_time, tree_report = _time_taint_stage(
        lulesh_workload, program, "tree"
    )
    compiled_time, compiled_report = _time_taint_stage(
        lulesh_workload, program, "compiled"
    )
    speedup = tree_time / compiled_time

    # The speedup must never come at the cost of a single diverging bit:
    # same records, same parameter sets, same canonical payload.
    assert tree_report == compiled_report
    tree_fp = artifact_fingerprint(taint_report_to_dict(tree_report))
    compiled_fp = artifact_fingerprint(taint_report_to_dict(compiled_report))
    assert tree_fp == compiled_fp

    lines = [
        "LULESH taint stage (representative config "
        f"{lulesh_workload.taint_config()}, full policy)",
        f"loop records: {len(tree_report.loop_records)}, "
        f"library records: {len(tree_report.library_records)}",
        "",
        f"{'engine':>10}  {'time [s]':>9}",
        f"{'tree':>10}  {tree_time:>9.3f}",
        f"{'compiled':>10}  {compiled_time:>9.3f}",
        "",
        f"taint-stage speedup: {speedup:.2f}x (bar: {min_speedup:.1f}x)",
        f"reports bit-identical: yes ({compiled_fp[:16]}...)",
    ]
    report(
        "taint_speedup",
        "\n".join(lines),
        data={
            "tree_seconds": tree_time,
            "compiled_seconds": compiled_time,
            "speedup": speedup,
            "min_speedup_bar": min_speedup,
            "loop_records": len(tree_report.loop_records),
            "report_fingerprint": compiled_fp,
            "reports_identical": True,
            "host_cores": os.cpu_count(),
        },
    )

    assert speedup >= min_speedup, (
        f"compiled taint speedup {speedup:.2f}x below the "
        f"{min_speedup:.1f}x bar (tree {tree_time:.3f}s vs "
        f"compiled {compiled_time:.3f}s)"
    )
