"""A dropped engine is freed by reference counting.

What an engine derives from the program alone (the loop planner, the
vectorized lowering) is kept on the program, and the lowered closures
reach the running engine through their frame, so nothing refers back to
an engine: a caller just drops it.  These tests run LULESH and MILC at
their taint configurations with the collector disabled, drop the engine
without any release call, and require that a collection then finds
nothing.  The shadow engine does the same under taint, with planned nests
in closed form and with every trip walked, and so does a full taint
analysis.  A program dropped together with its memo leaves nothing
either.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

from repro.apps import build_lulesh
from repro.interp import ENGINE_VECTORIZED, ShadowInterpreter, make_engine
from repro.registry import ENGINE_REGISTRY
from repro.taint.domain import TaintDomain
from repro.taint.engine import TaintEngine

ENGINES = [entry.name for entry in ENGINE_REGISTRY]

#: The shadow engine's two loop strategies, as ``fast_loops``:
#: ``closed_form`` applies the planner's closed-form plan to each planned
#: nest, ``genuine`` walks every trip (the genuine-iteration reference).
SHADOW_LOOPS = {"closed_form": True, "genuine": False}


def cyclic_garbage(action) -> int:
    """Objects a full collection frees after *action* ran uncollected."""
    gc.collect()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def taint_runs(lulesh_workload, milc_workload):
    """app -> (program, setup at its taint configuration)."""
    return {
        workload.name: (
            workload.program(),
            workload.setup(dict(workload.taint_config())),
        )
        for workload in (lulesh_workload, milc_workload)
    }


def run_and_drop(program, setup, engine: str) -> None:
    interp = make_engine(
        program, engine, runtime=setup.runtime, config=setup.exec_config
    )
    result = interp.run(setup.args, entry=setup.entry)
    assert result.time > 0
    del interp, result


@pytest.mark.parametrize("engine", ENGINES)
def test_concrete_engine_leaves_no_cycles(taint_runs, engine):
    for app, (program, setup) in taint_runs.items():
        garbage = cyclic_garbage(lambda: run_and_drop(program, setup, engine))
        assert garbage == 0, app


@pytest.mark.parametrize("loops", SHADOW_LOOPS)
def test_taint_engine_leaves_no_cycles(taint_runs, loops):
    program, setup = taint_runs["lulesh"]
    config = replace(setup.exec_config, fast_loops=SHADOW_LOOPS[loops])

    def run_shadow() -> None:
        interp = ShadowInterpreter(
            program,
            runtime=setup.runtime,
            config=config,
            domain=TaintDomain(),
        )
        result = interp.run(setup.args, entry=setup.entry)
        assert result.time > 0
        assert interp.domain.report.loop_records
        del interp, result

    assert cyclic_garbage(run_shadow) == 0


def test_taint_analysis_leaves_no_cycles(lulesh_workload, taint_runs):
    program, setup = taint_runs["lulesh"]

    def analyze() -> None:
        taint = TaintEngine(
            program, runtime=setup.runtime, config=setup.exec_config
        )
        result = taint.analyze(
            setup.args, lulesh_workload.sources(), entry=setup.entry
        )
        assert result.report.loop_records
        del taint, result

    assert cyclic_garbage(analyze) == 0


def test_program_and_its_lowering_leave_no_cycles(taint_runs):
    """The memo refers to nothing that refers back to the program, so a
    private program dies with its planner and lowering."""
    _, setup = taint_runs["lulesh"]

    def build_run_drop() -> None:
        program = build_lulesh.__wrapped__()
        run_and_drop(program, setup, ENGINE_VECTORIZED)
        assert program._derived
        del program

    assert cyclic_garbage(build_run_drop) == 0
