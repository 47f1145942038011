"""``close()`` lets an engine be freed by reference counting.

The vectorized engine's closures refer back to the engine, so a dropped
engine would be cyclic garbage that waited for a full collection (tens
of thousands of objects per LULESH run).  Every built-in engine breaks
its cycles in ``close()``; these tests run LULESH at its taint
configuration with the collector disabled, close and drop the engine,
and require that a collection then finds nothing.  The shadow engine
does the same under taint, with planned nests in closed form and with
every trip walked, and so does a full taint analysis.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

from repro.interp import ShadowInterpreter, make_engine
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
def taint_setup(lulesh_workload):
    return lulesh_workload.setup(dict(lulesh_workload.taint_config()))


def run_and_close(program, setup, engine: str) -> None:
    interp = make_engine(
        program, engine, runtime=setup.runtime, config=setup.exec_config
    )
    result = interp.run(setup.args, entry=setup.entry)
    assert result.time > 0
    interp.close()
    del interp, result


@pytest.mark.parametrize("engine", ENGINES)
def test_concrete_engine_leaves_no_cycles(lulesh_program, taint_setup, engine):
    garbage = cyclic_garbage(
        lambda: run_and_close(lulesh_program, taint_setup, engine)
    )
    assert garbage == 0


@pytest.mark.parametrize("loops", SHADOW_LOOPS)
def test_taint_engine_leaves_no_cycles(lulesh_program, taint_setup, loops):
    config = replace(taint_setup.exec_config, fast_loops=SHADOW_LOOPS[loops])

    def run_shadow() -> None:
        interp = ShadowInterpreter(
            lulesh_program,
            runtime=taint_setup.runtime,
            config=config,
            domain=TaintDomain(),
        )
        result = interp.run(taint_setup.args, entry=taint_setup.entry)
        assert result.time > 0
        assert interp.domain.report.loop_records
        interp.close()
        del interp, result

    assert cyclic_garbage(run_shadow) == 0


def test_taint_analysis_leaves_no_cycles(
    lulesh_workload, lulesh_program, taint_setup
):
    def analyze() -> None:
        taint = TaintEngine(
            lulesh_program,
            runtime=taint_setup.runtime,
            config=taint_setup.exec_config,
        )
        result = taint.analyze(
            taint_setup.args,
            lulesh_workload.sources(),
            entry=taint_setup.entry,
        )
        assert result.report.loop_records
        del taint, result

    assert cyclic_garbage(analyze) == 0
