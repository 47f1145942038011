"""``close()`` lets an engine be freed by reference counting.

A compiled engine's closures refer back to the engine, so a dropped
engine used to be cyclic garbage that waited for a full collection (tens
of thousands of objects per LULESH run).  Every built-in engine now
breaks its cycles in ``close()``; these tests run LULESH at its taint
configuration with the collector disabled, close and drop the engine,
and require that a collection then finds nothing.
"""

from __future__ import annotations

import gc

import pytest

from repro.interp import make_engine, shadow_capable_engines
from repro.registry import ENGINE_REGISTRY
from repro.taint.domain import TaintDomain

ENGINES = [entry.name for entry in ENGINE_REGISTRY]


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


def run_and_close(program, setup, engine: str, domain=None) -> None:
    interp = make_engine(
        program,
        engine,
        runtime=setup.runtime,
        config=setup.exec_config,
        domain=domain,
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


@pytest.mark.parametrize("engine", shadow_capable_engines())
def test_taint_engine_leaves_no_cycles(lulesh_program, taint_setup, engine):
    garbage = cyclic_garbage(
        lambda: run_and_close(
            lulesh_program, taint_setup, engine, domain=TaintDomain()
        )
    )
    assert garbage == 0
