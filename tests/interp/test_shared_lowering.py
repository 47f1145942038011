"""One loop planner and one vectorized lowering per (program, config).

Both are kept on the program and shared by every engine of the process:
a second batch on a program lowers no function and plans no nest, a
batch under another configuration gets its own lowering, and threads
that run batches on one program at the same time get the results each
batch gets alone.  Every test runs on a private LULESH build, so it
starts with no lowering whatever ran before it.
"""

from __future__ import annotations

import json
import pickle
import sys
import threading
from dataclasses import replace

import pytest

from repro.apps import build_lulesh
from repro.codec import encode
from repro.interp import ENGINE_TREE, FastPathPlanner, make_engine
from repro.interp.vectorize import _VecCompiler
from repro.measure.instrumentation import full_plan
from repro.measure.profiler import profile_run, profile_run_batch

from test_engine_differential import RecordingListener

DESIGN = [{"p": 8, "size": 3}, {"p": 27, "size": 4}, {"p": 64, "size": 4}]
OTHER_DESIGN = [{"p": 27, "size": 5}, {"p": 8, "size": 4}]
THIRD_DESIGN = [{"p": 64, "size": 3}, {"p": 8, "size": 5}]


def setups_of(workload, design, fast_loops=True):
    out = []
    for config in design:
        setup = workload.setup(config)
        out.append(
            replace(
                setup,
                exec_config=replace(setup.exec_config, fast_loops=fast_loops),
            )
        )
    return out


def profile(program, setups):
    return profile_run_batch(
        program,
        [s.args for s in setups],
        full_plan(program),
        runtimes=[s.runtime for s in setups],
        exec_config=setups[0].exec_config,
        entry=setups[0].entry,
    )


def encoded(profiles) -> bytes:
    return json.dumps(encode(profiles), sort_keys=True).encode()


@pytest.fixture
def work(monkeypatch):
    """Counts of functions lowered and loop nests planned."""
    counts = {"lowered": 0, "planned": 0}
    compile_top = _VecCompiler.compile_top
    build = FastPathPlanner._build

    def lowering(self):
        counts["lowered"] += 1
        return compile_top(self)

    def planning(self, fn_name, loop):
        counts["planned"] += 1
        return build(self, fn_name, loop)

    monkeypatch.setattr(_VecCompiler, "compile_top", lowering)
    monkeypatch.setattr(FastPathPlanner, "_build", planning)
    return counts


def test_second_batch_lowers_and_plans_nothing(lulesh_workload, work):
    program = build_lulesh.__wrapped__()
    setups = setups_of(lulesh_workload, DESIGN)
    first = profile(program, setups)
    assert work["lowered"] > 0 and work["planned"] > 0
    work.update(lowered=0, planned=0)
    second = profile(program, setups)
    assert work == {"lowered": 0, "planned": 0}
    assert encoded(second) == encoded(first)


def test_genuine_batch_after_closed_form_batch_matches_tree(lulesh_workload):
    """The memo is keyed by configuration: with ``fast_loops`` off the
    batch iterates every trip, event for event like the tree-walker,
    although a closed-form batch lowered the same program first."""
    program = build_lulesh.__wrapped__()
    profile(program, setups_of(lulesh_workload, DESIGN))
    setups = setups_of(lulesh_workload, DESIGN, fast_loops=False)
    config = setups[0].exec_config
    batch = profile(program, setups)
    tree = [
        profile_run(
            program,
            s.args,
            full_plan(program),
            runtime=s.runtime,
            exec_config=config,
            entry=s.entry,
            engine=ENGINE_TREE,
        )
        for s in setups
    ]
    assert encoded(batch) == encoded(tree)

    listeners = [RecordingListener() for _ in setups]
    results = make_engine(program, "vectorized", config=config).run_batch(
        [s.args for s in setups],
        entry=setups[0].entry,
        lane_runtimes=[s.runtime for s in setups],
        lane_listeners=listeners,
    )
    for setup, result, listener in zip(setups, results, listeners):
        reference = RecordingListener()
        expected = make_engine(
            program,
            ENGINE_TREE,
            runtime=setup.runtime,
            config=config,
            listener=reference,
        ).run(setup.args, entry=setup.entry)
        assert result.steps == expected.steps
        assert result.metrics.totals == expected.metrics.totals
        assert listener.events == reference.events


def test_threads_share_a_lowering(lulesh_workload):
    """Three batches start together on one program with no lowering yet:
    different designs, one with ``fast_loops`` off.  Each encodes to the
    bytes the same batch gets alone, on a program of its own."""
    calls = [
        setups_of(lulesh_workload, DESIGN),
        setups_of(lulesh_workload, OTHER_DESIGN, fast_loops=False),
        setups_of(lulesh_workload, THIRD_DESIGN),
    ]
    alone = [encoded(profile(build_lulesh.__wrapped__(), s)) for s in calls]

    shared = build_lulesh.__wrapped__()
    start = threading.Barrier(len(calls))
    together: list = [None] * len(calls)

    def run(slot: int) -> None:
        start.wait()
        try:
            together[slot] = encoded(profile(shared, calls[slot]))
        except Exception as exc:  # compared, so reported, below
            together[slot] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the lowerings finely
    try:
        threads = [
            threading.Thread(target=run, args=(slot,))
            for slot in range(len(calls))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert together == alone


def test_program_pickles_without_its_lowering(lulesh_workload):
    """The lowering holds closures: a pickled (or deep-copied) program
    leaves it behind and lowers its own."""
    program = build_lulesh.__wrapped__()
    setups = setups_of(lulesh_workload, DESIGN)
    first = profile(program, setups)
    copy = pickle.loads(pickle.dumps(program))
    assert copy == program and not copy._derived
    assert encoded(profile(copy, setups)) == encoded(first)
