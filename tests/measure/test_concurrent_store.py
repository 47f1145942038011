"""Concurrent-writer safety of the content-addressed store.

The campaign service lets many processes race on the same fingerprint —
two workers finishing identical leases, two campaigns sharing a
workspace, a server and a local run sharing a store directory.  The
contract (temp file + ``os.replace``) is that a racing reader sees
either a complete, valid entry or a miss — never a torn one — and the
worst case of a race is duplicated work, not corruption.

The writers here run in real separate *processes*, hammering the same
key, while the parent reads concurrently.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.apps.synthetic import SyntheticWorkload, build_foo_example
from repro.measure import (
    ExperimentRunner,
    cached_runs,
    full_plan,
    measurements_to_dict,
    store_run,
)
from repro.measure.experiment import run_configuration
from repro.measure.io import config_run_result_to_dict
from repro.measure.noise import GaussianNoise
from repro.mpisim.contention import NoContention
from repro.store import LocalStore

WRITES_PER_PROCESS = 40


def make_result():
    workload = SyntheticWorkload(
        builder=build_foo_example, parameters=("a", "b")
    )
    return run_configuration(
        workload.program(),
        workload.setup({"a": 2.0, "b": 3.0}),
        full_plan(workload.program()),
        GaussianNoise(),
        NoContention(),
        3,
        0,
        (2.0, 3.0),
    )


# -- process entry points (module-level so they pickle) -----------------


def hammer_run_cache(root: str) -> int:
    store = LocalStore(root)
    result = make_result()
    for _ in range(WRITES_PER_PROCESS):
        store_run(store, "racefp", result)
    return WRITES_PER_PROCESS


def hammer_local_store(root: str) -> int:
    store = LocalStore(root)
    payload = {"data": list(range(200)), "tag": "race"}
    for _ in range(WRITES_PER_PROCESS):
        store.put("runs", "racefp", payload)
    return WRITES_PER_PROCESS


def race(hammer, root, reader):
    """Two writer processes vs. a concurrently polling parent reader."""
    torn = []
    with ProcessPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(hammer, str(root)) for _ in range(2)]
        while not all(f.done() for f in futures):
            value = reader()
            # Reads during the race: a miss (None, e.g. corrupt-entry
            # guard) is acceptable only before the first write lands;
            # a torn read would either raise inside reader() or return
            # a mangled value recorded here.
            if value is not None and not value[1]:
                torn.append(value)
        assert all(f.result() == WRITES_PER_PROCESS for f in futures)
    assert not torn


class TestConcurrentWriters:
    def test_run_cache_same_fingerprint(self, tmp_path):
        root = tmp_path / "cache"
        expected = json.dumps(
            config_run_result_to_dict(make_result()), sort_keys=True
        )
        store = LocalStore(root)

        def reader():
            hit = cached_runs(store, ["racefp"]).get("racefp")
            if hit is None:
                return None
            got = json.dumps(
                config_run_result_to_dict(hit), sort_keys=True
            )
            return got, got == expected

        race(hammer_run_cache, root, reader)
        final = cached_runs(store, ["racefp"]).get("racefp")
        assert final is not None and final.cached
        assert (
            json.dumps(config_run_result_to_dict(final), sort_keys=True)
            == expected
        )
        # A torn read would have been quarantined and read as a miss.
        assert store.corrupt_stats()["corrupt_entries"] == 0

    def test_local_store_same_fingerprint(self, tmp_path):
        root = tmp_path / "store"
        expected = {"data": list(range(200)), "tag": "race"}
        store = LocalStore(root)

        def reader():
            hit = store.get("runs", "racefp")
            return None if hit is None else (hit, hit == expected)

        race(hammer_local_store, root, reader)
        assert store.get("runs", "racefp") == expected
        assert store.corrupt_stats()["corrupt_entries"] == 0

    def test_local_store_has_many_preserves_order(self, tmp_path):
        store = LocalStore(tmp_path / "store")
        store.put("runs", "fp1", {"v": 1})
        store.put("runs", "fp3", {"v": 3})
        assert store.has_many("runs", ["fp1", "fp2", "fp3", "fp1"]) == [
            True,
            False,
            True,
            True,
        ]
        assert store.has_many("runs", []) == []


def run_sweep(root: str) -> tuple[int, str]:
    """One full cached sweep; returns (executed count, canonical result)."""
    workload = SyntheticWorkload(
        builder=build_foo_example, parameters=("a", "b")
    )
    runner = ExperimentRunner(
        workload=workload,
        plan=full_plan(workload.program()),
        noise=GaussianNoise(),
        contention=NoContention(),
        repetitions=3,
        seed=0,
        cache_dir=root,
    )
    design = [
        {"a": float(a), "b": float(b)}
        for a in (2.0, 3.0)
        for b in (4.0, 5.0)
    ]
    measurements, _ = runner.run(design)
    return (
        runner.last_stats.executed,
        json.dumps(measurements_to_dict(measurements), sort_keys=True),
    )


class TestRacingSweeps:
    def test_two_processes_same_cache_then_free_rerun(self, tmp_path):
        # Two whole sweeps race the same cache directory: both succeed
        # with identical results (worst case: entries computed twice),
        # and a third run afterwards executes nothing.
        root = str(tmp_path / "cache")
        with ProcessPoolExecutor(max_workers=2) as pool:
            outcomes = list(
                pool.map(run_sweep, [root, root])
            )
        (_, canon_a), (_, canon_b) = outcomes
        assert canon_a == canon_b
        executed, canon_after = run_sweep(root)
        assert executed == 0
        assert canon_after == canon_a
