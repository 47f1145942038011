"""Broker + worker: bit-identity under any worker count or failure.

The service's headline invariant, as a property test: for random
designs, any number of workers, any chunking, and injected crashes or
failures, the distributed measure stage returns ``Measurements``
bit-identical to the serial :class:`ExperimentRunner` — crash recovery
may duplicate work, but it can never change a bit of the output.
"""

from __future__ import annotations

import json
import random
import threading
import time

import pytest

from repro.codec import encode
from repro.apps.synthetic import (
    SyntheticWorkload,
    build_additive_example,
    build_foo_example,
    build_multiplicative_example,
)
from repro.errors import LeaseTimeout, RegistryError, ServiceError
from repro.measure import (
    ExperimentRunner,
    full_factorial,
    full_plan,
)
from repro.measure.noise import GaussianNoise
from repro.mpisim.contention import LogQuadraticContention, NoContention
from repro.service import (
    Broker,
    BrokerScheduler,
    LocalBrokerTransport,
    LocalStore,
    Worker,
)


def canonical(measurements) -> str:
    return json.dumps(encode(measurements), sort_keys=True)


BUILDERS = {
    "foo": (build_foo_example, ("a", "b")),
    "additive": (build_additive_example, ("p", "s")),
    "multiplicative": (build_multiplicative_example, ("p", "s")),
}


def make_workload(name: str) -> SyntheticWorkload:
    builder, params = BUILDERS[name]
    return SyntheticWorkload(builder=builder, parameters=params, name=name)


def random_design(params, rng: random.Random, n: int) -> list[dict]:
    grid = full_factorial(
        {p: [float(v) for v in range(2, 7)] for p in params}
    )
    return rng.sample(grid, n)


def run_distributed(
    workload,
    design,
    plan,
    *,
    engine="tree",
    n_workers=2,
    store=None,
    lease_ttl=10.0,
    max_attempts=3,
    chunk_size=None,
    faults=(),
    timeout=60.0,
    **kw,
):
    """One distributed measure run over in-process worker threads.

    *faults* maps worker slots to fault specs (e.g. ``{0: "crash:1"}``).
    Returns (measurements, profiles, scheduler, worker stats list).
    """
    broker = Broker(
        store=store,
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
        chunk_size=chunk_size,
        workers_hint=n_workers,
    )
    scheduler = BrokerScheduler(broker, timeout=timeout)
    stop = threading.Event()
    workers = [
        Worker(
            LocalBrokerTransport(broker),
            worker_id=f"w{i}",
            poll_interval=0.01,
            fault=dict(faults).get(i),
        )
        for i in range(n_workers)
    ]
    stats = [None] * n_workers
    threads = []
    for i, worker in enumerate(workers):
        def run(i=i, worker=worker):
            stats[i] = worker.run(stop)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        threads.append(thread)
    try:
        measurements, profiles = scheduler.run_measure(
            workload,
            design,
            plan,
            engine=engine,
            **kw,
        )
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
    return measurements, profiles, scheduler, stats


class TestBitIdentity:
    @pytest.mark.parametrize("app", sorted(BUILDERS))
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_matches_serial_for_any_worker_count(self, app, n_workers):
        rng = random.Random(hash((app, n_workers)) & 0xFFFF)
        workload = make_workload(app)
        design = random_design(workload.parameters, rng, 5)
        plan = full_plan(workload.program())
        kw = dict(
            noise=GaussianNoise(),
            contention=LogQuadraticContention(beta=0.04),
            repetitions=3,
            seed=rng.randrange(100),
        )
        serial, serial_profiles = ExperimentRunner(
            workload=workload, plan=plan, **kw
        ).run(design)
        distributed, profiles, scheduler, _ = run_distributed(
            workload,
            design,
            plan,
            n_workers=n_workers,
            chunk_size=rng.choice([None, 1, 2]),
            **kw,
        )
        assert canonical(distributed) == canonical(serial)
        assert set(profiles) == set(serial_profiles)
        assert scheduler.last_stats.executed == len(design)

    @pytest.mark.parametrize(
        "faults",
        [{0: "crash:1"}, {0: "fail:1"}, {0: "crash:1", 1: "fail:1"}],
        ids=["crash", "fail", "crash+fail"],
    )
    def test_matches_serial_under_injected_faults(self, faults):
        # A short TTL turns the crashed worker's silence into a requeue
        # quickly; the healthy worker finishes the job.  Output must not
        # change by a single bit.
        rng = random.Random(7)
        workload = make_workload("additive")
        design = random_design(workload.parameters, rng, 6)
        plan = full_plan(workload.program())
        kw = dict(
            noise=GaussianNoise(),
            contention=NoContention(),
            repetitions=2,
            seed=3,
        )
        serial, _ = ExperimentRunner(
            workload=workload, plan=plan, **kw
        ).run(design)
        distributed, _, _, stats = run_distributed(
            workload,
            design,
            plan,
            n_workers=3,
            chunk_size=1,
            lease_ttl=0.3,
            faults=faults,
            **kw,
        )
        assert canonical(distributed) == canonical(serial)
        # A worker with a crash fault dies on its first claim — but only
        # if it won a claim at all before the healthy workers drained
        # the queue (scheduling-dependent), so assert conditionally.
        for slot, spec in faults.items():
            if spec.startswith("crash") and stats[slot].claimed >= 1:
                assert stats[slot].crashed

    def test_vectorized_engine_runs_leases_as_batches(self):
        # A supports_batch engine runs whole leases as one tensor pass;
        # results must equal the local runner's on the same engine
        # (itself bit-identical to serial).
        workload = make_workload("multiplicative")
        design = full_factorial({"p": [2.0, 3.0], "s": [4.0, 5.0]})
        plan = full_plan(workload.program())
        kw = dict(
            noise=GaussianNoise(),
            contention=NoContention(),
            repetitions=3,
            seed=5,
        )
        batched, _ = ExperimentRunner(
            workload=workload, plan=plan, engine="vectorized", **kw
        ).run(design)
        distributed, _, _, stats = run_distributed(
            workload, design, plan, engine="vectorized", n_workers=2, **kw
        )
        assert canonical(distributed) == canonical(batched)
        # Leases carried more than one configuration each (batch path).
        done = [s for s in stats if s is not None]
        assert sum(s.configurations for s in done) == len(design)
        assert sum(s.completed for s in done) < len(design)


    @pytest.mark.parametrize("engine", ["tree", "vectorized"])
    def test_repeated_design_point_is_measured_once(
        self, engine, serial_reference
    ):
        """A repeated design point leases once and merges once: the
        distributed measurements and profiles equal the local oracle's,
        ``repetitions`` samples per key."""
        workload = make_workload("additive")
        design = [{"p": 2, "s": 3}, {"p": 2, "s": 3}, {"p": 4, "s": 3}]
        plan = full_plan(workload.program())
        kw = dict(
            noise=GaussianNoise(),
            contention=NoContention(),
            repetitions=3,
            seed=5,
        )
        reference, reference_profiles = serial_reference(
            workload, design, plan, **kw
        )
        distributed, profiles, scheduler, _ = run_distributed(
            workload, design, plan, engine=engine, **kw
        )
        assert canonical(distributed) == canonical(reference)
        assert {k: encode(v) for k, v in profiles.items()} == {
            k: encode(v) for k, v in reference_profiles.items()
        }
        for per_key in distributed.data.values():
            assert {len(v) for v in per_key.values()} == {3}
        assert scheduler.last_stats.executed == 2
        assert scheduler.last_stats.cached == 0


class TestStoreDedupe:
    def test_second_submission_executes_nothing(self, tmp_path):
        workload = make_workload("foo")
        design = full_factorial({"a": [2.0, 3.0], "b": [4.0, 5.0]})
        plan = full_plan(workload.program())
        store = LocalStore(tmp_path / "store")
        kw = dict(
            noise=GaussianNoise(),
            contention=NoContention(),
            repetitions=2,
            seed=0,
        )
        first, _, sched1, _ = run_distributed(
            workload, design, plan, store=store, **kw
        )
        assert sched1.last_stats.executed == len(design)
        assert len(store.keys("runs")) == len(design)

        # A *different* broker over the same store: full cache hit, no
        # workers even needed.
        broker2 = Broker(store=store)
        sched2 = BrokerScheduler(broker2, timeout=5.0)
        second, _ = sched2.run_measure(
            workload, design, plan, engine="tree", **kw
        )
        assert sched2.last_stats.executed == 0
        assert sched2.last_stats.cached == len(design)
        assert canonical(second) == canonical(first)

    def test_fingerprints_isolate_different_seeds(self, tmp_path):
        workload = make_workload("foo")
        design = [{"a": 2.0, "b": 3.0}]
        plan = full_plan(workload.program())
        store = LocalStore(tmp_path / "store")
        kw = dict(
            noise=GaussianNoise(), contention=NoContention(), repetitions=2
        )
        run_distributed(workload, design, plan, store=store, seed=0, **kw)
        _, _, sched, _ = run_distributed(
            workload, design, plan, store=store, seed=1, **kw
        )
        assert sched.last_stats.executed == 1  # different seed: no hit


class TestFaultHandling:
    def test_exhausted_lease_raises_named_timeout(self):
        # Every worker crashes on its first lease; with max_attempts=2
        # the second reap poisons the job.
        workload = make_workload("foo")
        design = [{"a": 2.0, "b": 3.0}]
        plan = full_plan(workload.program())
        with pytest.raises(LeaseTimeout) as err:
            run_distributed(
                workload,
                design,
                plan,
                n_workers=2,
                lease_ttl=0.2,
                max_attempts=2,
                faults={0: "crash:1", 1: "crash:1"},
                timeout=30.0,
                noise=GaussianNoise(),
                contention=NoContention(),
                repetitions=2,
                seed=0,
            )
        message = str(err.value)
        assert "L" in message and "J" in message  # lease + job named
        assert "attempt" in message
        assert "resubmit" in message  # actionable: cache keeps progress

    def test_failed_lease_requeues_and_completes(self):
        # fail:1 reports failure immediately (no TTL wait); the lease is
        # requeued and completed on a later attempt.
        workload = make_workload("foo")
        design = [{"a": 2.0, "b": 3.0}, {"a": 4.0, "b": 5.0}]
        plan = full_plan(workload.program())
        kw = dict(
            noise=GaussianNoise(),
            contention=NoContention(),
            repetitions=2,
            seed=0,
        )
        serial, _ = ExperimentRunner(
            workload=workload, plan=plan, **kw
        ).run(design)
        distributed, _, _, stats = run_distributed(
            workload,
            design,
            plan,
            n_workers=1,
            chunk_size=1,
            faults={0: "fail:1"},
            **kw,
        )
        assert canonical(distributed) == canonical(serial)
        assert stats[0].failed == 1

    def test_wait_timeout_mentions_workers(self):
        workload = make_workload("foo")
        plan = full_plan(workload.program())
        broker = Broker()  # nobody attached
        scheduler = BrokerScheduler(broker, timeout=0.2)
        with pytest.raises(ServiceError, match="workers"):
            scheduler.run_measure(
                workload,
                [{"a": 2.0, "b": 3.0}],
                plan,
                noise=GaussianNoise(),
                contention=NoContention(),
                repetitions=1,
                seed=0,
                engine="tree",
            )

    def test_unknown_engine_rejected_before_queueing(self):
        """An unregistered engine is a typed error at submission: no job
        and no lease exist, and the connected workers keep serving."""
        workload = make_workload("foo")
        plan = full_plan(workload.program())
        design = [{"a": 2.0, "b": 3.0}, {"a": 3.0, "b": 4.0}]
        kw = dict(
            noise=GaussianNoise(),
            contention=NoContention(),
            repetitions=1,
            seed=0,
        )
        broker = Broker()
        scheduler = BrokerScheduler(broker, timeout=10.0)
        stop = threading.Event()
        stats = [None, None]
        threads = []
        for i in range(2):
            worker = Worker(
                LocalBrokerTransport(broker),
                worker_id=f"w{i}",
                poll_interval=0.01,
            )

            def run(i=i, worker=worker):
                stats[i] = worker.run(stop)

            threads.append(threading.Thread(target=run, daemon=True))
            threads[-1].start()
        try:
            started = time.monotonic()
            with pytest.raises(RegistryError, match="nonsense"):
                scheduler.run_measure(
                    workload, design, plan, engine="nonsense", **kw
                )
            assert time.monotonic() - started < 1.0
            assert scheduler.last_job_id is None
            with pytest.raises(ServiceError, match="unknown measure job"):
                broker.job_stats("J1")
            assert broker.queue_depth() == 0
            assert broker.telemetry()["leases"] == []
            measurements, _ = scheduler.run_measure(
                workload, design, plan, engine="tree", **kw
            )
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        serial, _ = ExperimentRunner(workload=workload, plan=plan, **kw).run(
            design
        )
        assert canonical(measurements) == canonical(serial)
        assert [s.fatal_error for s in stats] == [None, None]
        assert sum(s.completed for s in stats) >= 1


class TestBrokerSurface:
    def test_claim_on_empty_queue_returns_none(self):
        assert Broker().claim("w0") is None

    def test_complete_rejects_foreign_index(self):
        workload = make_workload("foo")
        plan = full_plan(workload.program())
        broker = Broker(chunk_size=1)
        broker.submit_measure(
            workload,
            [{"a": 2.0, "b": 3.0}, {"a": 3.0, "b": 4.0}],
            plan,
            noise=GaussianNoise(),
            contention=NoContention(),
            repetitions=1,
            seed=0,
            engine="tree",
        )
        lease = broker.claim("w0")
        foreign = [i for i in (0, 1) if i not in lease["indices"]][0]
        with pytest.raises(ServiceError, match="does not hold"):
            broker.complete(
                lease["lease"], [{"index": foreign, "result": {}}]
            )

    def test_late_completion_of_reaped_lease_is_dropped(self):
        workload = make_workload("foo")
        plan = full_plan(workload.program())
        broker = Broker(lease_ttl=0.05, max_attempts=5)
        broker.submit_measure(
            workload,
            [{"a": 2.0, "b": 3.0}],
            plan,
            noise=GaussianNoise(),
            contention=NoContention(),
            repetitions=1,
            seed=0,
            engine="tree",
        )
        worker = Worker(LocalBrokerTransport(broker), worker_id="w0")
        lease = broker.claim("w0")
        results = worker.execute(lease)
        import time

        time.sleep(0.1)
        assert broker.queue_depth() == 1  # reaped and requeued
        broker.complete(lease["lease"], results)  # late: dropped, no error
        lease2 = broker.claim("w0")
        assert lease2["attempt"] == 1
        broker.complete(lease2["lease"], worker.execute(lease2))
        measurements, _ = broker.wait(lease2["job"], timeout=5)
        assert measurements.data

    def test_invalid_fault_spec_rejected(self):
        broker = Broker()
        with pytest.raises(ServiceError, match="crash:<n>"):
            Worker(LocalBrokerTransport(broker), fault="explode:now")

    def test_fault_env_var_is_read(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_FAULT", "crash:2")
        broker = Broker()
        worker = Worker(LocalBrokerTransport(broker))
        assert worker.fault == ("crash", 2)
