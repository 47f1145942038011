"""Capability-aware lease sizing, straggler splits, and telemetry.

The broker sizes every lease to the worker that claims it (capability
claim + measured lanes/sec), re-leases straggler tails, and logs
per-lease timing — all without touching the bit-identity contract:
merged ``Measurements`` equal the serial runner's for every worker mix
and failure schedule.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.codec import encode
from repro.apps.synthetic import (
    SyntheticWorkload,
    build_additive_example,
)
from repro.errors import ServiceError
from repro.measure import (
    ExperimentRunner,
    full_factorial,
    full_plan,
)
from repro.measure.noise import GaussianNoise
from repro.mpisim.contention import NoContention
from repro.service import (
    Broker,
    BrokerScheduler,
    LocalBrokerTransport,
    Worker,
)
from repro.service.worker import FAULT_ENV, SLOW_ENV


def canonical(measurements) -> str:
    return json.dumps(encode(measurements), sort_keys=True)


def make_workload() -> SyntheticWorkload:
    return SyntheticWorkload(
        builder=build_additive_example,
        parameters=("p", "s"),
        name="additive",
    )


def make_design(n: int) -> list[dict]:
    grid = full_factorial(
        {"p": [2.0, 3.0, 4.0, 5.0], "s": [2.0, 3.0, 4.0, 5.0]}
    )
    return grid[:n]


def submit_job(broker, n=8, engine="vectorized", repetitions=2, seed=1):
    workload = make_workload()
    plan = full_plan(workload.program())
    job_id = broker.submit_measure(
        workload,
        make_design(n),
        plan,
        noise=GaussianNoise(),
        contention=NoContention(),
        repetitions=repetitions,
        seed=seed,
        engine=engine,
    )
    return job_id, workload, plan


def run_fleet(
    design,
    *,
    engine="tree",
    n_workers=2,
    faults=(),
    batch_flags=(),
    repetitions=2,
    seed=3,
    timeout=60.0,
    **broker_kwargs,
):
    """One distributed run over a mixed-capability in-process fleet.

    *batch_flags* maps worker slots to ``batch=False`` opts; *faults*
    maps slots to fault specs.  Returns (measurements, broker, stats).
    """
    workload = make_workload()
    plan = full_plan(workload.program())
    broker = Broker(workers_hint=n_workers, **broker_kwargs)
    scheduler = BrokerScheduler(broker, timeout=timeout)
    stop = threading.Event()
    workers = [
        Worker(
            LocalBrokerTransport(broker),
            worker_id=f"w{i}",
            poll_interval=0.01,
            fault=dict(faults).get(i),
            batch=dict(batch_flags).get(i, True),
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
        measurements, _ = scheduler.run_measure(
            workload,
            design,
            plan,
            noise=GaussianNoise(),
            contention=NoContention(),
            repetitions=repetitions,
            seed=seed,
            engine=engine,
        )
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
    return measurements, broker, stats


def serial_reference(design, repetitions=2, seed=3):
    workload = make_workload()
    plan = full_plan(workload.program())
    measurements, _ = ExperimentRunner(
        workload=workload,
        plan=plan,
        noise=GaussianNoise(),
        contention=NoContention(),
        repetitions=repetitions,
        seed=seed,
    ).run(design)
    return measurements


def execute_lease(broker, lease) -> list:
    """Run one claimed lease to wire-ready results (no transport)."""
    worker = Worker(LocalBrokerTransport(broker), worker_id="exec")
    return worker.execute(lease)


class TestAdaptiveLeaseSizing:
    def test_scalar_worker_gets_probe_lease(self):
        broker = Broker(workers_hint=4)
        submit_job(broker, n=8)
        lease = broker.claim("scalar", supports_batch=False)
        assert len(lease["indices"]) == 1

    def test_batch_worker_splits_by_workers_hint(self):
        broker = Broker(workers_hint=4)
        submit_job(broker, n=8)
        lease = broker.claim("batchy", supports_batch=True)
        assert len(lease["indices"]) == 2  # ceil(8 / 4)

    def test_reported_rate_sizes_lease_to_target_seconds(self):
        broker = Broker(workers_hint=4, target_lease_seconds=2.0)
        submit_job(broker, n=8)
        lease = broker.claim("rated", supports_batch=True, lanes_per_sec=2.0)
        assert len(lease["indices"]) == 4  # 2 lanes/s * 2 s

    def test_rate_is_clamped_to_available_work(self):
        broker = Broker(workers_hint=4)
        submit_job(broker, n=8)
        lease = broker.claim("fast", supports_batch=True, lanes_per_sec=1e6)
        assert len(lease["indices"]) == 8

    def test_fixed_chunk_size_overrides_adaptivity(self):
        broker = Broker(workers_hint=4, chunk_size=3)
        submit_job(broker, n=8)
        lease = broker.claim("rated", supports_batch=True, lanes_per_sec=1e6)
        assert len(lease["indices"]) == 3

    def test_scalar_probe_grows_after_measured_completion(self):
        """The broker's own wall-clock EWMA takes over after the first
        completed lease: a fast scalar worker stops getting probes."""
        broker = Broker(workers_hint=4)
        submit_job(broker, n=8)
        probe = broker.claim("scalar", supports_batch=False)
        assert len(probe["indices"]) == 1
        broker.complete(probe["lease"], execute_lease(broker, probe))
        follow_up = broker.claim("scalar", supports_batch=False)
        assert len(follow_up["indices"]) > 1

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError, match="target_lease_seconds"):
            Broker(target_lease_seconds=0.0)


class TestStragglerSplit:
    def drain_pools(self, broker, worker="helper"):
        """Claim until the pending pools are dry (guided self-scheduling
        hands out ceil(available/hint), so chunks shrink as it drains);
        returns the claimed leases."""
        leases = []
        while broker.queue_depth() > 0:
            lease = broker.claim(worker, supports_batch=True)
            assert lease is not None
            leases.append(lease)
        return leases

    def test_tail_of_held_lease_is_ceded_to_idle_worker(self):
        """Pools dry + a long-held lease -> the claimant gets the tail
        half, the holder keeps the head, and the merge is unchanged no
        matter who reports which index first."""
        broker = Broker(workers_hint=2, straggler_grace=0.0)
        submit_job(broker, n=8, seed=3)
        first = broker.claim("holder", supports_batch=True)
        assert len(first["indices"]) == 4  # ceil(8 / 2)
        rest = self.drain_pools(broker)
        split = broker.claim("helper", supports_batch=True)
        assert split is not None
        assert split["indices"] == first["indices"][2:]
        # The holder still reports its full original lease; ceded
        # indices filled by the helper first are dropped, not merged
        # twice.
        broker.complete(split["lease"], execute_lease(broker, split))
        for lease in rest:
            broker.complete(lease["lease"], execute_lease(broker, lease))
        broker.complete(first["lease"], execute_lease(broker, first))
        job_id = first["job"]
        broker.wait(job_id, timeout=10.0)
        stats = broker.job_stats(job_id)
        assert stats.executed == 8

    def test_max_splits_zero_disables_splitting(self):
        broker = Broker(workers_hint=2, straggler_grace=0.0, max_splits=0)
        submit_job(broker, n=8)
        broker.claim("holder", supports_batch=True)
        self.drain_pools(broker)
        assert broker.claim("helper", supports_batch=True) is None

    def test_split_budget_is_bounded(self):
        """With straggler_grace=0 every held lease is a straggler, so
        splitting must terminate on the per-lease budget alone."""
        broker = Broker(workers_hint=2, straggler_grace=0.0, max_splits=1)
        submit_job(broker, n=8)
        broker.claim("holder", supports_batch=True)
        self.drain_pools(broker)
        extra = 0
        while broker.claim("helper", supports_batch=True) is not None:
            extra += 1
            assert extra <= 8, "straggler splitting did not terminate"
        assert extra >= 1
        for record in broker.telemetry()["leases"]:
            assert record["splits"] <= 1

    def test_single_lane_leases_never_split(self):
        broker = Broker(workers_hint=2, straggler_grace=0.0, chunk_size=1)
        submit_job(broker, n=2)
        broker.claim("holder", supports_batch=True)
        broker.claim("helper", supports_batch=True)
        assert broker.claim("helper", supports_batch=True) is None


class TestSlowFault:
    def test_slow_fault_spec_parses(self):
        worker = Worker(object(), fault="slow:2")
        assert worker.fault == ("slow", 2)

    def test_slow_fault_read_from_env(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "slow:3")
        monkeypatch.setenv(SLOW_ENV, "0.25")
        worker = Worker(object())
        assert worker.fault == ("slow", 3)
        assert worker.slow_seconds == 0.25

    def test_invalid_slow_spec_rejected(self):
        with pytest.raises(ServiceError, match="slow:<n>"):
            Worker(object(), fault="slow:0")

    @pytest.mark.parametrize(
        "faults",
        [{0: "slow:1"}, {0: "slow:1", 1: "crash:1"}],
        ids=["slow", "slow+crash"],
    )
    def test_merged_measurements_unchanged_by_stragglers(
        self, faults, monkeypatch
    ):
        """A slow worker (with a tight straggler grace, so its tails are
        re-leased) must not change a bit of the merged output."""
        monkeypatch.setenv(SLOW_ENV, "0.2")
        design = make_design(8)
        measurements, _, _ = run_fleet(
            design,
            n_workers=3,
            faults=faults,
            lease_ttl=5.0,
            straggler_grace=0.02,
        )
        assert canonical(measurements) == canonical(
            serial_reference(design)
        )

    def test_mixed_fleet_with_scalar_worker_bit_identical(self, monkeypatch):
        """Vectorized + scalar-fallback workers, one slow: the broker
        hands them different lease sizes, the merge stays identical."""
        monkeypatch.setenv(SLOW_ENV, "0.15")
        design = make_design(8)
        measurements, broker, _ = run_fleet(
            design,
            engine="vectorized",
            n_workers=3,
            batch_flags={2: False},
            faults={2: "slow:1"},
            straggler_grace=0.02,
        )
        assert canonical(measurements) == canonical(
            serial_reference(design)
        )
        workers = {
            w["worker"]: w for w in broker.telemetry()["workers"]
        }
        assert workers["w2"]["supports_batch"] is False


class TestTelemetry:
    def test_lease_records_have_fixed_field_order(self):
        broker = Broker(workers_hint=2)
        submit_job(broker, n=4)
        lease = broker.claim("w0", supports_batch=True, lanes_per_sec=1.5)
        broker.complete(lease["lease"], execute_lease(broker, lease))
        telemetry = broker.telemetry()
        assert list(telemetry) == ["leases", "workers"]
        for record in telemetry["leases"]:
            assert list(record) == [
                "lease",
                "job",
                "worker",
                "configurations",
                "attempt",
                "status",
                "seconds",
                "splits",
            ]
        for record in telemetry["workers"]:
            assert list(record) == [
                "worker",
                "supports_batch",
                "lanes_per_sec",
                "leases_completed",
                "lanes_completed",
                "failures",
                "quarantined",
            ]

    def test_completed_lease_timing_and_rates_recorded(self):
        broker = Broker(workers_hint=2)
        submit_job(broker, n=4)
        lease = broker.claim("w0", supports_batch=True)
        broker.complete(lease["lease"], execute_lease(broker, lease))
        telemetry = broker.telemetry()
        record = next(
            r for r in telemetry["leases"] if r["lease"] == lease["lease"]
        )
        assert record["status"] == "completed"
        assert record["worker"] == "w0"
        assert record["seconds"] is not None and record["seconds"] >= 0
        worker = next(
            w for w in telemetry["workers"] if w["worker"] == "w0"
        )
        assert worker["leases_completed"] == 1
        assert worker["lanes_completed"] == len(lease["indices"])
        assert worker["lanes_per_sec"] is not None

    def test_leases_sorted_by_id_and_workers_by_name(self):
        broker = Broker(workers_hint=4)
        submit_job(broker, n=8)
        for name in ("zeta", "alpha", "mid"):
            lease = broker.claim(name, supports_batch=True)
            broker.complete(lease["lease"], execute_lease(broker, lease))
        telemetry = broker.telemetry()
        lease_ids = [
            int(str(r["lease"]).lstrip("L")) for r in telemetry["leases"]
        ]
        assert lease_ids == sorted(lease_ids)
        names = [w["worker"] for w in telemetry["workers"]]
        assert names == sorted(names)

    def test_after_fleet_run_every_lease_is_terminal(self):
        design = make_design(6)
        _, broker, _ = run_fleet(design, n_workers=2)
        for record in broker.telemetry()["leases"]:
            assert record["status"] in ("completed", "failed", "reaped")
