"""A long-running campaign service keeps no finished campaign's data.

A finished campaign leaves behind only what its status and artifact
endpoints read: its record holds no live ``Campaign``, the broker keeps
its measure job's counts but not its configurations or results, and the
workers' workload memo does not grow with the number of jobs served.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.codec import encode
from repro.apps.synthetic import SyntheticWorkload, build_additive_example
from repro.core.stages import STAGES
from repro.measure import (
    ExperimentRunner,
    full_factorial,
    full_plan,
)
from repro.measure import parallel
from repro.measure.noise import GaussianNoise
from repro.measure.parallel import WORKLOAD_MEMO_LIMIT
from repro.mpisim.contention import NoContention
from repro.service import Broker, CampaignService, LocalBrokerTransport, Worker

SPEC = {
    "app": "synthetic",
    "parameters": {"p": [2.0, 4.0], "s": [3.0, 5.0]},
    "repetitions": 2,
}
CAMPAIGNS = 5


def wait_for(predicate, timeout=120.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return False


def canonical(measurements) -> str:
    return json.dumps(encode(measurements), sort_keys=True)


@pytest.fixture
def workload_memo(monkeypatch):
    """The process's workload memo, emptied for this test."""
    memo = type(parallel._WORKLOAD_MEMO)()
    monkeypatch.setattr(parallel, "_WORKLOAD_MEMO", memo)
    return memo


def submit(broker, workload, design, seed):
    """Plan *design* with the runner and queue it on *broker*; returns
    the job id and a ``collect(timeout)`` that waits and merges."""
    runner = ExperimentRunner(
        workload=workload,
        plan=full_plan(workload.program()),
        noise=GaussianNoise(),
        contention=NoContention(),
        repetitions=2,
        seed=seed,
        engine="vectorized",
        scheduler=broker.run_plan,
    )
    plan = runner.prepare(design)
    job_id = broker.submit_measure(plan)

    def collect(timeout):
        broker.wait(job_id, timeout=timeout)
        return runner.collect(plan)

    return job_id, collect


def test_finished_campaigns_are_released(tmp_path, workload_memo):
    service = CampaignService(tmp_path / "state")
    worker = Worker(LocalBrokerTransport(service.broker), poll_interval=0.01)
    stop = threading.Event()
    thread = threading.Thread(target=worker.run, args=(stop,), daemon=True)
    thread.start()
    ids, memo_sizes = [], []
    try:
        for seed in range(CAMPAIGNS):
            # A new seed per campaign: the upstream stages resume, and
            # measure runs a fresh broker job every time.
            campaign_id = service.submit(dict(SPEC, seed=seed))
            assert wait_for(
                lambda: service.status(campaign_id)["state"] == "done"
            )
            ids.append(campaign_id)
            memo_sizes.append(len(workload_memo))
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()

    for campaign_id in ids:
        assert service._record(campaign_id).campaign is None
        status = service.status(campaign_id)
        assert status["state"] == "done"
        assert status["stats_line"].startswith("stages: 9 total")
        assert status["profile_executions"] == 4
        assert sorted(status["fingerprints"]) == sorted(STAGES)
        for stage in STAGES:
            assert service.artifact(campaign_id, stage) is not None

    broker = service.broker
    assert broker._jobs == {}
    assert len(broker._collected) == CAMPAIGNS
    for job_id in broker._collected:
        assert broker.job_stats(job_id).executed == 4
        assert broker.job_recovery(job_id) == 0

    # One workload, one memo entry, however many jobs were served.
    assert memo_sizes == [1] * CAMPAIGNS


def test_failed_campaign_is_released(tmp_path):
    # No worker attached: the measure stage times out and fails.
    service = CampaignService(tmp_path / "state", measure_timeout=0.2)
    campaign_id = service.submit(dict(SPEC, seed=1))
    assert wait_for(lambda: service.status(campaign_id)["state"] == "failed")
    assert service._record(campaign_id).campaign is None
    status = service.status(campaign_id)
    assert status["stages"]["measure"] == "failed"
    assert "did not finish" in status["error"]
    assert "measure" in status["fingerprints"]
    assert service.artifact(campaign_id, "plan") is not None


def test_concurrent_collection_loses_no_update():
    # Waiters collect jobs while more workers than cores complete their
    # leases, with a short switch interval to interleave them finely.
    workload = SyntheticWorkload(
        builder=build_additive_example, parameters=("p", "s"), name="additive"
    )
    plan = full_plan(workload.program())
    design = full_factorial({"p": [2.0, 3.0, 4.0], "s": [3.0, 5.0]})
    broker = Broker(chunk_size=1)
    jobs = dict(submit(broker, workload, design, seed) for seed in range(6))
    results = {}

    def collect(job_id):
        results[job_id], _ = jobs[job_id](timeout=60)

    stop = threading.Event()
    workers = [
        threading.Thread(
            target=Worker(
                LocalBrokerTransport(broker),
                worker_id=f"w{i}",
                poll_interval=0.001,
            ).run,
            args=(stop,),
            daemon=True,
        )
        for i in range(4)
    ]
    waiters = [
        threading.Thread(target=collect, args=(job_id,), daemon=True)
        for job_id in jobs
    ]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in workers + waiters:
            thread.start()
        for thread in waiters:
            thread.join(timeout=60)
    finally:
        stop.set()
        for thread in workers:
            thread.join(timeout=30)
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in workers + waiters)

    assert broker._jobs == {}
    for seed, job_id in enumerate(jobs):
        assert broker.job_stats(job_id).executed == len(design)
        serial, _ = ExperimentRunner(
            workload=workload, plan=plan, repetitions=2, seed=seed
        ).run(design)
        assert canonical(results[job_id]) == canonical(serial)


def test_worker_memo_is_bounded_across_workloads(workload_memo):
    broker = Broker()
    design = full_factorial({"p": [2.0, 4.0], "s": [3.0]})
    jobs = []
    for index in range(WORKLOAD_MEMO_LIMIT + 2):
        workload = SyntheticWorkload(
            builder=build_additive_example,
            parameters=("p", "s"),
            name=f"additive-{index}",
        )
        plan = full_plan(workload.program())
        job_id, collect = submit(broker, workload, design, index)
        jobs.append((collect, workload, plan, index))

    worker = Worker(
        LocalBrokerTransport(broker), poll_interval=0.01, stop_when_idle=True
    )
    stats = worker.run()
    assert stats.configurations == len(jobs) * len(design)
    assert len(workload_memo) == WORKLOAD_MEMO_LIMIT

    for collect, workload, plan, seed in jobs:
        distributed, _ = collect(timeout=30)
        serial, _ = ExperimentRunner(
            workload=workload, plan=plan, repetitions=2, seed=seed
        ).run(design)
        assert canonical(distributed) == canonical(serial)
