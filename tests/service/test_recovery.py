"""Crash recovery: journal replay, restart re-drive, chaos faults.

The central claims under test:

* a campaign service restarted on the same state directory recovers
  every journaled campaign — terminal ones as snapshots, unfinished
  ones re-driven through the stage DAG with store resume (so nothing
  that finished before the crash re-executes);
* a restarted broker re-leases only the unfinished tail of a measure
  job (its journal checkpoint separates its own pre-crash completions
  from ordinary cache hits);
* for ANY kill point and worker count, recovered results are
  bit-identical to a serial run and no configuration is profiled twice
  (the hypothesis property test);
* every HTTP-speaking client path survives injected network faults
  (dropped connections, garbled bodies) through the shared retry
  policy, and dropped completions are idempotent;
* misbehaving pieces degrade instead of looping: corrupt store entries
  are quarantined and surfaced, repeatedly-failing workers are
  quarantined, and workers exit with one diagnostic line on permanent
  errors while reconnecting through transient ones.
"""

from __future__ import annotations

import json
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import encode
from repro.apps.synthetic import SyntheticWorkload, build_additive_example
from repro.errors import (
    ProtocolVersionMismatch,
    TransientServiceError,
)
from repro.measure import (
    ExperimentRunner,
    full_factorial,
    full_plan,
)
from repro.measure.noise import GaussianNoise
from repro.mpisim.contention import NoContention
from repro.service import (
    Broker,
    CampaignService,
    LocalBrokerTransport,
    LocalStore,
    ServiceClient,
    ServiceJournal,
    Worker,
    serve,
)
from repro.store import RUNS_NAMESPACE, STAGE_NAMESPACE

SPEC = {
    "app": "lulesh",
    "mode": "taint",
    "repetitions": 2,
    "seed": 0,
    "parameters": {"p": [8.0, 27.0], "size": [4.0, 6.0]},
}


def canonical(measurements) -> str:
    return json.dumps(encode(measurements), sort_keys=True)


def make_workload() -> SyntheticWorkload:
    return SyntheticWorkload(
        builder=build_additive_example,
        parameters=("p", "s"),
        name="additive",
    )


def submit_job(broker, design, repetitions=2, seed=1):
    workload = make_workload()
    plan = full_plan(workload.program())
    return broker.submit_measure(
        workload,
        design,
        plan,
        noise=GaussianNoise(),
        contention=NoContention(),
        repetitions=repetitions,
        seed=seed,
        engine="vectorized",
    )


def drain_with_worker(broker, **worker_kwargs):
    """Run one in-process worker inline until it stops."""
    worker = Worker(
        LocalBrokerTransport(broker),
        poll_interval=0.01,
        stop_when_idle=True,
        **worker_kwargs,
    )
    return worker.run()


def attach_workers(service, n, stop, **kw):
    for i in range(n):
        worker = Worker(
            LocalBrokerTransport(service.broker),
            worker_id=f"rw{i}",
            poll_interval=0.02,
            **kw,
        )
        threading.Thread(target=worker.run, args=(stop,), daemon=True).start()


def wait_for(predicate, timeout=120.0, poll=0.05):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return False


class TestServiceRestartRecovery:
    def test_terminal_campaigns_survive_restart_as_snapshots(self, tmp_path):
        root = tmp_path / "state"
        first = CampaignService(root, chunk_size=2)
        stop = threading.Event()
        attach_workers(first, 2, stop)
        try:
            campaign_id = first.submit(SPEC)
            assert wait_for(
                lambda: first.status(campaign_id)["state"] == "done"
            )
            before = first.status(campaign_id)
        finally:
            stop.set()

        # "kill -9": the first service object is simply abandoned.
        second = CampaignService(root, chunk_size=2)
        after = second.status(campaign_id)
        assert after["state"] == "done"
        assert after["recovered"] is True
        assert after["restarts"] == 0
        assert after["fingerprints"] == before["fingerprints"]
        assert after["profile_executions"] == before["profile_executions"]
        assert after["stats_line"] == before["stats_line"]
        # Artifacts still served, straight from the shared store.
        assert second.artifact(campaign_id, "model") is not None
        assert second.restarts == 1
        telemetry = second.telemetry()
        assert telemetry["service"]["restarts"] == 1
        assert telemetry["service"]["recovered_campaigns"] == [campaign_id]

    def test_unfinished_campaign_is_redriven_bit_identically(self, tmp_path):
        root = tmp_path / "state"
        first = CampaignService(root, chunk_size=1)
        # No workers: the campaign journals its pre-measure stages and
        # then blocks in the measure stage forever.
        campaign_id = first.submit(SPEC)
        assert wait_for(
            lambda: first.status(campaign_id)["stages"]["design"]
            == "computed"
        )

        # Crash. A new service on the same state directory re-drives it.
        second = CampaignService(root, chunk_size=1)
        status = second.status(campaign_id)
        assert status["recovered"] is True
        assert status["restarts"] == 1

        stop = threading.Event()
        attach_workers(second, 2, stop)
        try:
            assert wait_for(
                lambda: second.status(campaign_id)["state"] == "done"
            )
        finally:
            stop.set()
        done = second.status(campaign_id)
        # Every stage that finished pre-crash resumed from the store.
        assert done["stages"]["static"] == "resumed"
        assert done["stages"]["design"] == "resumed"
        assert done["stages"]["measure"] == "computed"
        # 4 unique configurations, none executed before the crash.
        assert done["profile_executions"] == 4
        # Identical spec on a fresh, never-crashed service → identical
        # fingerprints (recovery is invisible in the artifacts).
        pristine = CampaignService(tmp_path / "pristine", chunk_size=1)
        stop2 = threading.Event()
        attach_workers(pristine, 2, stop2)
        try:
            reference_id = pristine.submit(SPEC)
            assert wait_for(
                lambda: pristine.status(reference_id)["state"] == "done"
            )
        finally:
            stop2.set()
        assert (
            done["fingerprints"]
            == pristine.status(reference_id)["fingerprints"]
        )

    def test_mid_measure_crash_executes_remainder_only(self, tmp_path):
        root = tmp_path / "state"
        first = CampaignService(root, chunk_size=1)
        campaign_id = first.submit(SPEC)
        assert wait_for(
            lambda: first.status(campaign_id)["stages"]["design"]
            == "computed"
        )
        # The plan stage still runs before measure: wait for the measure
        # job to be queued, or the idle-stopping worker below may find
        # nothing to claim and exit with no lease completed.
        assert wait_for(lambda: first.broker.queue_depth() > 0)
        # One worker completes exactly one single-configuration lease,
        # then the server "crashes".
        stats = drain_with_worker(first.broker, max_leases=1)
        assert stats.completed == 1

        second = CampaignService(root, chunk_size=1)
        stop = threading.Event()
        attach_workers(second, 2, stop)
        try:
            assert wait_for(
                lambda: second.status(campaign_id)["state"] == "done"
            )
        finally:
            stop.set()
        done = second.status(campaign_id)
        # 4 unique configurations; 1 landed pre-crash and is adopted
        # from the store, only the remaining 3 execute.
        assert done["profile_executions"] == 3
        assert done["recovered"] is True

    def test_submit_token_is_idempotent_across_restart(self, tmp_path):
        root = tmp_path / "state"
        first = CampaignService(root, chunk_size=1)
        campaign_id = first.submit(SPEC, token="tok-42")
        assert first.submit(SPEC, token="tok-42") == campaign_id

        second = CampaignService(root, chunk_size=1)
        # The retried submit lands on the restarted server: same id.
        assert second.submit(SPEC, token="tok-42") == campaign_id

    def test_campaign_ids_continue_after_restart(self, tmp_path):
        root = tmp_path / "state"
        first = CampaignService(root, chunk_size=1)
        first_id = first.submit(SPEC)

        second = CampaignService(root, chunk_size=1)
        next_id = second.submit(dict(SPEC, seed=1))
        assert next_id != first_id
        assert int(next_id.lstrip("C")) > int(first_id.lstrip("C"))

    def test_journal_disabled_means_no_recovery(self, tmp_path):
        root = tmp_path / "state"
        first = CampaignService(root, chunk_size=1, journal=False)
        campaign_id = first.submit(SPEC)
        second = CampaignService(root, chunk_size=1, journal=False)
        with pytest.raises(Exception, match="unknown campaign"):
            second.status(campaign_id)


class TestBrokerCheckpointRecovery:
    def test_restarted_broker_releases_only_the_tail(self, tmp_path):
        store = LocalStore(tmp_path / "store")
        journal = ServiceJournal(store)
        design = full_factorial({"p": [2.0, 3.0], "s": [2.0, 3.0]})

        broker1 = Broker(store=store, journal=journal, chunk_size=1)
        job1 = submit_job(broker1, design)
        stats = drain_with_worker(broker1, max_leases=2)
        assert stats.completed == 2

        # Crash broker1; a fresh broker on the same store + journal
        # adopts the merged prefix as *recovered*, not just cached.
        broker2 = Broker(store=store, journal=journal, chunk_size=1)
        job2 = submit_job(broker2, design)
        assert broker2.job_recovery(job2) == 2
        drain_with_worker(broker2)
        measurements, _ = broker2.wait(job2, timeout=30)
        run_stats = broker2.job_stats(job2)
        assert run_stats.executed == len(design) - 2
        assert run_stats.cached == 2

        # The finished job's checkpoint is tombstoned: a third
        # submission counts the hits as plain cache, not recovery.
        broker3 = Broker(store=store, journal=journal, chunk_size=1)
        job3 = submit_job(broker3, design)
        assert broker3.job_recovery(job3) == 0
        assert broker3.job_stats(job3).cached == len(design)
        _ = job1  # broker1 is abandoned, never waited on

    def test_recovered_results_match_serial(self, tmp_path):
        workload = make_workload()
        design = full_factorial({"p": [2.0, 3.0], "s": [2.0, 3.0]})
        plan = full_plan(workload.program())
        serial, _ = ExperimentRunner(
            workload,
            plan,
            noise=GaussianNoise(),
            contention=NoContention(),
            repetitions=2,
            seed=1,
            engine="vectorized",
        ).run(design)

        store = LocalStore(tmp_path / "store")
        journal = ServiceJournal(store)
        broker1 = Broker(store=store, journal=journal, chunk_size=1)
        submit_job(broker1, design)
        drain_with_worker(broker1, max_leases=1)

        broker2 = Broker(store=store, journal=journal, chunk_size=1)
        job2 = submit_job(broker2, design)
        drain_with_worker(broker2)
        recovered, _ = broker2.wait(job2, timeout=30)
        assert canonical(recovered) == canonical(serial)


class TestKillPointProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        n_configs=st.integers(min_value=2, max_value=6),
        n_workers=st.integers(min_value=1, max_value=3),
        kill_point=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_any_kill_point_is_bit_identical_and_exactly_once(
        self, n_configs, n_workers, kill_point, seed
    ):
        """For random designs, fleet sizes, and kill points: recovery
        is bit-identical to serial and profiles nothing twice."""
        workload = make_workload()
        grid = full_factorial(
            {"p": [2.0, 3.0, 4.0], "s": [2.0, 3.0]}
        )
        design = grid[:n_configs]
        plan = full_plan(workload.program())
        serial, _ = ExperimentRunner(
            workload,
            plan,
            noise=GaussianNoise(),
            contention=NoContention(),
            repetitions=2,
            seed=seed,
            engine="vectorized",
        ).run(design)

        with tempfile.TemporaryDirectory() as root:
            store = LocalStore(root)
            journal = ServiceJournal(store)
            broker1 = Broker(store=store, journal=journal, chunk_size=1)
            job1 = submit_job(broker1, design, seed=seed)
            executed_before = 0
            if kill_point:
                stats = drain_with_worker(broker1, max_leases=kill_point)
                executed_before = broker1.job_stats(job1).executed

            # Kill. Restart. Re-submit the same stage content.
            broker2 = Broker(store=store, journal=journal, chunk_size=1)
            job2 = submit_job(broker2, design, seed=seed)
            if executed_before < len(design):
                # Crashed mid-job: the checkpoint marks the merged
                # prefix as this job's own recovered completions.
                assert broker2.job_recovery(job2) == executed_before
            else:
                # The "crash" landed after the job finished — its
                # checkpoint is tombstoned, hits are plain cache.
                assert broker2.job_recovery(job2) == 0
            for _ in range(n_workers):
                drain_with_worker(broker2)
            recovered, _ = broker2.wait(job2, timeout=60)

            assert canonical(recovered) == canonical(serial)
            # Exactly-once: executions across both incarnations cover
            # the design with no overlap.
            assert (
                executed_before + broker2.job_stats(job2).executed
                == len(design)
            )


class TestIdempotentReports:
    def test_duplicate_completion_is_a_noop(self, tmp_path):
        broker = Broker(chunk_size=2)
        design = full_factorial({"p": [2.0, 3.0], "s": [2.0]})
        job_id = submit_job(broker, design)
        worker = Worker(LocalBrokerTransport(broker))
        lease = broker.claim("w0")
        results = worker.execute(lease)
        broker.complete(lease["lease"], results)
        executed_once = broker.job_stats(job_id).executed
        # The retried (duplicate) completion changes nothing.
        broker.complete(lease["lease"], results)
        assert broker.job_stats(job_id).executed == executed_once

    def test_dropped_completion_response_is_survivable(self, tmp_path):
        """A completion delivered but whose ack was lost: the worker
        retries (transport-level), the broker no-ops, work finishes."""

        class AckDroppingTransport:
            """Delivers, then pretends the response was dropped, then
            retries the (idempotent) delivery — like HttpBrokerTransport
            under a drop:1 fault on the ack."""

            def __init__(self, inner):
                self.inner = inner
                self.dropped = False

            def claim(self, worker, capability=None):
                return self.inner.claim(worker, capability)

            def complete(self, lease_id, results):
                if not self.dropped:
                    self.dropped = True
                    self.inner.complete(lease_id, results)  # delivered
                    raise TransientServiceError("response dropped")
                self.inner.complete(lease_id, results)  # retried: no-op

            def fail(self, lease_id, reason):
                self.inner.fail(lease_id, reason)

        broker = Broker(chunk_size=1)
        design = full_factorial({"p": [2.0, 3.0], "s": [2.0]})
        job_id = submit_job(broker, design)
        worker = Worker(
            AckDroppingTransport(LocalBrokerTransport(broker)),
            poll_interval=0.01,
            stop_when_idle=True,
        )
        stats = worker.run()
        assert stats.reconnects == 1
        drain_with_worker(broker)  # pick up the re-claimed remainder
        broker.wait(job_id, timeout=30)
        assert broker.job_stats(job_id).executed == len(design)


class TestWorkerDegradation:
    def test_transient_claim_failures_reconnect(self):
        broker = Broker(chunk_size=2)
        design = full_factorial({"p": [2.0, 3.0], "s": [2.0]})
        job_id = submit_job(broker, design)

        class FlakyClaimTransport(LocalBrokerTransport):
            def __init__(self, broker, outages):
                super().__init__(broker)
                self.outages = outages

            def claim(self, worker, capability=None):
                if self.outages > 0:
                    self.outages -= 1
                    raise TransientServiceError("connection refused")
                return super().claim(worker, capability)

        worker = Worker(
            FlakyClaimTransport(broker, outages=3),
            poll_interval=0.01,
            stop_when_idle=True,
        )
        stats = worker.run()
        assert stats.reconnects == 3
        assert stats.fatal_error is None
        broker.wait(job_id, timeout=30)

    def test_unreachable_broker_gives_up_after_timeout(self):
        class DeadTransport:
            def claim(self, worker, capability=None):
                raise TransientServiceError("connection refused")

        worker = Worker(
            DeadTransport(),
            poll_interval=0.01,
            reconnect_timeout=0.2,
        )
        stats = worker.run()
        assert stats.fatal_error is not None
        assert "unreachable" in stats.fatal_error
        assert stats.reconnects > 0

    def test_undecodable_lease_is_fatal_not_a_hot_loop(self):
        class BadLeaseTransport:
            """Grants garbage leases forever; a hot-looping worker
            would claim thousands of them."""

            def __init__(self):
                self.claims = 0
                self.failed = []

            def claim(self, worker, capability=None):
                self.claims += 1
                return {
                    "lease": f"L{self.claims}",
                    "job": "J1",
                    "indices": [0],
                    "configs": [[("p", 2.0)]],
                    "task": {"not": "a task"},
                }

            def fail(self, lease_id, reason):
                self.failed.append((lease_id, reason))

        transport = BadLeaseTransport()
        worker = Worker(transport, poll_interval=0.01)
        stats = worker.run()
        # Exactly one claim, one reported failure, one diagnostic.
        assert transport.claims == 1
        assert len(transport.failed) == 1
        assert stats.fatal_error is not None
        assert stats.failed == 1

    def test_version_skew_is_fatal(self):
        class SkewedTransport:
            def __init__(self):
                self.claims = 0

            def claim(self, worker, capability=None):
                self.claims += 1
                raise ProtocolVersionMismatch(99, 1)

            def fail(self, lease_id, reason):
                pass

        transport = SkewedTransport()
        worker = Worker(transport, poll_interval=0.01)
        with pytest.raises(ProtocolVersionMismatch):
            # Version skew at claim time is not a transient transport
            # error: it propagates (the CLI prints it once and exits).
            worker.run()
        assert transport.claims == 1


class TestBrokerQuarantine:
    def test_repeatedly_failing_worker_is_quarantined(self):
        broker = Broker(chunk_size=1, quarantine_after=2)
        design = full_factorial({"p": [2.0, 3.0], "s": [2.0, 3.0]})
        submit_job(broker, design)

        for _ in range(2):
            lease = broker.claim("bad-worker")
            assert lease is not None
            broker.fail(lease["lease"], "simulated executor bug")

        # Quarantined: no more work for this name.
        assert broker.claim("bad-worker") is None
        workers = {
            w["worker"]: w for w in broker.telemetry()["workers"]
        }
        assert workers["bad-worker"]["quarantined"] is True
        assert workers["bad-worker"]["failures"] == 2
        # A healthy worker still gets the re-pooled work.
        assert broker.claim("good-worker") is not None

    def test_completion_resets_the_failure_streak(self):
        broker = Broker(chunk_size=1, quarantine_after=2)
        design = full_factorial({"p": [2.0, 3.0], "s": [2.0, 3.0]})
        submit_job(broker, design)
        worker = Worker(LocalBrokerTransport(broker))

        lease = broker.claim("w0")
        broker.fail(lease["lease"], "hiccup")
        lease = broker.claim("w0")
        broker.complete(lease["lease"], worker.execute(lease))
        lease = broker.claim("w0")
        broker.fail(lease["lease"], "hiccup")
        # fail, complete, fail: never two consecutive — not quarantined.
        assert broker.claim("w0") is not None

    def test_draining_broker_grants_nothing_new(self):
        broker = Broker(chunk_size=1)
        design = full_factorial({"p": [2.0, 3.0], "s": [2.0]})
        submit_job(broker, design)
        lease = broker.claim("w0")
        assert lease is not None

        done = threading.Event()
        result = {}

        def drain():
            result["clean"] = broker.drain(timeout=10.0)
            done.set()

        threading.Thread(target=drain, daemon=True).start()
        assert broker.claim("w1") is None  # draining: no new leases
        # The in-flight lease may still land normally.
        worker = Worker(LocalBrokerTransport(broker))
        broker.complete(lease["lease"], worker.execute(lease))
        assert done.wait(10.0)
        assert result["clean"] is True


class TestStoreQuarantineTelemetry:
    def test_corrupt_entry_is_quarantined_and_surfaced(self, tmp_path):
        service = CampaignService(tmp_path / "state", chunk_size=1)
        store = service.store
        store.put(RUNS_NAMESPACE, "deadbeef", {"x": 1})
        path = store.root / RUNS_NAMESPACE / "deadbeef.json"
        path.write_text('{"version": 1, "key": "deadbeef", "payl')  # torn

        assert store.get(RUNS_NAMESPACE, "deadbeef") is None  # quarantined
        assert store.get(RUNS_NAMESPACE, "deadbeef") is None  # plain miss
        assert not path.exists()
        quarantined = list((store.root / store.CORRUPT_DIR).iterdir())
        assert len(quarantined) == 1

        telemetry = service.telemetry()
        assert telemetry["store"]["corrupt_entries"] == 1
        assert telemetry["store"]["quarantined_keys"] == [
            f"{RUNS_NAMESPACE}/deadbeef"
        ]

    def test_quarantined_entry_reheals_via_put(self, tmp_path):
        store = LocalStore(tmp_path / "store")
        store.put(STAGE_NAMESPACE, "static-abc", {"ok": True})
        (store.root / STAGE_NAMESPACE / "static-abc.json").write_text("}{")
        assert store.get(STAGE_NAMESPACE, "static-abc") is None
        store.put(STAGE_NAMESPACE, "static-abc", {"ok": True})
        assert store.get(STAGE_NAMESPACE, "static-abc") == {"ok": True}


class TestNetworkFaultsOverHttp:
    @pytest.fixture()
    def faulty_server(self, tmp_path, request):
        def start(net_fault):
            httpd = serve(
                tmp_path / "store",
                port=0,
                lease_ttl=2.0,
                net_fault=net_fault,
            )
            threading.Thread(
                target=httpd.serve_forever, daemon=True
            ).start()
            host, port = httpd.server_address[:2]
            request.addfinalizer(httpd.server_close)
            request.addfinalizer(httpd.shutdown)
            return f"http://{host}:{port}"

        return start

    def test_client_survives_dropped_connection(self, faulty_server):
        url = faulty_server("drop:1")
        client = ServiceClient(url)
        # First request is severed mid-flight; the retry layer eats it.
        assert client.health()["status"] == "ok"

    def test_client_survives_garbled_response(self, faulty_server):
        url = faulty_server("garble:1")
        client = ServiceClient(url)
        assert client.health()["status"] == "ok"

    def test_client_survives_delayed_response(
        self, faulty_server, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SERVICE_NET_DELAY_SECONDS", "0.05")
        url = faulty_server("delay:1")
        client = ServiceClient(url)
        assert client.health()["status"] == "ok"

    def test_fault_fires_exactly_once(self, faulty_server):
        url = faulty_server("drop:2")
        client = ServiceClient(url)
        for _ in range(4):
            assert client.health()["status"] == "ok"

    def test_invalid_net_fault_spec_rejected(self, tmp_path):
        with pytest.raises(Exception, match="REPRO_SERVICE_NET_FAULT"):
            serve(tmp_path / "store", port=0, net_fault="explode:1")
