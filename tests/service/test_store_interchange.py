"""One layout: a local workspace and a service state dir are one store.

A campaign run locally into a directory and a campaign server started on
that directory read and write the same ``stage``/``runs`` namespaces, so
each resumes every stage the other computed, with zero profile
executions, and neither leaves files outside its namespaces.
"""

from __future__ import annotations

import threading
import time

from repro.core.stages import STAGES, Campaign
from repro.service import CampaignService, LocalBrokerTransport, Worker

SPEC = {
    "app": "lulesh",
    "mode": "taint",
    "repetitions": 2,
    "seed": 3,
    "parameters": {"p": [27.0, 64.0], "size": [6.0, 9.0]},
}

#: Everything a workspace or a server state dir may hold at its root.
NAMESPACES = {"stage", "runs", "campaigns", "broker", "meta"}


def serve_campaign(root) -> dict:
    """Run SPEC on a service over *root* with one worker; final status."""
    service = CampaignService(root)
    stop = threading.Event()
    worker = Worker(
        LocalBrokerTransport(service.broker),
        worker_id="w0",
        poll_interval=0.02,
    )
    thread = threading.Thread(target=worker.run, args=(stop,), daemon=True)
    thread.start()
    try:
        campaign_id = service.submit(SPEC)
        deadline = time.monotonic() + 120.0
        while service.status(campaign_id)["state"] not in ("done", "failed"):
            assert time.monotonic() < deadline, "campaign did not finish"
            time.sleep(0.05)
        return service.status(campaign_id)
    finally:
        stop.set()
        thread.join(10.0)
        assert not thread.is_alive()


def assert_only_namespaces(root) -> None:
    entries = {path.name: path.is_dir() for path in root.iterdir()}
    assert all(entries.values()), entries
    assert set(entries) <= NAMESPACES


def test_service_resumes_a_local_workspace(tmp_path):
    root = tmp_path / "shared"
    Campaign.from_spec(SPEC, workspace=root).run()

    status = serve_campaign(root)
    assert status["state"] == "done"
    assert status["stages"] == {name: "resumed" for name in STAGES}
    assert status["profile_executions"] == 0
    assert_only_namespaces(root)


def test_local_campaign_resumes_a_service_state_dir(tmp_path):
    root = tmp_path / "shared"
    assert serve_campaign(root)["state"] == "done"

    campaign = Campaign.from_spec(SPEC, workspace=root)
    campaign.run()
    assert campaign.resumed_stages == tuple(STAGES)
    assert_only_namespaces(root)
