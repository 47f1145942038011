"""The measure path's store traffic on a campaign server.

The runner probes the store its executor publishes to once per measure
stage (one ``has_many``), the broker publishes each result to that store
as its lease lands, and the journal checkpoints the job under the
``broker`` namespace.  These counts are pinned for a cold served LULESH
campaign — the campaign benchmark's spec — so moving the planning or the
publication between the runner and the broker cannot change what the
store sees.
"""

from __future__ import annotations

import collections
import threading
import time

from repro.service import CampaignService, LocalBrokerTransport, Worker
from repro.store import LocalStore

#: The campaign benchmark's LULESH study at seed 21.
SPEC = {
    "app": "lulesh",
    "parameters": {"p": [27, 64, 125, 216, 343], "size": [6, 9, 12, 15, 18]},
    "noise": "gaussian",
    "contention": {"model": "logquad", "beta": 0.06},
    "repetitions": 5,
    "compare_black_box": True,
    "cov_threshold": 0.1,
    "jobs": 1,
    "seed": 21,
}


def count_store_calls(monkeypatch) -> collections.Counter:
    """Count ``LocalStore`` calls by ``(namespace, method)``."""
    calls: collections.Counter = collections.Counter()
    for name in ("get", "put", "has_many"):
        real = getattr(LocalStore, name)

        def counted(self, namespace, *args, _real=real, _name=name, **kw):
            calls[namespace, _name] += 1
            return _real(self, namespace, *args, **kw)

        monkeypatch.setattr(LocalStore, name, counted)
    return calls


def run_to_end(service: CampaignService, spec: dict) -> dict:
    campaign_id = service.submit(spec)
    deadline = time.monotonic() + 120.0
    while service.status(campaign_id)["state"] not in ("done", "failed"):
        assert time.monotonic() < deadline, "campaign did not finish"
        time.sleep(0.02)
    return service.status(campaign_id)


def test_cold_served_campaign_store_traffic(tmp_path, monkeypatch):
    calls = count_store_calls(monkeypatch)
    # A long lease target keeps the lease count independent of host
    # speed: the first lease is cut by the fleet hint (7 of 25), the
    # second takes the rest.
    service = CampaignService(tmp_path / "state", target_lease_seconds=60.0)
    stop = threading.Event()
    worker = Worker(
        LocalBrokerTransport(service.broker),
        worker_id="w0",
        poll_interval=0.01,
    )
    thread = threading.Thread(target=worker.run, args=(stop,), daemon=True)
    thread.start()
    try:
        calls.clear()
        cold = run_to_end(service, SPEC)
        measure_traffic = {
            key: count
            for key, count in calls.items()
            if key[0] in ("runs", "broker")
        }
        calls.clear()
        again = run_to_end(service, SPEC)
    finally:
        stop.set()
        thread.join(10.0)
    assert cold["state"] == "done"
    assert cold["profile_executions"] == 25
    assert measure_traffic == {
        ("runs", "has_many"): 1,
        ("runs", "put"): 25,
        ("broker", "get"): 1,
        ("broker", "put"): 3,
    }
    assert again["state"] == "done"
    assert again["profile_executions"] == 0
    assert not any(key[0] == "runs" and key[1] == "put" for key in calls)
