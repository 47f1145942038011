"""The campaign server over real HTTP: submit, poll, resume, recover.

These tests run the stdlib ``ThreadingHTTPServer`` on an ephemeral port
with worker *threads* speaking :class:`HttpBrokerTransport` — every
byte crosses a real socket, exactly as in a multi-host deployment.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.codec import encode
from repro.core.stages import STAGES, Campaign
from repro.errors import ServiceError
from repro.measure import cached_runs, store_run
from repro.service import (
    HttpBrokerTransport,
    RemoteStore,
    ServiceClient,
    Worker,
    serve,
)
from repro.service.protocol import PROTOCOL_VERSION, envelope
from repro.service.remote_store import http_json
from repro.store import STAGE_NAMESPACE

SPEC = {
    "app": "lulesh",
    "mode": "taint",
    "repetitions": 2,
    "seed": 0,
    "parameters": {"p": [8.0, 27.0], "size": [4.0, 6.0]},
}


@pytest.fixture()
def server(tmp_path):
    httpd = serve(tmp_path / "store", port=0, lease_ttl=2.0)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    host, port = httpd.server_address[:2]
    try:
        yield f"http://{host}:{port}", httpd
    finally:
        httpd.shutdown()
        httpd.server_close()


def attach_workers(url, n, stop, **kw):
    threads = []
    for i in range(n):
        worker = Worker(
            HttpBrokerTransport(url),
            worker_id=f"hw{i}",
            poll_interval=0.02,
            **kw,
        )
        thread = threading.Thread(
            target=worker.run, args=(stop,), daemon=True
        )
        thread.start()
        threads.append(thread)
    return threads


class TestCampaignLifecycle:
    def test_submit_resume_and_artifacts(self, server, tmp_path):
        url, _httpd = server
        client = ServiceClient(url)
        assert client.health()["status"] == "ok"

        stop = threading.Event()
        attach_workers(url, 2, stop)
        try:
            first_id = client.submit(SPEC)
            first = client.wait(first_id, timeout=120)
            assert first["state"] == "done"
            assert set(first["stages"].values()) == {"computed"}
            assert first["profile_executions"] == 4

            # Identical second submission: every stage resumes from the
            # shared store, zero profile executions anywhere.
            second = client.wait(client.submit(SPEC), timeout=120)
            assert second["state"] == "done"
            assert set(second["stages"].values()) == {"resumed"}
            assert second["profile_executions"] == 0
            assert second["fingerprints"] == first["fingerprints"]

            # Distributed fingerprints equal local ones (the scheduler
            # is not part of any stage identity), so the measure
            # artifact is byte-shared with a purely local campaign.
            local = Campaign.from_spec(
                SPEC, workspace=tmp_path / "local-ws"
            )
            local_result = local.run()
            assert local.fingerprints == first["fingerprints"]

            artifact = client.artifact(first_id, "measure")
            assert artifact["stage"] == "measure"
            assert artifact["fingerprint"] == first["fingerprints"]["measure"]
            wire_measure = artifact["payload"][0]  # [measurements, profiles]
            assert wire_measure == json.loads(
                json.dumps(
                    encode(local_result.measurements)
                )
            )
        finally:
            stop.set()

    def test_worker_death_mid_campaign_recovers(self, server):
        url, _httpd = server
        client = ServiceClient(url)
        stop = threading.Event()
        # One worker dies holding its first lease; one healthy worker
        # picks up the reaped lease after the 2s TTL.
        attach_workers(url, 1, stop, fault="crash:1")
        attach_workers(url, 1, stop)
        try:
            status = client.wait(client.submit(SPEC), timeout=180)
            assert status["state"] == "done"
            assert status["stages"]["measure"] == "computed"
        finally:
            stop.set()

    def test_bad_spec_rejected_with_spec_error(self, server):
        url, _httpd = server
        client = ServiceClient(url)
        with pytest.raises(ServiceError, match="app"):
            client.submit({"app": "no-such-app", "parameters": {"p": [1.0]}})
        with pytest.raises(ServiceError, match="spec"):
            client.submit({"app": "lulesh", "nonsense_key": 1,
                           "parameters": {"p": [1.0]}})

    def test_unknown_campaign_is_404(self, server):
        url, _httpd = server
        with pytest.raises(ServiceError, match="unknown campaign"):
            ServiceClient(url).status("C999")

    def test_unknown_stage_rejected(self, server):
        url, _httpd = server
        with pytest.raises(ServiceError, match="unknown stage"):
            ServiceClient(url).artifact("C999", "transmogrify")


class TestProtocolEnforcement:
    def test_version_skew_rejected(self, server):
        url, _httpd = server
        message = envelope("lease.claim", {"worker": "w0"})
        message["protocol"] = PROTOCOL_VERSION + 1
        status, body = http_json(
            "POST", f"{url}/api/v1/leases/claim", message
        )
        assert status == 400
        assert body["body"]["kind"] == "ProtocolVersionMismatch"

    def test_non_json_body_rejected(self, server):
        url, _httpd = server
        import urllib.request

        request = urllib.request.Request(
            f"{url}/api/v1/campaigns",
            data=b"not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(request)
            raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as err:
            assert err.code == 400

    def test_unknown_path_is_404(self, server):
        url, _httpd = server
        status, _ = http_json("GET", f"{url}/api/v1/flux")
        assert status == 404

    def test_unreachable_server_error_is_actionable(self):
        client = ServiceClient("http://127.0.0.1:1")  # nothing listens
        with pytest.raises(ServiceError, match="repro serve"):
            client.health()


class TestRemoteStore:
    def test_get_put_has_round_trip(self, server):
        url, _httpd = server
        store = RemoteStore(url)
        assert not store.has("runs", "deadbeef")
        assert store.get("runs", "deadbeef") is None
        payload = {"values": [0.1, 2.0 / 3.0], "nested": {"a": 1}}
        store.put("runs", "deadbeef", payload)
        assert store.has("runs", "deadbeef")
        assert store.get("runs", "deadbeef") == payload

    def test_invalid_key_rejected_client_side(self, server):
        url, _httpd = server
        store = RemoteStore(url)
        with pytest.raises(ServiceError, match="invalid store"):
            store.put("runs", "../escape", {})

    def test_remote_run_cache_round_trip(self, server):
        from repro.apps.synthetic import (
            SyntheticWorkload,
            build_foo_example,
        )
        from repro.measure import full_plan
        from repro.measure.experiment import run_configuration
        from repro.measure.noise import GaussianNoise
        from repro.mpisim.contention import NoContention

        url, _httpd = server
        workload = SyntheticWorkload(
            builder=build_foo_example, parameters=("a", "b")
        )
        result = run_configuration(
            workload.program(),
            workload.setup({"a": 2.0, "b": 3.0}),
            full_plan(workload.program()),
            GaussianNoise(),
            NoContention(),
            2,
            0,
            (2.0, 3.0),
        )
        store = RemoteStore(url)
        assert cached_runs(store, ["fp0"]) == {}
        store_run(store, "fp0", result)
        hits = cached_runs(store, ["fp0", "fp1"])
        assert list(hits) == ["fp0"]
        loaded = hits["fp0"]
        assert loaded.cached is True
        assert loaded.key == result.key
        assert loaded.samples == result.samples

    def test_has_many_is_one_round_trip(self, server):
        url, _httpd = server
        store = RemoteStore(url)
        store.put("runs", "fp-a", {"x": 1})
        store.put("runs", "fp-c", {"x": 3})
        assert store.has_many("runs", ["fp-a", "fp-b", "fp-c"]) == [
            True,
            False,
            True,
        ]
        assert store.has_many("runs", []) == []

    def test_remote_store_is_a_campaign_workspace(self, server):
        url, httpd = server
        spec = {
            "app": "synthetic",
            "parameters": {"p": [2.0, 4.0], "s": [3.0, 5.0]},
            "repetitions": 2,
        }
        Campaign.from_spec(spec, workspace=RemoteStore(url)).run()
        again = Campaign.from_spec(spec, workspace=RemoteStore(url))
        again.run()
        assert again.resumed_stages == tuple(STAGES)
        assert len(httpd.service.store.keys(STAGE_NAMESPACE)) == len(STAGES)

    def test_has_many_rejects_malformed_body(self, server):
        url, _httpd = server
        status, body = http_json(
            "POST",
            f"{url}/api/v1/store/runs/has-many",
            envelope("store.has_many", {"keys": "not-a-list"}),
        )
        assert status == 400
        assert "keys" in body["body"]["error"]


class TestTelemetryEndpoint:
    def test_telemetry_over_http(self, server):
        url, _httpd = server
        client = ServiceClient(url)
        stop = threading.Event()
        attach_workers(url, 2, stop)
        try:
            status = client.wait(client.submit(SPEC), timeout=180)
            assert status["state"] == "done"
        finally:
            stop.set()
        telemetry = client.telemetry()
        assert set(telemetry) == {"leases", "workers", "store", "service"}
        assert telemetry["store"]["corrupt_entries"] == 0
        assert telemetry["service"]["restarts"] == 0
        assert telemetry["leases"], "completed leases must be logged"
        assert all(
            r["status"] in ("completed", "failed", "reaped")
            for r in telemetry["leases"]
        )
        names = [w["worker"] for w in telemetry["workers"]]
        assert names == sorted(names)
        assert set(names) <= {"hw0", "hw1"}
        for w in telemetry["workers"]:
            assert w["supports_batch"] is True

    def test_status_cli_prints_telemetry(self, server, capsys):
        from repro.cli import main

        url, _httpd = server
        client = ServiceClient(url)
        stop = threading.Event()
        attach_workers(url, 1, stop)
        try:
            campaign_id = client.submit(SPEC)
            client.wait(campaign_id, timeout=180)
        finally:
            stop.set()
        assert (
            main(
                ["status", campaign_id, "--server", url, "--telemetry"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "workers (" in out
        assert "leases (" in out
        assert "completed" in out


class _GoneClient:
    """A response stream whose peer has hung up."""

    def write(self, data):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestClientGoneMidResponse:
    @pytest.mark.parametrize(
        "path", ["/api/v1/health", "/api/v1/campaigns/C404"]
    )
    def test_broken_pipe_ends_request_quietly(self, server, capsys, path):
        """A client that disconnects before its response is written (a
        success or an error reply) ends the request: no exception, no
        retried 500, nothing on stderr, and the connection closes."""
        import io

        from repro.service.server import _Handler

        _url, httpd = server
        handler = _Handler.__new__(_Handler)
        handler.server = httpd
        handler.client_address = ("127.0.0.1", 0)
        handler.rfile = io.BytesIO(f"GET {path} HTTP/1.1\r\n\r\n".encode())
        handler.wfile = _GoneClient()
        handler.close_connection = False
        handler.handle_one_request()
        assert handler.close_connection
        assert capsys.readouterr().err == ""
