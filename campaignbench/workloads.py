"""The benchmark's four closed-loop workloads and their output checks.

Every workload runs one campaign at a time: the next starts only when
the previous one has returned.  The program receives nothing but the
generated campaign specs; every spec pins ``jobs = 1`` and leaves
``engine``, ``taint_engine`` and ``model_backend`` at the repository's
defaults, so a change of default is measured.

Why these four:

* ``lulesh-cold`` -- the paper's headline study.  The measure stage
  (25 profiled configurations, one engine compile each) dominates.
* ``milc-cold`` -- taint prunes ``size``, so only 5 points are measured
  and the static, taint and volume analyses carry a large share.
* ``lulesh-refit`` -- rerun of a finished study with a changed modeling
  knob: seven stages resume from the workspace and only model and
  validate compute.  The control for measure and engine changes.
* ``service-lulesh`` -- the same study through ``repro serve``: the only
  workload that crosses the broker, the wire codec, HTTP and the
  service store.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

#: Paper Table 2: (functions, relevant loops) per application.
TABLE2 = {"lulesh": (343, 29), "milc": (622, 55)}

ALL_STAGES = (
    "static",
    "taint",
    "volumes",
    "classify",
    "design",
    "plan",
    "measure",
    "model",
    "validate",
)

#: Stages whose artifacts must repeat bit for bit within a run.
DIGEST_STAGES = ("measure", "model", "validate")

#: Upper bound on one campaign; a campaign past it counts as failed.
CAMPAIGN_TIMEOUT_S = 120.0
#: Status poll interval of the service client (small against latency).
POLL_INTERVAL_S = 0.05
#: Bound on joining any thread the benchmark started.
JOIN_TIMEOUT_S = 30.0

VALUES = {
    "lulesh": {"p": [27, 64, 125, 216, 343], "size": [6, 9, 12, 15, 18]},
    "milc": {"p": [4, 8, 16, 32, 64], "size": [16, 32, 64, 128, 256]},
}
#: Two values per parameter: the smoke run's tiny campaigns.
SMOKE_VALUES = {
    "lulesh": {"p": [27, 64], "size": [6, 9]},
    "milc": {"p": [4, 8], "size": [16, 32]},
}


def campaign_spec(app: str, seed: int, smoke: bool, **overrides) -> dict:
    """A campaign spec: gaussian noise, 5 repetitions, black-box
    comparison, CoV threshold 0.1, one job, default engines."""
    values = (SMOKE_VALUES if smoke else VALUES)[app]
    spec = {
        "app": app,
        "parameters": {k: list(v) for k, v in values.items()},
        "noise": "gaussian",
        "repetitions": 5,
        "compare_black_box": True,
        "cov_threshold": 0.1,
        "jobs": 1,
        "seed": seed,
    }
    if app == "lulesh":
        spec["contention"] = {"model": "logquad", "beta": 0.06}
    spec.update(overrides)
    return spec


def design_points(spec: dict) -> int:
    """Configurations the LULESH design measures: taint keeps both
    parameters, so the reduced design is the full grid."""
    points = 1
    for values in spec["parameters"].values():
        points *= len(values)
    return points


def spec_seed(seed: int) -> int:
    """The campaign seed a workload seed maps to."""
    return random.Random(seed).randrange(1, 1 << 30)


def payload_digest(payloads: dict) -> str:
    """Digest of stage payloads, canonicalised through a JSON round trip
    so in-process objects and payloads read back over HTTP compare."""
    canonical = {
        name: json.loads(json.dumps(payload))
        for name, payload in payloads.items()
    }
    return hashlib.sha256(
        json.dumps(canonical, sort_keys=True).encode()
    ).hexdigest()


def campaign_payloads(campaign, names) -> dict:
    from repro.core.stages import STAGES

    return {n: STAGES[n].to_payload(campaign.artifacts[n]) for n in names}


def check_table2(app: str, classification) -> list[str]:
    row = classification.table2_row()
    got = (row["functions"], row["loops_relevant"])
    if got != TABLE2[app]:
        return [
            f"{app} Table 2: {got[0]} functions / {got[1]} relevant loops, "
            f"expected {TABLE2[app][0]} / {TABLE2[app][1]}"
        ]
    return []


def check_provenance(stage_states: dict, computed: tuple) -> list[str]:
    want = {
        name: ("computed" if name in computed else "resumed")
        for name in ALL_STAGES
    }
    got = {name: stage_states.get(name) for name in ALL_STAGES}
    if got != want:
        return [f"stage provenance {got}, expected {want}"]
    return []


@dataclass
class Outcome:
    """One timed campaign: wall seconds and failed checks."""

    wall: float
    errors: list = field(default_factory=list)


class InProcessWorkload:
    """``Campaign.from_spec(...).run()`` in this process."""

    def __init__(self, app: str, base: pathlib.Path, seed: int, smoke: bool):
        self.app = app
        self.base = base
        self.seed = seed
        self.smoke = smoke
        self.spec = campaign_spec(app, spec_seed(seed), smoke)
        self.reference: "str | None" = None
        self.dir: "pathlib.Path | None" = None

    def _fresh_dir(self, prefix: str) -> pathlib.Path:
        return pathlib.Path(tempfile.mkdtemp(prefix=prefix, dir=self.dir))

    def setup(self) -> int:
        """Build the fixture; returns the number of campaigns run."""
        self.dir = pathlib.Path(tempfile.mkdtemp(prefix="fixture-", dir=self.base))
        return 0

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    def _run(self, spec: dict, workspace) -> tuple[object, float]:
        from repro.core.stages import Campaign

        start = time.perf_counter()
        campaign = Campaign.from_spec(spec, workspace=workspace)
        campaign.run()
        return campaign, time.perf_counter() - start

    def check(self, campaign, computed: tuple) -> list[str]:
        errors = check_table2(self.app, campaign.artifacts["classify"])
        errors += check_provenance(campaign.stage_stats, computed)
        digest = payload_digest(campaign_payloads(campaign, DIGEST_STAGES))
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            errors.append(
                "measure/model/validate digest differs from the first "
                "campaign of the run"
            )
        return errors


class ColdWorkload(InProcessWorkload):
    """A full campaign into a fresh, empty workspace every time."""

    def setup(self) -> int:
        super().setup()
        # Warm-up: a tiny campaign of the same application fills lazy
        # module state, so the timed campaigns all see the same process.
        warm = campaign_spec(self.app, spec_seed(self.seed), smoke=True)
        self._run(warm, self._fresh_dir("warmup-"))
        return 1

    def campaign(self, index: int) -> tuple[Outcome, object]:
        workspace = self._fresh_dir("cold-")
        campaign, wall = self._run(self.spec, workspace)
        return Outcome(wall), (campaign, workspace)

    def check_outcome(self, handle) -> list[str]:
        campaign, workspace = handle
        shutil.rmtree(workspace, ignore_errors=True)
        return self.check(campaign, ALL_STAGES)


class RefitWorkload(InProcessWorkload):
    """Rerun the LULESH study with ``cov_threshold = 0.2`` on a fresh copy
    of a pre-filled workspace: seven stages resume, two compute."""

    def __init__(self, base, seed, smoke):
        super().__init__("lulesh", base, seed, smoke)
        self.cold_spec = self.spec
        self.spec = dict(self.cold_spec, cov_threshold=0.2)
        self.prefill: "pathlib.Path | None" = None
        self.setup_errors: list[str] = []

    def setup(self) -> int:
        super().setup()
        self.prefill = self._fresh_dir("prefill-")
        campaign, _ = self._run(self.cold_spec, self.prefill)
        self.setup_errors = check_table2(
            self.app, campaign.artifacts["classify"]
        ) + check_provenance(campaign.stage_stats, ALL_STAGES)
        return 1

    def campaign(self, index: int) -> tuple[Outcome, object]:
        workspace = self.dir / f"refit-{index}"
        shutil.copytree(self.prefill, workspace)
        campaign, wall = self._run(self.spec, workspace)
        return Outcome(wall), (campaign, workspace)

    def check_outcome(self, handle) -> list[str]:
        campaign, workspace = handle
        shutil.rmtree(workspace, ignore_errors=True)
        return self.check(campaign, ("model", "validate"))


def join_named_thread(name: str, timeout: float) -> None:
    for thread in threading.enumerate():
        if thread.name == name:
            thread.join(timeout)


class ServiceWorkload:
    """``serve(port=0)`` on loopback with one worker thread over HTTP; one
    client submits the LULESH study with a distinct seed per submission
    and polls until the campaign reads ``done``."""

    app = "lulesh"

    def __init__(self, base: pathlib.Path, seed: int, smoke: bool):
        self.base = base
        self.seed = seed
        self.smoke = smoke
        self.first_seed = spec_seed(seed)
        self.dir: "pathlib.Path | None" = None
        self.httpd = None
        self.client = None
        self.stop = threading.Event()
        self.threads: list[threading.Thread] = []
        self.warmup_id: "str | None" = None
        self.setup_errors: list[str] = []

    def spec(self, index: int) -> dict:
        """Submission *index* (-1 is the warm-up)."""
        return campaign_spec(self.app, self.first_seed + 1 + index, self.smoke)

    def setup(self) -> int:
        from repro.service.server import ServiceClient, serve
        from repro.service.worker import HttpBrokerTransport, Worker

        self.dir = pathlib.Path(tempfile.mkdtemp(prefix="service-", dir=self.base))
        self.stop = threading.Event()
        self.httpd = serve(self.dir / "state", host="127.0.0.1", port=0)
        # Bound the campaign thread's wait on the broker.
        self.httpd.service.measure_timeout = CAMPAIGN_TIMEOUT_S
        host, port = self.httpd.server_address[:2]
        url = f"http://{host}:{port}"
        server_thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="bench-server",
        )
        worker = Worker(
            HttpBrokerTransport(url),
            worker_id="bench-worker",
            reconnect_timeout=JOIN_TIMEOUT_S,
        )
        worker_thread = threading.Thread(
            target=worker.run, args=(self.stop,), name="bench-worker"
        )
        self.threads = [server_thread, worker_thread]
        server_thread.start()
        worker_thread.start()
        self.client = ServiceClient(url)
        # Warm-up: the first submission computes all nine stages and
        # leaves six of them in the shared store for the timed ones.
        outcome, status = self._submit(self.spec(-1))
        self.warmup_id = status.get("id")
        self.setup_errors = outcome.errors + check_provenance(
            status.get("stages", {}), ALL_STAGES
        )
        return 1

    def _submit(self, spec: dict) -> tuple[Outcome, dict]:
        start = time.perf_counter()
        campaign_id = self.client.submit(spec)
        while True:
            status = self.client.status(campaign_id)
            if status.get("state") in ("done", "failed"):
                break
            if time.perf_counter() - start > CAMPAIGN_TIMEOUT_S:
                break
            time.sleep(POLL_INTERVAL_S)
        wall = time.perf_counter() - start
        join_named_thread(f"campaign-{campaign_id}", JOIN_TIMEOUT_S)
        status = dict(status, id=campaign_id)
        errors = []
        if status.get("state") != "done":
            errors.append(
                f"campaign {campaign_id} ended {status.get('state')!r}: "
                f"{status.get('error', 'timed out')}"
            )
        return Outcome(wall, errors), status

    def campaign(self, index: int) -> tuple[Outcome, object]:
        outcome, status = self._submit(self.spec(index))
        return outcome, (status, design_points(self.spec(index)))

    def check_outcome(self, handle) -> list[str]:
        from repro.core.stages import STAGES

        status, points = handle
        errors = check_provenance(
            status.get("stages", {}), ("measure", "model", "validate")
        )
        if status.get("profile_executions") != points:
            errors.append(
                f"profile_executions {status.get('profile_executions')}, "
                f"expected {points}"
            )
        if status.get("state") == "done":
            entry = self.client.artifact(status["id"], "classify")
            errors += check_table2(
                self.app, STAGES["classify"].from_payload(entry["payload"])
            )
        return errors

    def check_warmup(self) -> list[str]:
        """The warm-up submission is bit-identical, stage by stage, to an
        in-process campaign of the same spec and seed."""
        from repro.core.stages import Campaign

        if self.warmup_id is None:
            return ["no warm-up submission to compare"]
        served = {
            name: self.client.artifact(self.warmup_id, name)["payload"]
            for name in ALL_STAGES
        }
        local = Campaign.from_spec(self.spec(-1))
        local.run()
        errors = []
        for name in ALL_STAGES:
            mine = campaign_payloads(local, (name,))
            if payload_digest(mine) != payload_digest({name: served[name]}):
                errors.append(
                    f"service warm-up stage '{name}' differs from the "
                    "in-process campaign of the same spec and seed"
                )
        return errors

    def close(self) -> None:
        self.stop.set()
        server_thread = self.threads[0] if self.threads else None
        for thread in self.threads[1:]:
            thread.join(JOIN_TIMEOUT_S)
        if self.httpd is not None:
            if server_thread is not None and server_thread.is_alive():
                self.httpd.shutdown()
            self.httpd.server_close()
            self.httpd = None
        if server_thread is not None:
            server_thread.join(JOIN_TIMEOUT_S)
        for thread in threading.enumerate():
            if thread.name.startswith("campaign-"):
                thread.join(JOIN_TIMEOUT_S)
        self.threads = []
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


WORKLOADS = {
    "lulesh-cold": lambda base, seed, smoke: ColdWorkload(
        "lulesh", base, seed, smoke
    ),
    "milc-cold": lambda base, seed, smoke: ColdWorkload(
        "milc", base, seed, smoke
    ),
    "lulesh-refit": RefitWorkload,
    "service-lulesh": ServiceWorkload,
}
