"""Campaign benchmark for the Perf-Taint reproduction.

Run from the root of a checkout::

    python3 campaignbench/run.py --workload lulesh-cold --seed 1 \
        --seconds 20 --trace 0

Workloads: ``lulesh-cold``, ``milc-cold``, ``lulesh-refit``,
``service-lulesh`` (see ``workloads.py`` for why each exists).  Each is a
closed loop with one client and at most one campaign in flight.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``campaign_ys`` -- median campaign latency in yardstick units: each
  campaign's wall seconds divided by the mean of the host yardstick
  timed just before and just after it (``yardstick.py``);
* ``setup_s`` -- import and registration time plus the median of
  several builds of the workload's fixture (workspaces, pre-fill,
  server and worker start, warm-up);
* ``peak_rss_mb`` -- peak resident memory of this process;
* ``error_rate`` -- failed campaigns over attempted ones (text only:
  it is 0 when nothing fails, and travels as ``failed``/``attempted``).

With ``--trace 1`` the run alternates untraced and traced campaigns,
reports the per-layer metrics of the traced ones (``tracing.py``) and
their overhead, and writes a Chrome trace to ``.campaignbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run exits
non-zero when a check fails or when a thread or child process it
started is still alive at exit.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from yardstick import yardstick_seconds  # noqa: E402

#: Fixture builds per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Bound on joining, at exit, every thread the run started.
JOIN_TIMEOUT_S = 30.0
#: Directory (in the checkout) for workspaces and trace files.
OUT_DIR = ROOT / ".campaignbench"


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny campaigns, one fixture build, one campaign per mode",
    )
    return parser.parse_args(argv)


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and register its
    components; raises ``SystemExit`` when the sources are not there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"campaignbench: no repro sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro
    import repro.core.stages  # noqa: F401
    import repro.service.server  # noqa: F401
    import repro.service.worker  # noqa: F401
    from repro.registry import load_builtin_components

    if pathlib.Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(
            f"campaignbench: imported repro from {repro.__file__}, "
            f"not from {src}"
        )
    load_builtin_components()


def commit_id() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def leftovers() -> list[str]:
    """Threads other than the main one, and child processes, alive now."""
    found = [
        f"thread {t.name}"
        for t in threading.enumerate()
        if t is not threading.main_thread()
    ]
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as handle:
                found += [f"child process {pid}" for pid in handle.read().split()]
        except OSError:
            continue
    return found


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        rank = n - 10
        return ordered[rank - 1], f"p{100 * rank // n}, rank {rank} of {n}"
    return ordered[-1], f"max, rank {n} of {n}: fewer than 11 samples"


class Run:
    """One benchmark invocation: set-up, closed loop, checks, report."""

    def __init__(self, args, started: float):
        self.args = args
        #: When this run started: process start for the first run in a
        #: process, else the call (imports are then already paid).
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: list[dict] = []
        self.yardsticks: list[float] = []
        self.fixture_s: list[float] = []
        self.tracer = None
        self.missing: list[str] = []
        self.setup_s: "float | None" = None

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += errors

    def build(self, workload) -> None:
        """Build the fixture SETUP_REPEATS times, keep the last one."""
        repeats = 1 if self.args.smoke else SETUP_REPEATS
        for attempt in range(repeats):
            if attempt:
                workload.close()
            start = time.perf_counter()
            campaigns = workload.setup()
            self.fixture_s.append(time.perf_counter() - start)
            errors = list(getattr(workload, "setup_errors", []))
            for index in range(campaigns):
                self.record(errors if index == 0 else [])

    def loop(self, workload) -> None:
        from tracing import install

        seconds = self.args.seconds
        begin = time.perf_counter()
        before = yardstick_seconds()
        self.yardsticks.append(before)
        index = 0
        while True:
            traced = self.tracer is not None and index % 2 == 1
            label = f"c{index}"
            patches = None
            if traced:
                patches = install(self.tracer)
                self.missing = patches.missing
                self.tracer.campaign = label
            handle = None
            try:
                outcome, handle = workload.campaign(index)
            except Exception:  # noqa: BLE001 -- a failed campaign is data
                outcome = None
                error = traceback.format_exc(limit=3).strip().splitlines()[-1]
            finally:
                if patches is not None:
                    self.tracer.campaign = None
                    patches.restore()
            after = yardstick_seconds()
            self.yardsticks.append(after)
            if outcome is None:
                self.record([f"campaign {label} raised: {error}"])
            else:
                try:
                    errors = outcome.errors + workload.check_outcome(handle)
                except Exception:  # noqa: BLE001
                    errors = [
                        f"campaign {label} check raised: "
                        + traceback.format_exc(limit=3).strip().splitlines()[-1]
                    ]
                self.record(errors)
                self.samples.append(
                    {
                        "label": label,
                        "traced": traced,
                        "wall": outcome.wall,
                        "ys": outcome.wall / ((before + after) / 2.0),
                    }
                )
            before = after
            index += 1
            elapsed = time.perf_counter() - begin
            if self.args.smoke:
                if index >= (2 if self.tracer is not None else 1):
                    break
            elif elapsed + elapsed / index > seconds:
                break

    def execute(self) -> int:
        from workloads import WORKLOADS

        args = self.args
        OUT_DIR.mkdir(exist_ok=True)
        base = pathlib.Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
        workload = None
        try:
            import_program()
            imported = time.perf_counter() - self.started
            if args.trace:
                from tracing import Tracer

                self.tracer = Tracer()
            workload = WORKLOADS[args.workload](base, args.seed, args.smoke)
            self.build(workload)
            self.setup_s = imported + statistics.median(self.fixture_s)
            self.loop(workload)
            if hasattr(workload, "check_warmup"):
                self.record(workload.check_warmup())
        except SystemExit as exc:
            print(exc, file=sys.stderr)
            return 2
        except Exception:  # noqa: BLE001 -- reported, then exit non-zero
            self.fail("benchmark raised: " + traceback.format_exc())
            self.attempted = max(self.attempted, 1)
            self.failed = max(self.failed, 1)
        finally:
            if workload is not None:
                workload.close()
            shutil.rmtree(base, ignore_errors=True)
        deadline = time.monotonic() + JOIN_TIMEOUT_S
        for thread in threading.enumerate():
            if thread is not threading.main_thread():
                thread.join(max(0.0, deadline - time.monotonic()))
        alive = leftovers()
        if alive:
            self.fail("still running at exit: " + ", ".join(alive))
        return self.report()

    # -- report -------------------------------------------------------------

    def report(self) -> int:
        import numpy

        args = self.args
        untraced = [s for s in self.samples if not s["traced"]]
        traced = [s for s in self.samples if s["traced"]]
        print(
            f"campaignbench workload={args.workload} seed={args.seed} "
            f"trace={args.trace} samples={len(untraced)} "
            f"traced_samples={len(traced)} nproc={os.cpu_count()} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"commit={commit_id()} fixture_builds={len(self.fixture_s)}"
        )
        metrics: dict[str, tuple] = {}
        if untraced:
            metrics["campaign_ys"] = (
                statistics.median(s["ys"] for s in untraced),
                "ys",
            )
        if self.setup_s is not None:
            metrics["setup_s"] = (self.setup_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        )
        rate = self.failed / self.attempted if self.attempted else 1.0
        context: dict[str, tuple] = {
            "error_rate": (rate, "ratio"),
        }
        if untraced:
            context["wall.campaign_s"] = (
                statistics.median(s["wall"] for s in untraced),
                "s",
            )
            context["host.yardstick_s"] = (
                statistics.median(self.yardsticks),
                "s",
            )
            value, where = tail([s["ys"] for s in untraced])
            context["campaign_ys.tail"] = (value, "ys")
        for name, (value, unit) in list(metrics.items()) + list(context.items()):
            note = ""
            if name == "campaign_ys":
                note = f"  (median of {len(untraced)} samples)"
            elif name == "error_rate":
                note = f"  ({self.failed} failed of {self.attempted} attempted)"
            elif name == "campaign_ys.tail":
                note = f"  ({where})"
            print(f"metric {name} = {value:.6g} {unit}{note}")

        for kind, chosen in (("untraced", untraced), ("traced", traced)):
            if chosen:
                print(
                    f"samples {kind} wall_s/campaign_ys: "
                    + " ".join(f"{s['wall']:.4f}/{s['ys']:.3f}" for s in chosen)
                )
        print(
            "samples yardstick_s: "
            + " ".join(f"{y:.5f}" for y in self.yardsticks)
        )
        layer: dict[str, tuple] = {}
        if self.tracer is not None and traced:
            from tracing import layer_metrics

            layer = layer_metrics(self.tracer, [s["label"] for s in traced])
            layer["wall.campaign_s"] = (
                statistics.median(s["wall"] for s in traced),
                "s",
            )
            layer["host.yardstick_s"] = context.get(
                "host.yardstick_s", (statistics.median(self.yardsticks), "s")
            )
            value, where = tail([s["ys"] for s in traced])
            layer["campaign_ys.tail"] = (value, "ys")
            traced_ys = statistics.median(s["ys"] for s in traced)
            if untraced:
                layer["trace.overhead_ratio"] = (
                    traced_ys / metrics["campaign_ys"][0] - 1.0,
                    "ratio",
                )
            for name, (value, unit) in layer.items():
                note = f"  ({where})" if name == "campaign_ys.tail" else ""
                print(f"layer {name} = {value:.6g} {unit}{note}")
            for target in self.missing:
                print(f"layer target not found at this commit: {target}")
            path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            self.tracer.write_chrome_trace(str(path))
            print(f"chrome trace: {path.relative_to(ROOT)}")
        for error in self.errors:
            print(f"error: {error}")

        correct = not self.errors and self.failed == 0
        chosen = layer if args.trace else metrics
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": max(self.attempted, 1),
                    "failed": self.failed,
                    "metrics": {
                        name: {"value": value, "unit": unit}
                        for name, (value, unit) in chosen.items()
                    },
                }
            )
        )
        sys.stdout.flush()
        return 0 if correct else 1


def main(argv=None) -> int:
    started = STARTED if "repro" not in sys.modules else time.perf_counter()
    return Run(parse_args(argv), started).execute()


if __name__ == "__main__":
    sys.exit(main())
