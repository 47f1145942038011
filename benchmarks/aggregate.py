"""Aggregate machine-readable benchmark records into BENCH_SUMMARY.json.

Every benchmark writes a ``benchmarks/out/BENCH_<name>.json`` record (see
``benchmarks/conftest.report``).  This script overlays the records found
there onto the committed top-level ``BENCH_SUMMARY.json``, so the
repository's performance trajectory — taint, batch and model-search
speedups, overhead ratios, design sizes — is visible at the repo root and
comparable across commits without re-running anything.
``benchmarks/out/`` is gitignored and starts empty, so re-recording one
benchmark replaces that record and keeps every other committed one; a
record leaves the summary only by editing the file.

Usage::

    PYTHONPATH=src python benchmarks/aggregate.py            # write
    PYTHONPATH=src python benchmarks/aggregate.py --check    # verify only

The output is deterministic (sorted keys, no timestamps): rerunning the
script on unchanged records produces a byte-identical file, so diffs of
BENCH_SUMMARY.json always mean a benchmark's metrics actually moved.
``--check`` exits non-zero when the committed summary is stale.

Headline speedups also carry a ``history`` trajectory: each run appends
the current value only when it changed, so the committed summary records
how every speedup moved PR over PR.  ``--check`` additionally fails when
a headline speedup regressed below ``REPRO_BENCH_HISTORY_MIN_RATIO``
(default 0.5) times its previously recorded value — a halved speedup
never slips through unnoticed, while ordinary machine-to-machine timing
jitter does not trip the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

OUT_DIR = pathlib.Path(__file__).parent / "out"
REPO_ROOT = pathlib.Path(__file__).parent.parent
SUMMARY_PATH = REPO_ROOT / "BENCH_SUMMARY.json"

#: Headline metrics surfaced at the top of the summary when present,
#: keyed by benchmark name (the rest of each record stays under
#: ``benchmarks``).
HEADLINE_KEYS = {
    "taint_speedup": "speedup",
    "model_speedup": "speedup",
    "parallel_scaling": "speedup",
    "batch_speedup": "speedup",
    "service": "speedup",
    "sched_throughput": "speedup",
}

#: ``--check`` fails when a headline speedup drops below this fraction
#: of its previously recorded value (env: REPRO_BENCH_HISTORY_MIN_RATIO).
DEFAULT_MIN_RATIO = 0.5


def collect(
    out_dir: pathlib.Path = OUT_DIR, previous: "dict | None" = None
) -> dict:
    """Overlay every BENCH_*.json record onto one summary mapping.

    *previous* is the committed summary (when one exists): its records
    are the base the records in *out_dir* replace, and each headline
    speedup's ``history`` trajectory is carried over with the current
    value appended only when it differs from the last recorded point, so
    unchanged records keep the file byte-identical.
    """
    benchmarks: dict[str, dict] = dict(
        (previous or {}).get("benchmarks") or {}
    )
    for path in sorted(out_dir.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: skipping unreadable {path.name}: {exc}")
            continue
        name = str(payload.get("benchmark") or path.stem[len("BENCH_"):])
        benchmarks[name] = payload.get("metrics", {})
    headline = {
        f"{name}_{key}": benchmarks[name][key]
        for name, key in sorted(HEADLINE_KEYS.items())
        if name in benchmarks and key in benchmarks[name]
    }
    history: dict[str, list] = {
        name: list(trail)
        for name, trail in ((previous or {}).get("history") or {}).items()
    }
    for name, value in headline.items():
        trail = history.setdefault(name, [])
        if not trail or trail[-1] != value:
            trail.append(value)
    return {
        "record_count": len(benchmarks),
        "speedups": headline,
        "history": history,
        "benchmarks": benchmarks,
    }


def regressions(summary: dict, min_ratio: float) -> list[str]:
    """Headline speedups whose newest history point fell below
    *min_ratio* times the previously recorded one."""
    found = []
    for name, trail in sorted(summary.get("history", {}).items()):
        if len(trail) < 2:
            continue
        prev, cur = float(trail[-2]), float(trail[-1])
        if cur < prev * min_ratio:
            found.append(
                f"{name} regressed: {cur:.2f}x is below "
                f"{min_ratio:.2f} * previous {prev:.2f}x"
            )
    return found


def render(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed summary matches the records; write "
        "nothing",
    )
    args = parser.parse_args(argv)
    if not OUT_DIR.is_dir():
        print(f"error: no benchmark records at {OUT_DIR}", file=sys.stderr)
        return 1
    previous = None
    if SUMMARY_PATH.exists():
        try:
            previous = json.loads(SUMMARY_PATH.read_text())
        except json.JSONDecodeError:
            previous = None
    min_ratio = float(
        os.environ.get("REPRO_BENCH_HISTORY_MIN_RATIO", DEFAULT_MIN_RATIO)
    )
    summary = collect(previous=previous)
    text = render(summary)
    regressed = regressions(summary, min_ratio)
    if args.check:
        current = SUMMARY_PATH.read_text() if SUMMARY_PATH.exists() else ""
        failed = False
        if current != text:
            print(
                f"{SUMMARY_PATH.name} is stale: rerun "
                "'python benchmarks/aggregate.py'",
                file=sys.stderr,
            )
            failed = True
        for message in regressed:
            print(f"error: {message}", file=sys.stderr)
            failed = True
        if failed:
            return 1
        print(f"{SUMMARY_PATH.name} is up to date")
        return 0
    for message in regressed:
        print(f"warning: {message}")
    SUMMARY_PATH.write_text(text)
    summary = json.loads(text)
    print(
        f"wrote {SUMMARY_PATH} "
        f"({summary['record_count']} benchmark records)"
    )
    for key, value in summary["speedups"].items():
        print(f"  {key}: {float(value):.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
