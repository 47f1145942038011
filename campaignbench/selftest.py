"""Smoke test of the campaign benchmark.

Run from the root of a checkout::

    python3 campaignbench/selftest.py

Runs every workload once untraced and once traced, each with tiny
campaigns and a single fixture build, in this process.  Checks that
every metric ``BENCHMARK.json`` names is printed, with its unit, in the
text report and in the closing JSON line; that the JSON line has exactly
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; that
every run passes its output checks; and that no thread or child process
outlives a run.  Exits non-zero if any run fails a check.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Printed in the text report of every run although not in the JSON line.
TEXT_ONLY = {
    "error_rate": "ratio",
    "wall.campaign_s": "s",
    "host.yardstick_s": "s",
    "campaign_ys.tail": "ys",
}


def check(workload: str, trace: int, spec: dict) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            [
                "--workload", workload,
                "--seed", "7",
                "--seconds", "1",
                "--trace", str(trace),
                "--smoke",
            ]
        )
    lines = out.getvalue().strip().splitlines()
    problems = []
    if code != 0:
        problems.append(f"exit code {code}: {lines[-3:]}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"JSON keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"run not correct: {lines[-3:]}")
    wanted = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"JSON metrics {got} != {wanted}")
    prefix = "layer" if trace else "metric"
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 5 and parts[0] in ("metric", "layer") and parts[2] == "=":
            printed.setdefault(parts[0], {})[parts[1]] = parts[4]
    text = dict(TEXT_ONLY, **wanted)
    if trace:
        text = wanted
    for name, unit in text.items():
        if printed.get(prefix, {}).get(name) != unit:
            problems.append(f"text report lacks '{prefix} {name} = ... {unit}'")
    alive = run.leftovers()
    if alive:
        problems.append(f"left running: {alive}")
    return problems


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failures = 0
    for workload in sorted(WORKLOADS):
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            status = "ok" if not problems else "FAIL"
            print(f"{status} {workload} trace={trace}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
