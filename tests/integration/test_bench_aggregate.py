"""``benchmarks/aggregate.py`` keeps the committed records it is not given.

``benchmarks/out/`` is gitignored and starts empty, so re-recording one
benchmark must replace that record in ``BENCH_SUMMARY.json`` and leave
every other one as committed.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

AGGREGATE = pathlib.Path(__file__).parents[2] / "benchmarks" / "aggregate.py"


def _aggregate():
    spec = importlib.util.spec_from_file_location("bench_aggregate", AGGREGATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_record_overlays_a_two_record_summary(tmp_path):
    aggregate = _aggregate()
    previous = {
        "record_count": 2,
        "speedups": {
            "model_speedup_speedup": 4.0,
            "taint_speedup_speedup": 2.0,
        },
        "history": {
            "model_speedup_speedup": [4.0],
            "taint_speedup_speedup": [2.0],
        },
        "benchmarks": {
            "model_speedup": {"speedup": 4.0},
            "taint_speedup": {"speedup": 2.0, "host_cores": 1},
        },
    }
    record = {"benchmark": "taint_speedup", "metrics": {"speedup": 6.0}}
    (tmp_path / "BENCH_taint_speedup.json").write_text(json.dumps(record))

    summary = aggregate.collect(tmp_path, previous=previous)

    assert summary["record_count"] == 2
    assert summary["benchmarks"] == {
        "model_speedup": {"speedup": 4.0},
        "taint_speedup": {"speedup": 6.0},
    }
    assert summary["speedups"] == {
        "model_speedup_speedup": 4.0,
        "taint_speedup_speedup": 6.0,
    }
    assert summary["history"] == {
        "model_speedup_speedup": [4.0],
        "taint_speedup_speedup": [2.0, 6.0],
    }
    # The committed summary itself is left as it was.
    assert previous["benchmarks"]["taint_speedup"]["speedup"] == 2.0


def test_committed_summary_is_a_fixed_point(tmp_path):
    """No new records: aggregating reproduces the committed file."""
    aggregate = _aggregate()
    committed = aggregate.SUMMARY_PATH.read_text()
    summary = aggregate.collect(tmp_path, previous=json.loads(committed))
    assert aggregate.render(summary) == committed
