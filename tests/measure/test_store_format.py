"""On-disk entry format of the three content-addressed stores.

``RunCache``, ``ArtifactStore`` and ``LocalStore`` write compact JSON
(one line, ``","``/``":"`` separators) so ``json.dumps`` stays on its C
encoder.  Entries written by earlier versions in the indented form must
still read as hits: keys are fingerprints of canonical content, never of
file bytes, so the layout of a file is not part of its identity.
"""

from __future__ import annotations

import json

from repro.apps.synthetic import SyntheticWorkload, build_foo_example
from repro.core.artifacts import ArtifactStore
from repro.measure import RunCache, full_plan
from repro.measure.experiment import run_configuration
from repro.measure.io import config_run_result_to_dict
from repro.measure.noise import GaussianNoise
from repro.mpisim.contention import NoContention
from repro.service.remote_store import LocalStore

PAYLOAD = {"data": [0.1, 2.5e-300, 3], "tag": "t", "nested": {"k": [1, 2]}}


def _result():
    workload = SyntheticWorkload(
        builder=build_foo_example, parameters=("a", "b")
    )
    return run_configuration(
        workload.program(),
        workload.setup({"a": 2.0, "b": 3.0}),
        full_plan(workload.program()),
        GaussianNoise(),
        NoContention(),
        3,
        0,
        (2.0, 3.0),
    )


def _reindent(path) -> None:
    """Rewrite an entry in the indented form earlier versions wrote."""
    text = path.read_text()
    assert "\n" not in text and ", " not in text  # written compact
    path.write_text(json.dumps(json.loads(text), indent=1))


def test_run_cache_reads_indented_entry(tmp_path):
    cache = RunCache(tmp_path)
    result = _result()
    cache.put("fp", result)
    _reindent(tmp_path / "fp.json")
    hit = cache.get("fp")
    assert hit is not None and hit.cached
    assert config_run_result_to_dict(hit) == config_run_result_to_dict(
        result
    )


def test_artifact_store_reads_indented_entry(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("measure", "fp", PAYLOAD)
    _reindent(tmp_path / "measure-fp.json")
    assert store.get("measure", "fp") == PAYLOAD


def test_local_store_reads_indented_entry(tmp_path):
    store = LocalStore(tmp_path)
    store.put("runs", "fp", PAYLOAD)
    _reindent(tmp_path / "runs" / "fp.json")
    assert store.get("runs", "fp") == PAYLOAD
    assert store.corrupt_stats()["corrupt_entries"] == 0
