"""On-disk entry format of the content-addressed store.

``LocalStore`` writes compact JSON (one line, ``","``/``":"``
separators) so ``json.dumps`` stays on its C encoder.  Entries written
by earlier versions in the indented form must still read as hits: keys
are fingerprints of canonical content, never of file bytes, so the
layout of a file is not part of its identity.

Whatever bytes sit at a real ``stage`` or ``runs`` key, reading them is
a hit or a miss, never an exception.
"""

from __future__ import annotations

import json
import pathlib
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import SyntheticWorkload, build_foo_example
from repro.errors import ArtifactError
from repro.measure import cached_runs, full_plan, store_run
from repro.measure.experiment import run_configuration
from repro.measure.io import config_run_result_to_dict
from repro.measure.noise import GaussianNoise
from repro.mpisim.contention import NoContention
from repro.store import (
    RUNS_NAMESPACE,
    STAGE_NAMESPACE,
    STORE_VERSION,
    LocalStore,
    stage_key,
)

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
    store = LocalStore(tmp_path)
    result = _result()
    store_run(store, "fp", result)
    _reindent(tmp_path / RUNS_NAMESPACE / "fp.json")
    hit = cached_runs(store, ["fp"])["fp"]
    assert hit.cached
    assert config_run_result_to_dict(hit) == config_run_result_to_dict(
        result
    )


def test_local_store_reads_indented_entry(tmp_path):
    store = LocalStore(tmp_path)
    key = stage_key("measure", "fp")
    store.put(STAGE_NAMESPACE, key, PAYLOAD)
    _reindent(tmp_path / STAGE_NAMESPACE / f"{key}.json")
    assert store.get(STAGE_NAMESPACE, key) == PAYLOAD
    assert store.corrupt_stats()["corrupt_entries"] == 0


def test_unencodable_payload_is_a_typed_error(tmp_path):
    store = LocalStore(tmp_path)
    key = stage_key("measure", "fp")
    with pytest.raises(ArtifactError, match="not JSON-serializable"):
        store.put(STAGE_NAMESPACE, key, {"x": object()})
    assert store.keys(STAGE_NAMESPACE) == []


# -- arbitrary entry bytes ------------------------------------------------

#: A fingerprint-shaped key, so entries sit where campaigns look.
FP = "3f" * 32
KEYS = ((STAGE_NAMESPACE, stage_key("design", FP)), (RUNS_NAMESPACE, FP))

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children)
    | st.dictionaries(st.text(), children),
    max_leaves=20,
)


def _contents(key: str):
    """Raw bytes, bare JSON, or a valid envelope around arbitrary JSON."""
    return st.one_of(
        st.binary(),
        JSON.map(lambda value: json.dumps(value).encode()),
        JSON.map(
            lambda value: json.dumps(
                {"version": STORE_VERSION, "key": key, "payload": value}
            ).encode()
        ),
    )


ENTRIES = st.sampled_from(KEYS).flatmap(
    lambda where: st.tuples(st.just(where), _contents(where[1]))
)


@settings(max_examples=150, deadline=None)
@given(ENTRIES)
@example(((RUNS_NAMESPACE, FP), b"[" * 100_000))
@example(((STAGE_NAMESPACE, KEYS[0][1]), b"\xff\xfe{"))
def test_arbitrary_entry_reads_as_hit_or_miss(entry):
    (namespace, key), data = entry
    with tempfile.TemporaryDirectory() as root:
        store = LocalStore(root)
        path = pathlib.Path(root, namespace, f"{key}.json")
        path.parent.mkdir()
        if namespace == RUNS_NAMESPACE:
            path.write_bytes(data)
            assert cached_runs(store, [key]) == {}
        path.write_bytes(data)
        payload = store.get(namespace, key)
        assert payload is None or payload == json.loads(data)["payload"]
