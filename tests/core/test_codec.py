"""The one codec: value or ArtifactError, and nothing downstream moves.

* Real LULESH and MILC artifacts round-trip: ``decode(encode(x)) == x``
  and re-encoding gives the same bytes.
* Arbitrary JSON, and valid payloads with a field dropped, added or
  retyped, decode to a value or raise :class:`ArtifactError` — never
  any other exception.
* What the hand-written decoders of earlier versions accepted wrongly
  now raises, and a decoder bug raises instead of reading as a miss.
"""

from __future__ import annotations

import dataclasses
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.measure.io as io_mod
from repro.codec import decode, encode
from repro.core.classify import Classification
from repro.core.experiment_design import DesignDecision
from repro.core.hybrid import ModelComparison
from repro.core.stages import STAGES
from repro.core.validation import ContentionFinding
from repro.errors import ArtifactError
from repro.measure import ConfigKey, Measurements, cached_runs, store_run
from repro.measure.experiment import ConfigRunResult
from repro.measure.instrumentation import InstrumentationPlan
from repro.measure.noise import GaussianNoise
from repro.measure.parallel import spec_of
from repro.measure.profiler import ProfileResult
from repro.mpisim.contention import LogQuadraticContention
from repro.service.protocol import MeasureTask
from repro.staticanalysis.prune import StaticReport
from repro.store import LocalStore
from repro.taint.report import TaintReport
from repro.volume.depclass import ProgramDependencies
from repro.volume.loopnest import VolumeReport

#: The artifact type of every stage (what its payload decodes to).
STAGE_TYPES = {
    "static": StaticReport,
    "taint": TaintReport,
    "volumes": tuple[VolumeReport, ProgramDependencies],
    "classify": Classification,
    "design": DesignDecision,
    "plan": InstrumentationPlan,
    "measure": tuple[Measurements, dict[ConfigKey, ProfileResult]],
    "model": dict[str, ModelComparison],
    "validate": list[ContentionFinding],
}


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def samples(smoke_campaigns):
    """``(type, value)`` of every stage artifact of both apps, one run
    result and one measure task."""
    out = []
    for campaign, _ in smoke_campaigns.values():
        out += [(STAGE_TYPES[n], campaign.artifacts[n]) for n in STAGES]
    campaign = smoke_campaigns["lulesh"][0]
    out.append((ConfigRunResult, _run_result(campaign)))
    task = MeasureTask(
        spec_of(campaign.workload),
        campaign.artifacts["plan"],
        GaussianNoise(relative_sigma=0.03),
        LogQuadraticContention(beta=0.05),
        5,
        21,
        "vectorized",
    )
    out.append((MeasureTask, task))
    return out


def _run_result(campaign) -> ConfigRunResult:
    measurements, profiles = campaign.artifacts["measure"]
    key, profile = next(iter(profiles.items()))
    return ConfigRunResult(
        key=key,
        profile=profile,
        samples={fn: list(per[key]) for fn, per in measurements.data.items()},
        calls={fn: per[key] for fn, per in measurements.calls.items()},
    )


def _equal(tp, a, b) -> bool:
    """``==``, but model coefficients compare with ``np.array_equal``."""
    if tp == STAGE_TYPES["model"]:
        return a.keys() == b.keys() and all(
            _models_equal(a[fn], b[fn]) for fn in a
        )
    return a == b


def _models_equal(a: ModelComparison, b: ModelComparison) -> bool:
    pairs = [(a.hybrid, b.hybrid), (a.black_box, b.black_box)]
    for x, y in pairs:
        if (x is None) != (y is None):
            return False
        if x is not None and not (
            np.array_equal(x.coefficients, y.coefficients)
            and dataclasses.replace(x, coefficients=None)
            == dataclasses.replace(y, coefficients=None)
        ):
            return False
    return (a.function, a.prior) == (b.function, b.prior)


def test_real_artifacts_round_trip(samples):
    assert len(samples) == 2 * len(STAGES) + 2
    for tp, value in samples:
        payload = json.loads(json.dumps(encode(value, tp)))
        back = decode(tp, payload)
        assert _equal(tp, back, value), tp
        assert canonical(encode(back, tp)) == canonical(payload), tp


# -- value or ArtifactError ---------------------------------------------------

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


def _decodes_or_artifact_error(tp, payload) -> None:
    try:
        decode(tp, payload)
    except ArtifactError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(STAGE_TYPES)) | st.just("run") | st.just("task"), JSON)
def test_arbitrary_json_is_a_value_or_artifact_error(which, payload):
    tp = {"run": ConfigRunResult, "task": MeasureTask}.get(which)
    _decodes_or_artifact_error(tp or STAGE_TYPES[which], payload)


def _mutate(payload, data):
    """A copy of *payload* with one node, chosen by walking down from the
    root, dropped, duplicated under a new key, retyped or replaced by a
    string; only the containers on the walk are copied."""
    if isinstance(payload, (dict, list)) and payload and data.draw(
        st.integers(0, 3), label="descend"
    ):
        copy = dict(payload) if isinstance(payload, dict) else list(payload)
        keys = list(copy) if isinstance(copy, dict) else range(len(copy))
        key = data.draw(st.sampled_from(list(keys)), label="child")
        copy[key] = _mutate(copy[key], data)
        if data.draw(st.integers(0, 7), label="drop") == 0:
            del copy[key]
        elif data.draw(st.integers(0, 7), label="add") == 0:
            if isinstance(copy, dict):
                copy[data.draw(st.text(max_size=6), label="new")] = copy[key]
            else:
                copy.append(copy[key])
        return copy
    return data.draw(
        st.just("pq") | st.just([]) | st.just({}) | JSON, label="replacement"
    )


@pytest.fixture(scope="module")
def payloads(samples):
    return [(tp, json.loads(json.dumps(encode(v, tp)))) for tp, v in samples]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_payloads_are_a_value_or_artifact_error(payloads, data):
    tp, payload = data.draw(st.sampled_from(payloads), label="sample")
    _decodes_or_artifact_error(tp, _mutate(payload, data))


# -- what the earlier decoders accepted wrongly --------------------------------


def test_three_value_calls_key_in_a_two_parameter_study_raises(smoke_campaigns):
    measurements = smoke_campaigns["lulesh"][0].artifacts["measure"][0]
    payload = encode(measurements)
    fn = next(iter(payload["calls"]))
    payload["calls"][fn][0] = [[1.0, 2.0, 7.0], 4]
    with pytest.raises(ArtifactError, match="arity"):
        decode(Measurements, payload)


def test_branch_direction_must_be_a_boolean():
    report = TaintReport(parameters=("p",))
    report.record_branch(("main",), "main", 0, frozenset({"p"}), True)
    payload = encode(report)
    payload["branch_records"][0][1]["directions"] = ["no"]
    with pytest.raises(ArtifactError, match=r"branch_records\[0\]"):
        decode(TaintReport, payload)


def test_parameters_must_be_an_array(smoke_campaigns):
    payload = encode(smoke_campaigns["lulesh"][0].artifacts["taint"])
    payload["parameters"] = "pq"
    with pytest.raises(ArtifactError, match="parameters"):
        decode(TaintReport, payload)
    measurements = encode(smoke_campaigns["lulesh"][0].artifacts["measure"][0])
    measurements["parameters"] = "pq"
    with pytest.raises(ArtifactError, match="parameters"):
        decode(Measurements, measurements)


def test_error_names_the_path_of_the_bad_field(smoke_campaigns):
    profiles = smoke_campaigns["lulesh"][0].artifacts["measure"][1]
    payload = encode(next(iter(profiles.values())))
    payload["nodes"][17][1]["calls"] = "many"
    with pytest.raises(ArtifactError, match=r"at nodes\[17\]\.calls: "):
        decode(ProfileResult, payload)


def test_decoder_bug_in_a_stage_raises_instead_of_recomputing(
    smoke_campaigns, tmp_path, monkeypatch
):
    workspace = tmp_path / "ws"
    shutil.copytree(smoke_campaigns["lulesh"][1], workspace)

    def broken(payload):
        raise KeyError("decoder bug")

    monkeypatch.setitem(
        STAGES, "plan", dataclasses.replace(STAGES["plan"], from_payload=broken)
    )
    with pytest.raises(KeyError, match="decoder bug"):
        dataclasses.replace(
            smoke_campaigns["lulesh"][0], workspace=workspace
        ).run()


def test_decoder_bug_in_the_run_cache_raises_instead_of_missing(
    smoke_campaigns, tmp_path, monkeypatch
):
    store = LocalStore(tmp_path)
    store_run(store, "fp", _run_result(smoke_campaigns["lulesh"][0]))
    assert cached_runs(store, ["fp"])["fp"].cached

    def broken(cls, payload):
        raise KeyError("decoder bug")

    monkeypatch.setattr(io_mod, "decode", broken)
    with pytest.raises(KeyError, match="decoder bug"):
        cached_runs(store, ["fp"])
