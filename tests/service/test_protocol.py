"""Wire protocol: envelopes, the marked form, typed body round trips.

Every value the campaign service ships between processes must survive a
JSON round trip *exactly* — the service's bit-identity guarantee starts
here.  These tests always push encoded values through
``json.loads(json.dumps(...))`` so they cover real wire conditions, not
just the in-process dict shapes.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.apps.lulesh import LuleshWorkload
from repro.apps.milc import MilcWorkload
from repro.apps.synthetic import (
    SyntheticWorkload,
    build_foo_example,
    make_scaling_workload,
)
from repro.codec import decode, encode
from repro.errors import ArtifactError, ProtocolVersionMismatch, ServiceError
from repro.interp.config import ExecConfig
from repro.measure.instrumentation import (
    InstrumentationMode,
    full_plan,
)
from repro.measure.io import program_hash
from repro.measure.noise import GaussianNoise
from repro.measure.parallel import (
    MeasureTask,
    WorkloadSpec,
    spec_of,
    workload_repr,
)
from repro.mpisim.contention import LogQuadraticContention
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Configs,
    envelope,
    open_envelope,
)


def wire_trip(value, cls=object):
    """Encode as *cls*, push through real JSON, decode."""
    return decode(cls, json.loads(json.dumps(encode(value, cls))))


def measure_task(workload, plan, noise, contention, repetitions, seed, engine):
    return MeasureTask(
        spec_of(workload), plan, noise, contention, repetitions, seed, engine
    )


# ----------------------------------------------------------------------
# envelopes


class TestEnvelope:
    def test_round_trip(self):
        body = {"x": 1}
        assert open_envelope(envelope("msg", body), "msg") == body

    def test_version_mismatch_is_typed(self):
        bad = envelope("msg", {})
        bad["protocol"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolVersionMismatch) as err:
            open_envelope(bad)
        assert str(PROTOCOL_VERSION) in str(err.value)
        assert str(PROTOCOL_VERSION + 1) in str(err.value)

    def test_missing_version_is_mismatch(self):
        with pytest.raises(ProtocolVersionMismatch):
            open_envelope({"type": "msg", "body": {}})

    def test_wrong_type_rejected(self):
        with pytest.raises(ServiceError, match="unexpected"):
            open_envelope(envelope("other", {}), "msg")

    def test_non_mapping_rejected(self):
        with pytest.raises(ServiceError, match="envelope"):
            open_envelope([1, 2, 3])

    def test_missing_body_rejected(self):
        with pytest.raises(ServiceError, match="body"):
            open_envelope({"protocol": PROTOCOL_VERSION, "type": "msg"})


# ----------------------------------------------------------------------
# the marked form of untyped values


class TestCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            3.5,
            1e-300,
            "text",
            [1, "two", 3.0],
            (1, (2, 3)),
            {"a": 1, "b": [True, None]},
            {1.5: "float-key"},
            frozenset({"x", "y"}),
            {1, 2, 3},
        ],
    )
    def test_exact_round_trip(self, value):
        result = wire_trip(value)
        assert result == value
        assert type(result) is type(value)

    def test_float_bits_survive(self):
        # repr-based JSON floats are the shortest round-tripping form;
        # equality here is bitwise, not approximate.
        values = [0.1, 2.0 / 3.0, 1.0000000000000002, 5e-324]
        assert wire_trip(values) == values

    def test_tuple_stays_tuple_inside_dict(self):
        value = {"key": (1, 2), "nested": [(3, 4)]}
        result = wire_trip(value)
        assert result["key"] == (1, 2)
        assert result["nested"][0] == (3, 4)

    def test_str_enum_keeps_enum_identity(self):
        # InstrumentationMode subclasses str: the enum branch must win
        # over the primitive branch or modes decode as plain strings.
        for mode in InstrumentationMode:
            result = wire_trip(mode)
            assert result is mode
            assert isinstance(result, InstrumentationMode)

    def test_dataclass_round_trip(self):
        config = ExecConfig()
        result = wire_trip(config)
        assert result == config
        assert isinstance(result, ExecConfig)

    def test_noise_and_contention_round_trip(self):
        noise = GaussianNoise(relative_sigma=0.05, absolute_sigma=17.0)
        contention = LogQuadraticContention(beta=0.06)
        assert wire_trip(noise) == noise
        # Contention models may not define __eq__; compare reprs (repr
        # is what all fingerprints use).
        assert repr(wire_trip(contention)) == repr(contention)

    def test_module_level_callable_by_reference(self):
        assert wire_trip(build_foo_example) is build_foo_example

    def test_local_function_rejected_with_fix(self):
        def local():  # pragma: no cover - never called
            pass

        with pytest.raises(ArtifactError, match="module scope"):
            encode(local, object)

    def test_unresolvable_ref_names_module(self):
        with pytest.raises(ArtifactError, match="no_such_module"):
            decode(object, {"__kind__": "ref", "ref": "no_such_module:thing"})

    def test_missing_attribute_named(self):
        with pytest.raises(ArtifactError, match="no attribute"):
            decode(object, {"__kind__": "ref", "ref": "json:not_a_thing"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ArtifactError, match="unknown value kind"):
            decode(object, {"__kind__": "flux-capacitor"})

    def test_unencodable_object_rejected(self):
        with pytest.raises(ArtifactError, match="cannot encode"):
            encode(object(), object)


# ----------------------------------------------------------------------
# workload specs


WORKLOADS = {
    "lulesh": LuleshWorkload,
    "milc": MilcWorkload,
    "synthetic-foo": lambda: SyntheticWorkload(
        builder=build_foo_example, parameters=("a", "b")
    ),
    "synthetic-scaling": make_scaling_workload,
}


class TestWorkloadSpec:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_round_trip_rebuilds_identical_workload(self, name):
        workload = WORKLOADS[name]()
        spec = spec_of(workload)
        payload = json.loads(json.dumps(encode(spec)))
        rebuilt = decode(WorkloadSpec, payload).build()
        # Identity is what the cache fingerprints see: same program
        # content, same workload repr (defaults, network, exec config).
        assert workload_repr(rebuilt) == workload_repr(workload)
        assert program_hash(rebuilt.program()) == program_hash(
            workload.program()
        )

    def test_factory_must_resolve_to_callable(self):
        payload = encode(spec_of(LuleshWorkload()))
        payload["factory"] = encode("not-a-callable", object)
        with pytest.raises(ArtifactError, match="factory: .*callable"):
            decode(WorkloadSpec, payload)


# ----------------------------------------------------------------------
# measure tasks and configurations


class TestMeasureTask:
    def test_round_trip(self):
        workload = LuleshWorkload()
        plan = full_plan(workload.program())
        noise = GaussianNoise(relative_sigma=0.03)
        contention = LogQuadraticContention(beta=0.05)
        wire = encode(
            measure_task(workload, plan, noise, contention, 4, 11, "tree")
        )
        task = decode(MeasureTask, json.loads(json.dumps(wire)))
        assert task.plan == plan
        assert isinstance(task.plan.mode, InstrumentationMode)
        assert task.noise == noise
        assert repr(task.contention) == repr(contention)
        assert (task.repetitions, task.seed, task.engine) == (4, 11, "tree")
        rebuilt = task.workload_spec.build()
        assert workload_repr(rebuilt) == workload_repr(workload)

    def test_bad_plan_rejected(self):
        workload = LuleshWorkload()
        plan = full_plan(workload.program())
        wire = encode(
            measure_task(
                workload, plan, GaussianNoise(), LogQuadraticContention(), 1,
                0, "tree",
            )
        )
        wire["plan"] = "nonsense"
        with pytest.raises(ArtifactError, match="MeasureTask payload at plan"):
            decode(MeasureTask, wire)

    def test_configs_round_trip_preserves_floats(self):
        configs = [
            {"p": 27.0, "size": 0.1},
            {"p": 2.0 / 3.0, "size": 1e-12},
        ]
        result = wire_trip(configs, Configs)
        assert result == configs


def test_dataclasses_used_on_the_wire_are_frozen():
    # The codec rebuilds dataclasses positionally from field dicts;
    # sanity-check the core wire citizens still are dataclasses.
    from repro.measure.instrumentation import InstrumentationPlan

    assert dataclasses.is_dataclass(InstrumentationPlan)
    assert dataclasses.is_dataclass(ExecConfig)
