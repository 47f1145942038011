"""Wire protocol: envelopes, the marked codec, workload spec round trips.

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
from repro.errors import ProtocolVersionMismatch, ServiceError
from repro.interp.config import ExecConfig
from repro.measure.instrumentation import (
    InstrumentationMode,
    full_plan,
)
from repro.measure.io import program_hash
from repro.measure.noise import GaussianNoise
from repro.measure.parallel import spec_of, workload_repr
from repro.mpisim.contention import LogQuadraticContention
from repro.service.protocol import (
    PROTOCOL_VERSION,
    configs_from_wire,
    configs_to_wire,
    envelope,
    from_wire,
    measure_task_from_wire,
    measure_task_to_wire,
    open_envelope,
    to_wire,
    workload_spec_from_wire,
    workload_spec_to_wire,
)


def wire_trip(value):
    """Encode, push through real JSON, decode."""
    return from_wire(json.loads(json.dumps(to_wire(value))))


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
# the marked value codec


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

        with pytest.raises(ServiceError, match="module scope"):
            to_wire(local)

    def test_unresolvable_ref_names_module(self):
        with pytest.raises(ServiceError, match="no_such_module"):
            from_wire({"__kind__": "ref", "ref": "no_such_module:thing"})

    def test_missing_attribute_named(self):
        with pytest.raises(ServiceError, match="no attribute"):
            from_wire({"__kind__": "ref", "ref": "json:not_a_thing"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown wire value kind"):
            from_wire({"__kind__": "flux-capacitor"})

    def test_unencodable_object_rejected(self):
        with pytest.raises(ServiceError, match="cannot encode"):
            to_wire(object())


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
        payload = json.loads(json.dumps(workload_spec_to_wire(spec)))
        rebuilt = workload_spec_from_wire(payload).build()
        # Identity is what the cache fingerprints see: same program
        # content, same workload repr (defaults, network, exec config).
        assert workload_repr(rebuilt) == workload_repr(workload)
        assert program_hash(rebuilt.program()) == program_hash(
            workload.program()
        )

    def test_factory_must_resolve_to_callable(self):
        payload = workload_spec_to_wire(spec_of(LuleshWorkload()))
        payload["factory"] = to_wire("not-a-callable")
        with pytest.raises(ServiceError, match="callable"):
            workload_spec_from_wire(payload)


# ----------------------------------------------------------------------
# measure tasks and configurations


class TestMeasureTask:
    def test_round_trip(self):
        workload = LuleshWorkload()
        plan = full_plan(workload.program())
        noise = GaussianNoise(relative_sigma=0.03)
        contention = LogQuadraticContention(beta=0.05)
        wire = measure_task_to_wire(
            workload, plan, noise, contention, 4, 11, "tree"
        )
        task = measure_task_from_wire(json.loads(json.dumps(wire)))
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
        wire = measure_task_to_wire(
            workload, plan, GaussianNoise(), LogQuadraticContention(), 1, 0,
            "tree",
        )
        wire["plan"] = to_wire("nonsense")
        with pytest.raises(ServiceError, match="InstrumentationPlan"):
            measure_task_from_wire(wire)

    def test_configs_round_trip_preserves_floats(self):
        configs = [
            {"p": 27.0, "size": 0.1},
            {"p": 2.0 / 3.0, "size": 1e-12},
        ]
        result = configs_from_wire(
            json.loads(json.dumps(configs_to_wire(configs)))
        )
        assert result == configs


def test_dataclasses_used_on_the_wire_are_frozen():
    # The codec rebuilds dataclasses positionally from field dicts;
    # sanity-check the core wire citizens still are dataclasses.
    from repro.measure.instrumentation import InstrumentationPlan

    assert dataclasses.is_dataclass(InstrumentationPlan)
    assert dataclasses.is_dataclass(ExecConfig)
