"""Component-registry tests: decorators, lookup errors, extensibility."""

import pytest

from repro.errors import RegistryError, ReproError
from repro.interp import make_engine
from repro.registry import (
    CONTENTION_REGISTRY,
    DESIGN_REGISTRY,
    ENGINE_REGISTRY,
    NOISE_REGISTRY,
    WORKLOAD_REGISTRY,
    Registry,
    load_builtin_components,
)


@pytest.fixture(autouse=True)
def _builtins():
    load_builtin_components()


class TestRegistryBasics:
    def test_register_called_with_name(self):
        reg = Registry("widget")

        @reg.register("frob", help="frobnicates")
        def make_frob():
            return "frob!"

        assert "frob" in reg
        assert reg.create("frob") == "frob!"
        assert reg.entry("frob").description == "frobnicates"

    def test_register_bare_uses_dunder_name(self):
        reg = Registry("widget")

        @reg.register
        def gadget():
            return 1

        assert "gadget" in reg
        assert reg.get("gadget") is gadget

    def test_unknown_name_lists_valid_names(self):
        reg = Registry("widget")
        reg.register("a")(lambda: None)
        reg.register("b")(lambda: None)
        with pytest.raises(RegistryError) as err:
            reg.get("c")
        message = str(err.value)
        assert "unknown widget 'c'" in message
        assert "a" in message and "b" in message

    def test_registry_error_is_repro_and_value_error(self):
        reg = Registry("widget")
        with pytest.raises(ReproError):
            reg.get("missing")
        with pytest.raises(ValueError):
            reg.get("missing")

    def test_latest_registration_wins(self):
        reg = Registry("widget")
        reg.register("x")(lambda: "old")
        reg.register("x")(lambda: "new")
        assert reg.create("x") == "new"

    def test_iteration_is_sorted(self):
        reg = Registry("widget")
        for name in ("zeta", "alpha", "mid"):
            reg.register(name)(lambda: None)
        assert [e.name for e in reg] == ["alpha", "mid", "zeta"]


class TestBuiltinRegistrations:
    def test_bundled_workloads_registered(self):
        for name in ("lulesh", "milc", "synthetic"):
            assert name in WORKLOAD_REGISTRY

    def test_workload_params_metadata(self):
        entry = WORKLOAD_REGISTRY.entry("lulesh")
        assert "size" in entry.metadata["params"]

    def test_bundled_engines_registered(self):
        assert set(ENGINE_REGISTRY.names()) >= {"tree", "vectorized"}

    def test_bundled_noise_and_contention(self):
        assert set(NOISE_REGISTRY.names()) >= {"none", "gaussian"}
        assert set(CONTENTION_REGISTRY.names()) >= {
            "none",
            "logquad",
            "bandwidth",
        }

    def test_bundled_designs_registered(self):
        assert set(DESIGN_REGISTRY.names()) >= {
            "reduced",
            "full-factorial",
            "one-at-a-time",
        }

    def test_workload_factories_build(self):
        workload = WORKLOAD_REGISTRY.create("synthetic")
        assert workload.program().entry == "main"


class TestEngineRegistryIntegration:
    def test_make_engine_uses_registry(self, monkeypatch):
        built = []

        class FakeEngine:
            def __init__(self, program, runtime=None, config=None, listener=None):
                built.append(program)

        ENGINE_REGISTRY.register("fake-test-engine")(FakeEngine)
        try:
            workload = WORKLOAD_REGISTRY.create("synthetic")
            engine = make_engine(workload.program(), "fake-test-engine")
            assert isinstance(engine, FakeEngine)
            assert built
        finally:
            ENGINE_REGISTRY._entries.pop("fake-test-engine", None)

    def test_make_engine_unknown_mentions_registered(self):
        workload = WORKLOAD_REGISTRY.create("synthetic")
        with pytest.raises(ValueError) as err:
            make_engine(workload.program(), "no-such-engine")
        assert "tree" in str(err.value) and "vectorized" in str(err.value)
