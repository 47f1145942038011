"""Core pipeline unit tests: annotations, classification, design, hybrid
modeling, validation helpers."""

import pytest

from repro.apps.synthetic import (
    SyntheticWorkload,
    build_additive_example,
    build_algorithm_selection_example,
    build_foo_example,
    build_multiplicative_example,
)
from repro.core import (
    classify_functions,
    design_experiments,
    detect_segmented_behavior,
    linear_global_factors,
    poor_fit_functions,
    prune_parameters,
    register_parameters,
    registered_parameters,
)
from repro.errors import IRError
from repro.staticanalysis import analyze_program
from repro.taint import TaintEngine
from repro.volume import classify_program, compute_volumes


def taint_of(prog, args, sources=None):
    entry = prog.function(prog.entry)
    sources = sources or {n: n for n in entry.params}
    return TaintEngine(prog).analyze(args, sources).report


class TestAnnotations:
    def test_register_and_read(self):
        prog = build_foo_example.__wrapped__()  # annotating changes it
        register_parameters(prog, {"a": "size"})
        assert registered_parameters(prog) == {"a": "size"}

    def test_register_unknown_arg_rejected(self):
        prog = build_foo_example()
        with pytest.raises(IRError):
            register_parameters(prog, {"zz": "zz"})

    def test_register_merges(self):
        prog = build_foo_example.__wrapped__()
        register_parameters(prog, {"a": "a"})
        register_parameters(prog, {"b": "b"})
        assert set(registered_parameters(prog)) == {"a", "b"}


class TestClassification:
    def test_foo_example(self):
        prog = build_foo_example()
        static = analyze_program(prog)
        taint = taint_of(prog, {"a": 4, "b": 2})
        cls = classify_functions(prog, static, taint)
        assert "foo" in cls.kernels
        assert "main" in cls.pruned_static
        assert cls.per_function_params["foo"] == frozenset({"a"})

    def test_constant_fraction(self):
        prog = build_foo_example()
        static = analyze_program(prog)
        taint = taint_of(prog, {"a": 4, "b": 2})
        cls = classify_functions(prog, static, taint)
        assert cls.constant_fraction == pytest.approx(0.5)

    def test_table2_row_consistency(self):
        prog = build_additive_example()
        static = analyze_program(prog)
        taint = taint_of(prog, {"p": 2, "s": 3})
        cls = classify_functions(prog, static, taint)
        row = cls.table2_row()
        assert row["functions"] == (
            row["pruned_statically"]
            + row["pruned_dynamically"]
            + row["kernels"]
            + row["comm_routines"]
        )


class TestParameterPruning:
    def test_prune_irrelevant(self):
        prog = build_foo_example()
        taint = taint_of(prog, {"a": 4, "b": 2})
        kept, pruned = prune_parameters(["a", "b"], taint)
        assert kept == ["a"]
        assert pruned == ["b"]


class TestDesign:
    def _artifacts(self, prog, args):
        taint = taint_of(prog, args)
        volumes = compute_volumes(prog, taint)
        deps = classify_program(volumes.inclusive, volumes.program)
        return taint, volumes, deps

    def test_additive_uses_one_at_a_time(self):
        prog = build_additive_example()
        taint, volumes, deps = self._artifacts(prog, {"p": 2, "s": 3})
        decision = design_experiments(
            {"p": [2, 4, 8, 16, 32], "s": [2, 4, 8, 16, 32]},
            taint,
            deps,
            volumes.program,
        )
        assert "one-at-a-time" in decision.strategy
        assert decision.size < decision.naive_size
        assert decision.savings_fraction > 0.5

    def test_multiplicative_uses_factorial(self):
        prog = build_multiplicative_example()
        taint, volumes, deps = self._artifacts(prog, {"p": 2, "s": 3})
        decision = design_experiments(
            {"p": [2, 4, 8], "s": [2, 4, 8]}, taint, deps, volumes.program
        )
        assert decision.strategy == "full-factorial"
        assert decision.size == 9

    def test_irrelevant_parameter_dropped(self):
        prog = build_foo_example()
        taint, volumes, deps = self._artifacts(prog, {"a": 4, "b": 2})
        decision = design_experiments(
            {"a": [2, 4, 8], "b": [1, 2, 3]}, taint, deps, volumes.program
        )
        assert decision.pruned_parameters == ("b",)
        assert decision.size == 3  # only a sweeps; b fixed
        for cfg in decision.configurations:
            assert cfg["b"] == 1

    def test_linear_global_factor_detected(self, lulesh_program, lulesh_taint):
        """The LULESH `iters` corner case (paper A2)."""
        volumes = compute_volumes(lulesh_program, lulesh_taint)
        factors = linear_global_factors(
            volumes.program, ["size", "iters", "regions"], lulesh_taint
        )
        assert factors == ["iters"]

    def test_lulesh_design_collapses_iters(
        self, lulesh_program, lulesh_taint
    ):
        volumes = compute_volumes(lulesh_program, lulesh_taint)
        deps = classify_program(volumes.inclusive, volumes.program)
        decision = design_experiments(
            {
                "p": [8, 27, 64],
                "size": [5, 10, 15],
                "iters": [2, 4, 8],
            },
            lulesh_taint,
            deps,
            volumes.program,
        )
        assert "iters" in decision.collapsed_parameters
        assert decision.size == 9
        assert decision.savings_fraction == pytest.approx(1 - 9 / 27)


class TestSegmentDetection:
    def test_algorithm_selection_flagged(self):
        prog = build_algorithm_selection_example()
        wl = SyntheticWorkload(
            builder=build_algorithm_selection_example, parameters=("a",)
        )
        findings = detect_segmented_behavior(
            prog,
            [{"a": 2}, {"a": 3}, {"a": 8}, {"a": 16}],
            wl.setup,
            {"a": "a"},
        )
        assert len(findings) == 1
        finding = findings[0]
        assert finding.function == "main"
        assert finding.params == frozenset({"a"})
        assert finding.is_segmented
        assert "then" in finding.boundary() and "else" in finding.boundary()

    def test_single_behavior_not_flagged(self):
        prog = build_algorithm_selection_example()
        wl = SyntheticWorkload(
            builder=build_algorithm_selection_example, parameters=("a",)
        )
        findings = detect_segmented_behavior(
            prog, [{"a": 8}, {"a": 16}, {"a": 32}], wl.setup, {"a": "a"}
        )
        assert findings == []

    def test_poor_fit_helper(self):
        from repro.modeling import fit_constant
        import numpy as np

        good = fit_constant(np.ones((3, 1)), np.array([5.0, 5.0, 5.0]), ("x",))
        bad = fit_constant(
            np.ones((3, 1)), np.array([1.0, 100.0, 1.0]), ("x",)
        )
        out = poor_fit_functions({"good": good, "bad": bad}, 0.15)
        assert "bad" in out and "good" not in out
