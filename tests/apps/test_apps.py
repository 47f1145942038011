"""Workload structure tests: LULESH and MILC mini-apps."""

import pytest

from repro.apps.lulesh import LuleshWorkload, build_lulesh
from repro.apps.milc import MilcWorkload, build_milc
from repro.core.classify import classify_functions, table3_counts
from repro.interp import Interpreter


class TestLuleshStructure:
    def test_scale_band(self, lulesh_program):
        """Comparable to the paper's Table 2 (356 functions, 275 loops)."""
        assert 250 <= lulesh_program.function_count() <= 450
        assert 120 <= lulesh_program.loop_count() <= 350

    def test_key_kernels_present(self, lulesh_program):
        for name in (
            "CalcQForElems",
            "CalcHourglassControlForElems",
            "IntegrateStressForElems",
            "LagrangeLeapFrog",
            "TimeIncrement",
            "CommSBN",
        ):
            assert name in lulesh_program, name

    def test_runs_and_scales_with_size(self, lulesh_workload):
        prog = lulesh_workload.program()
        small = lulesh_workload.setup({"p": 8, "size": 5})
        large = lulesh_workload.setup({"p": 8, "size": 10})
        t_small = Interpreter(prog, runtime=small.runtime).run(small.args).time
        t_large = Interpreter(prog, runtime=large.runtime).run(large.args).time
        # numElem = size^3: roughly 8x work
        assert t_large > 4 * t_small

    def test_classification_bands(
        self, lulesh_program, lulesh_static, lulesh_taint
    ):
        """Paper: 86.2% of functions constant w.r.t. the parameters."""
        cls = classify_functions(lulesh_program, lulesh_static, lulesh_taint)
        assert 0.82 <= cls.constant_fraction <= 0.95
        assert 20 <= len(cls.kernels) <= 45  # paper: 40
        assert 2 <= len(cls.comm_routines) <= 8  # paper: 2
        assert 5 <= len(cls.mpi_functions) <= 12  # paper: 7

    def test_p_affects_exactly_two_functions(self, lulesh_program, lulesh_taint):
        """Paper Table 3: p directly affects 2 kernels / 2 loops."""
        counts = table3_counts(lulesh_program, lulesh_taint, ["p"])
        assert counts["p"]["functions"] == 2
        assert counts["p"]["loops"] == 2

    def test_size_broadest_coverage(self, lulesh_program, lulesh_taint):
        """size covers the most kernels -> chosen for 2-param modeling."""
        params = ["size", "regions", "balance", "cost", "iters"]
        counts = table3_counts(lulesh_program, lulesh_taint, params)
        best = max(params, key=lambda q: counts[q]["functions"])
        assert best == "size"

    def test_iters_single_instance(self, lulesh_taint):
        """Paper A2: a single instance of iters, in the main loop."""
        assert lulesh_taint.loops_affected_by("iters") == frozenset(
            {("main", 0)}
        )

    def test_calcq_conservative_multiplicative(self, lulesh_taint):
        """CalcQForElems' pack loop (loop 1, after the element loop)
        carries both p and size in one exit condition (paper 5.2:
        conservative multiplicative)."""
        assert lulesh_taint.loop_params("CalcQForElems", 0) == frozenset(
            {"size"}
        )
        assert lulesh_taint.loop_params("CalcQForElems", 1) == frozenset(
            {"p", "size"}
        )

    def test_rank_wrappers_constant(self, lulesh_taint):
        """B1: MPI_Comm_rank wrappers must come out parameter-free."""
        for fn in ("GetMyRank", "LogRank", "DebugRank", "TraceRank"):
            assert lulesh_taint.function_params(fn) == frozenset()

    def test_control_flow_dependence_of_regions(self, lulesh_taint):
        """The section 5.2 regElemSize pattern: the region loop bound
        depends on size only through control flow."""
        params = lulesh_taint.loop_params("CalcMonotonicQRegionForElems", 1)
        assert "size" in params and "regions" in params

    def test_workload_setup_defaults(self, lulesh_workload):
        setup = lulesh_workload.setup({"p": 27, "size": 10})
        assert setup.args["size"] == 10
        assert setup.args["regions"] == 11
        assert setup.runtime.config.ranks == 27

    def test_taint_config_is_small(self, lulesh_workload):
        cfg = lulesh_workload.taint_config()
        assert cfg["size"] <= 8 and cfg["p"] <= 16


class TestMilcStructure:
    def test_scale_band(self, milc_program):
        """Comparable to the paper's Table 2 (629 functions, 874 loops)."""
        assert 500 <= milc_program.function_count() <= 750

    def test_classification_bands(self, milc_program, milc_static, milc_taint):
        """Paper: 87.7% constant; pruned 364 static / 188 dynamic."""
        cls = classify_functions(milc_program, milc_static, milc_taint)
        assert 0.84 <= cls.constant_fraction <= 0.95
        assert 40 <= len(cls.kernels) <= 70  # paper: 56
        assert len(cls.pruned_static) >= 300  # paper: 364
        assert len(cls.pruned_dynamic) >= 150  # paper: 188
        assert len(cls.mpi_functions) == 8  # paper: 8

    def test_lattice_extents_multiplicative_with_p(self, milc_taint):
        """Per-rank site loops carry nx..nt and p in one condition."""
        params = milc_taint.loop_params("dslash_site", 0)
        assert {"nx", "ny", "nz", "nt", "p"} <= params

    def test_mass_beta_pruned(self, milc_program, milc_taint):
        """Paper: identical to the expert ground truth — mass and beta are
        numerical-only parameters with no performance effect."""
        counts = table3_counts(milc_program, milc_taint, ["mass", "beta"])
        assert counts["mass"]["functions"] == 0
        assert counts["beta"]["functions"] == 0

    def test_md_driver_params_detected(self, milc_program, milc_taint):
        counts = table3_counts(
            milc_program, milc_taint,
            ["steps", "niter", "warms", "trajecs", "nrestart"],
        )
        for q in ("steps", "niter", "warms", "trajecs", "nrestart"):
            assert counts[q]["functions"] >= 1, q

    def test_warms_trajecs_single_condition(self, milc_taint):
        """warms + trajecs bound one loop: conservative multiplicative."""
        params = milc_taint.loop_params("main", 0)
        assert {"warms", "trajecs"} <= params

    def test_gather_branch_on_p(self, milc_taint):
        assert milc_taint.branch_params("do_gather", 0) == frozenset({"p"})
        # taint config has p=32 -> tree path only
        assert milc_taint.branch_directions("do_gather", 0) == frozenset(
            {False}
        )

    def test_gather_linear_unexecuted(self, milc_taint):
        assert "gather_linear" not in milc_taint.executed_functions
        assert "gather_tree" in milc_taint.executed_functions

    def test_runs_and_scales_with_size(self, milc_workload):
        prog = milc_workload.program()
        small = milc_workload.setup({"p": 4, "size": 32})
        large = milc_workload.setup({"p": 4, "size": 128})
        t_small = Interpreter(prog, runtime=small.runtime).run(small.args).time
        t_large = Interpreter(prog, runtime=large.runtime).run(large.args).time
        assert t_large > 2 * t_small

    def test_strong_scaling_in_p(self, milc_workload):
        prog = milc_workload.program()
        few = milc_workload.setup({"p": 4, "size": 256})
        many = milc_workload.setup({"p": 64, "size": 256})
        t_few = Interpreter(prog, runtime=few.runtime).run(few.args).time
        t_many = Interpreter(prog, runtime=many.runtime).run(many.args).time
        assert t_many < t_few  # sites/p shrink faster than comm grows


class TestSyntheticExamples:
    def test_foo_prunes_b(self):
        from repro.apps.synthetic import build_foo_example
        from repro.taint import TaintEngine

        prog = build_foo_example()
        rep = (
            TaintEngine(prog)
            .analyze({"a": 4, "b": 9}, {"a": "a", "b": "b"})
            .report
        )
        assert rep.loop_params("foo", 0) == frozenset({"a"})

    def test_contention_example_kinds(self):
        from repro.apps.synthetic import build_contention_example
        from repro.interp import Interpreter
        from repro.interp.events import CostKind

        prog = build_contention_example()
        res = Interpreter(prog).run({"n": 10})
        assert res.metrics.totals[CostKind.MEMORY] > 0
        assert res.metrics.totals[CostKind.COMPUTE] > 0

    def test_workload_adapter_defaults(self):
        from repro.apps.synthetic import SyntheticWorkload, build_foo_example

        wl = SyntheticWorkload(
            builder=build_foo_example,
            parameters=("a",),
            defaults={"a": 2, "b": 3},
        )
        setup = wl.setup({"a": 7})
        assert setup.args == {"a": 7, "b": 3}
        assert wl.sources() == {"a": "a", "b": "b"}
