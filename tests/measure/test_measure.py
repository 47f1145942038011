"""Measurement substrate tests: noise, instrumentation, profiler,
experiments."""

import numpy as np
import pytest

from repro.errors import DesignError
from repro.interp.events import CostKind
from repro.ir import ProgramBuilder, call, var
from repro.measure import (
    APP_KEY,
    ExperimentRunner,
    GaussianNoise,
    InstrumentationMode,
    NoNoise,
    default_filter_plan,
    full_factorial,
    full_plan,
    none_plan,
    one_at_a_time,
    profile_run,
    rng_for,
    taint_filter_plan,
)
from repro.taint import TaintEngine


def sample_program():
    pb = ProgramBuilder()
    with pb.function("tiny", ["i"], kind="accessor") as f:
        f.ret(var("i"))
    with pb.function("wide_const", ["i"]) as f:
        for k in range(10):
            f.assign(f"t{k}", k)
    with pb.function("kernel", ["n"], kind="kernel") as f:
        for k in range(6):
            f.assign(f"c{k}", k)
        with f.for_("i", 0, f.var("n")):
            f.call("tiny", f.var("i"))
            f.work(10)
    with pb.function("main", ["n"]) as f:
        f.call("wide_const", 1)
        f.call("kernel", var("n"))
    return pb.build(entry="main")


class TestNoise:
    def test_no_noise_identity(self):
        rng = np.random.default_rng(0)
        assert NoNoise().perturb(123.0, rng) == 123.0

    def test_gaussian_nonnegative(self):
        noise = GaussianNoise(relative_sigma=0.5, absolute_sigma=100)
        rng = np.random.default_rng(0)
        assert all(noise.perturb(1.0, rng) >= 0 for _ in range(100))

    def test_absolute_floor_dominates_short_functions(self):
        noise = GaussianNoise(relative_sigma=0.02, absolute_sigma=200)
        short = [
            noise.perturb(10.0, rng_for(0, "f", (1.0,), i)) for i in range(50)
        ]
        long_ = [
            noise.perturb(1e7, rng_for(0, "f", (1.0,), i)) for i in range(50)
        ]
        cov_short = np.std(short) / np.mean(short)
        cov_long = np.std(long_) / np.mean(long_)
        assert cov_short > 5 * cov_long

    def test_rng_deterministic(self):
        a = rng_for(1, "f", (2.0, 3.0), 0).normal()
        b = rng_for(1, "f", (2.0, 3.0), 0).normal()
        assert a == b

    def test_rng_streams_independent(self):
        a = rng_for(1, "f", (2.0,), 0).normal()
        b = rng_for(1, "f", (2.0,), 1).normal()
        c = rng_for(1, "g", (2.0,), 0).normal()
        assert len({a, b, c}) == 3


class TestInstrumentationPlans:
    def test_full_covers_everything(self):
        prog = sample_program()
        plan = full_plan(prog)
        assert plan.functions == frozenset(prog.functions)

    def test_default_filter_drops_small(self):
        prog = sample_program()
        plan = default_filter_plan(prog)
        assert "tiny" not in plan.functions
        assert "wide_const" in plan.functions  # big but constant: kept
        assert "kernel" in plan.functions

    def test_taint_filter_keeps_only_relevant(self):
        prog = sample_program()
        taint = TaintEngine(prog).analyze({"n": 3}, {"n": "n"}).report
        plan = taint_filter_plan(prog, taint)
        assert plan.functions == frozenset({"kernel"})

    def test_none_plan(self):
        plan = none_plan()
        assert len(plan) == 0 and plan.overhead_per_call == 0.0


class TestProfiler:
    def test_uninstrumented_folds_into_parent(self):
        prog = sample_program()
        taint = TaintEngine(prog).analyze({"n": 3}, {"n": "n"}).report
        plan = taint_filter_plan(prog, taint)
        prof = profile_run(prog, {"n": 5}, plan)
        assert prof.visible_functions() == frozenset({"kernel"})
        # tiny's and main's costs fold into kernel / the root.
        assert prof.total_time() > 0

    def test_full_instrumentation_overhead(self):
        prog = sample_program()
        native = profile_run(prog, {"n": 100}, none_plan()).total_time()
        full = profile_run(prog, {"n": 100}, full_plan(prog)).total_time()
        assert full > native  # overhead strictly positive
        prof = profile_run(prog, {"n": 100}, full_plan(prog))
        assert prof.overhead_time() == pytest.approx(full - native)

    def test_overhead_scales_with_call_count(self):
        prog = sample_program()
        p10 = profile_run(prog, {"n": 10}, full_plan(prog))
        p100 = profile_run(prog, {"n": 100}, full_plan(prog))
        assert p100.overhead_time() > p10.overhead_time() * 5

    def test_base_total_excludes_overhead(self):
        prog = sample_program()
        native = profile_run(prog, {"n": 50}, none_plan()).total_time()
        prof = profile_run(prog, {"n": 50}, full_plan(prog))
        assert prof.base_total_time() == pytest.approx(native)

    def test_contention_scales_memory_only(self):
        pb = ProgramBuilder()
        with pb.function("main", ["n"], kind="kernel") as f:
            with f.for_("i", 0, f.var("n")):
                f.mem_work(10)
            with f.for_("i", 0, f.var("n")):
                f.work(10)
        prog = pb.build(entry="main")
        base = profile_run(prog, {"n": 10}, full_plan(prog), contention_factor=1.0)
        slow = profile_run(prog, {"n": 10}, full_plan(prog), contention_factor=2.0)
        node_b = base.flat()["main"]
        node_s = slow.flat()["main"]
        assert node_s.time(2.0) - node_b.time(1.0) == pytest.approx(
            node_b.memory
        )

    def test_mpi_always_visible(self):
        pb = ProgramBuilder()
        with pb.function("main", []) as f:
            f.call("MPI_Barrier")
        prog = pb.build(entry="main")
        from repro.mpisim import MPIConfig, MPIRuntime

        prof = profile_run(
            prog, {}, none_plan(), runtime=MPIRuntime(MPIConfig(ranks=8))
        )
        assert "MPI_Barrier" in prof.visible_functions()

    def test_callpath_nodes(self):
        prog = sample_program()
        prof = profile_run(prog, {"n": 3}, full_plan(prog))
        paths = set(prof.nodes)
        assert ("main",) in paths
        assert ("main", "kernel") in paths
        assert ("main", "kernel", "tiny") in paths

    def test_loop_iterations_recorded(self):
        prog = sample_program()
        prof = profile_run(prog, {"n": 7}, full_plan(prog))
        assert prof.loop_iterations[("kernel", 0)] == 7


class TestDesigns:
    def test_full_factorial(self):
        configs = full_factorial({"a": [1, 2], "b": [3, 4, 5]})
        assert len(configs) == 6
        assert {"a": 1, "b": 3} in configs

    def test_full_factorial_empty_rejected(self):
        with pytest.raises(DesignError):
            full_factorial({})

    def test_one_at_a_time_size(self):
        configs = one_at_a_time({"a": [1, 2, 3], "b": [1, 5, 9]})
        # baseline + 2 extra per parameter = 5 (sum, not product)
        assert len(configs) == 5

    def test_one_at_a_time_holds_base(self):
        configs = one_at_a_time({"a": [1, 2, 3], "b": [1, 5, 9]})
        for cfg in configs:
            assert cfg["a"] == 1 or cfg["b"] == 1


class TestExperimentRunner:
    def make_workload(self):
        from repro.apps.synthetic import SyntheticWorkload, build_foo_example

        return SyntheticWorkload(
            builder=build_foo_example,
            parameters=("a", "b"),
            defaults={"a": 4, "b": 4},
        )

    def test_run_produces_repetitions(self):
        wl = self.make_workload()
        runner = ExperimentRunner(
            workload=wl,
            plan=full_plan(wl.program()),
            noise=NoNoise(),
            repetitions=4,
        )
        meas, profiles = runner.run([{"a": 2, "b": 3}, {"a": 5, "b": 3}])
        assert len(profiles) == 2
        assert len(meas.repetitions("foo", (2.0, 3.0))) == 4
        assert APP_KEY in meas.data

    def test_noise_free_repetitions_identical(self):
        wl = self.make_workload()
        runner = ExperimentRunner(
            workload=wl, plan=full_plan(wl.program()), noise=NoNoise()
        )
        meas, _ = runner.run([{"a": 3, "b": 1}])
        reps = meas.repetitions("foo", (3.0, 1.0))
        assert len(set(reps)) == 1

    def test_points_matrix_shape(self):
        wl = self.make_workload()
        runner = ExperimentRunner(
            workload=wl, plan=full_plan(wl.program()), noise=NoNoise()
        )
        meas, _ = runner.run(full_factorial({"a": [2, 4], "b": [1, 3]}))
        X, y = meas.points("foo")
        assert X.shape == (4, 2)
        assert y.shape == (4,)

    def test_cov_screen(self):
        wl = self.make_workload()
        runner = ExperimentRunner(
            workload=wl,
            plan=full_plan(wl.program()),
            noise=GaussianNoise(relative_sigma=0.01, absolute_sigma=1e7),
            repetitions=5,
        )
        meas, _ = runner.run([{"a": 3, "b": 1}])
        # enormous absolute noise -> everything unreliable
        assert meas.reliable_functions(0.1) == []

    def test_deterministic_across_runs(self):
        wl = self.make_workload()

        def run_once():
            runner = ExperimentRunner(
                workload=wl,
                plan=full_plan(wl.program()),
                noise=GaussianNoise(),
                seed=99,
            )
            meas, _ = runner.run([{"a": 3, "b": 2}])
            return meas.repetitions("foo", (3.0, 2.0))

        assert run_once() == run_once()
