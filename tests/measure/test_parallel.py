"""The measure runner: determinism, caching, specs, shared state.

The headline invariant under test: serial and parallel runs of the same
design produce bit-identical ``Measurements`` regardless of engine,
worker count, submission order, or completion order, because every
noise sample's RNG stream is derived purely from (seed, function,
configuration, repetition) and results are merged in canonical design
order.  The runner is checked against an independent oracle
(``serial_reference``: ``run_configuration`` per unique configuration on
the tree-walker, merged sample by sample).
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import random

import pytest

import repro.measure.experiment as experiment_mod
from repro.apps.lulesh import LuleshWorkload
from repro.apps.synthetic import (
    SyntheticWorkload,
    build_additive_example,
    build_foo_example,
    build_multiplicative_example,
    make_scaling_workload,
)
from repro.codec import decode, encode
from repro.errors import DesignError
from repro.interp.config import DEFAULT_CONFIG
from repro.libdb import MPI_DATABASE
from repro.measure import (
    ExperimentRunner,
    GaussianNoise,
    WorkloadSpec,
    full_factorial,
    full_plan,
    spec_of,
)
from repro.measure.experiment import ConfigRunResult
from repro.measure.parallel import _ChunkTask, _run_chunk_task
from repro.measure.profiler import ProfileResult
from repro.mpisim.contention import LogQuadraticContention, NoContention
from repro.mpisim.network import DEFAULT_NETWORK
from repro.store import RUNS_NAMESPACE, LocalStore


def canonical(measurements) -> str:
    """Byte-exact canonical form of a measurements container."""
    return json.dumps(encode(measurements), sort_keys=True)


BUILDERS = {
    "foo": (build_foo_example, ("a", "b")),
    "additive": (build_additive_example, ("p", "s")),
    "multiplicative": (build_multiplicative_example, ("p", "s")),
}


def random_design(parameters, rng):
    values = {
        name: sorted(
            rng.sample(range(2, 12), rng.randint(1, 3))
        )
        for name in parameters
    }
    return {k: [float(v) for v in vs] for k, vs in values.items()}


class TestSerialParallelIdentity:
    @pytest.mark.parametrize("case", sorted(BUILDERS))
    @pytest.mark.parametrize("trial", [0, 1])
    def test_random_designs_bit_identical(self, case, trial, serial_reference):
        """Property: the oracle, inline runs and pooled runs agree on
        random designs."""
        builder, parameters = BUILDERS[case]
        rng = random.Random(hash((case, trial)) & 0xFFFF)
        workload = SyntheticWorkload(builder=builder, parameters=parameters)
        plan = full_plan(workload.program())
        design = full_factorial(random_design(parameters, rng))
        seed = rng.randint(0, 1000)
        reps = rng.randint(1, 4)

        m_reference, p_reference = serial_reference(
            workload,
            design,
            plan,
            noise=GaussianNoise(),
            contention=NoContention(),
            repetitions=reps,
            seed=seed,
        )
        serial = ExperimentRunner(
            workload=workload, plan=plan, repetitions=reps, seed=seed
        )
        m_serial, p_serial = serial.run(design)

        parallel = ExperimentRunner(
            workload=workload, plan=plan, repetitions=reps, seed=seed,
            n_jobs=2,
        )
        m_parallel, p_parallel = parallel.run(design)

        assert canonical(m_reference) == canonical(m_serial)
        assert canonical(m_serial) == canonical(m_parallel)
        assert set(p_reference) == set(p_serial) == set(p_parallel)
        assert parallel.last_stats.executed == len(design)

    def test_design_order_independent_per_key(self):
        """Each configuration's repetition stream is order-independent."""
        workload = make_scaling_workload()
        plan = full_plan(workload.program())
        design = full_factorial({"p": [2.0, 3.0], "s": [4.0, 5.0]})
        runner = ExperimentRunner(
            workload=workload, plan=plan, repetitions=3, seed=9
        )
        m_fwd, _ = runner.run(design)
        m_rev, _ = runner.run(list(reversed(design)))
        for fn, per_key in m_fwd.data.items():
            for key, values in per_key.items():
                assert m_rev.data[fn][key] == values

    def test_contention_and_repetitions_survive_pool(self):
        workload = make_scaling_workload()
        plan = full_plan(workload.program())
        design = [{"p": 2.0, "s": 4.0}]
        kwargs = dict(
            workload=workload, plan=plan, repetitions=4, seed=5,
            contention=LogQuadraticContention(beta=0.1),
        )
        m1, _ = ExperimentRunner(**kwargs).run(design)
        m2, _ = ExperimentRunner(**kwargs, n_jobs=2).run(design)
        assert canonical(m1) == canonical(m2)

    def test_rejects_nonpositive_jobs(self):
        workload = make_scaling_workload()
        with pytest.raises(ValueError):
            ExperimentRunner(
                workload=workload,
                plan=full_plan(workload.program()),
                n_jobs=0,
            )


#: A design with a repeated point: (2, 3) appears twice.
REPEATED_DESIGN = [{"p": 2, "s": 3}, {"p": 2, "s": 3}, {"p": 4, "s": 3}]


def assert_measured_once(result, reference, repetitions):
    """*result* equals the oracle's measurements and profiles, with
    *repetitions* samples per (function, key): each point measured once."""
    (measurements, profiles), (m_ref, p_ref) = result, reference
    assert canonical(measurements) == canonical(m_ref)
    assert {k: encode(v) for k, v in profiles.items()} == {
        k: encode(v) for k, v in p_ref.items()
    }
    assert measurements.configs() == [(2.0, 3.0), (4.0, 3.0)]
    for per_key in measurements.data.values():
        assert {len(v) for v in per_key.values()} == {repetitions}


class TestRepeatedDesignPoint:
    """A repeated design point is measured once, at its first occurrence,
    by every engine and worker count, with or without a run cache."""

    REPETITIONS = 3

    def _reference(self, workload, serial_reference):
        return serial_reference(
            workload,
            REPEATED_DESIGN,
            full_plan(workload.program()),
            noise=GaussianNoise(),
            contention=NoContention(),
            repetitions=self.REPETITIONS,
            seed=5,
        )

    def _runner(self, workload, **kw):
        return ExperimentRunner(
            workload=workload,
            plan=full_plan(workload.program()),
            repetitions=self.REPETITIONS,
            seed=5,
            **kw,
        )

    @pytest.mark.parametrize("engine", ["tree", "vectorized"])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_every_engine_and_worker_count(
        self, engine, n_jobs, serial_reference
    ):
        workload = make_scaling_workload()
        runner = self._runner(workload, engine=engine, n_jobs=n_jobs)
        assert_measured_once(
            runner.run(REPEATED_DESIGN),
            self._reference(workload, serial_reference),
            self.REPETITIONS,
        )
        assert runner.last_stats.executed == 2
        assert runner.last_lane_stats.executed == 2

    @pytest.mark.parametrize("engine", ["tree", "vectorized"])
    def test_with_a_run_cache(self, engine, tmp_path, serial_reference):
        workload = make_scaling_workload()
        reference = self._reference(workload, serial_reference)
        for executed in (2, 0):
            runner = self._runner(
                workload, engine=engine, cache_dir=tmp_path / "c"
            )
            assert_measured_once(
                runner.run(REPEATED_DESIGN), reference, self.REPETITIONS
            )
            assert runner.last_stats.executed == executed
            assert runner.last_stats.cached == 2 - executed


class TestRunCache:
    def _runner(self, cache_dir, n_jobs=1, seed=2):
        workload = make_scaling_workload()
        return ExperimentRunner(
            workload=workload,
            plan=full_plan(workload.program()),
            repetitions=3,
            seed=seed,
            n_jobs=n_jobs,
            cache_dir=cache_dir,
        )

    def test_second_run_zero_profile_executions(self, tmp_path, monkeypatch):
        design = full_factorial({"p": [2.0, 4.0], "s": [3.0, 5.0]})
        first = self._runner(tmp_path / "cache")
        m_first, _ = first.run(design)
        assert first.last_stats.executed == len(design)

        # Count actual profile executions underneath the second run.
        calls = {"n": 0}
        real = experiment_mod.profile_run

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment_mod, "profile_run", counting)
        second = self._runner(tmp_path / "cache")
        m_second, _ = second.run(design)
        assert calls["n"] == 0
        assert second.last_stats.executed == 0
        assert second.last_stats.cached == len(design)
        assert canonical(m_second) == canonical(m_first)

    def test_cache_serves_parallel_runs(self, tmp_path):
        design = full_factorial({"p": [2.0, 4.0], "s": [3.0, 5.0]})
        m_cold, _ = self._runner(tmp_path / "c", n_jobs=2).run(design)
        warm = self._runner(tmp_path / "c", n_jobs=2)
        m_warm, _ = warm.run(design)
        assert warm.last_stats.executed == 0
        assert canonical(m_warm) == canonical(m_cold)

    def test_differing_seed_misses(self, tmp_path):
        design = [{"p": 2.0, "s": 3.0}]
        self._runner(tmp_path / "c", seed=1).run(design)
        other = self._runner(tmp_path / "c", seed=2)
        other.run(design)
        assert other.last_stats.executed == 1

    def test_differing_plan_misses(self, tmp_path):
        workload = make_scaling_workload()
        design = [{"p": 2.0, "s": 3.0}]
        a = ExperimentRunner(
            workload=workload, plan=full_plan(workload.program()),
            repetitions=2, cache_dir=tmp_path / "c",
        )
        a.run(design)
        narrowed = dataclasses.replace(
            full_plan(workload.program()), functions=frozenset({"kernel"})
        )
        b = ExperimentRunner(
            workload=workload, plan=narrowed,
            repetitions=2, cache_dir=tmp_path / "c",
        )
        b.run(design)
        assert b.last_stats.executed == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        design = [{"p": 2.0, "s": 3.0}]
        runner = self._runner(tmp_path / "c")
        runner.run(design)
        entries = list((tmp_path / "c" / RUNS_NAMESPACE).glob("*.json"))
        assert entries  # a layout change must fail here, not pass vacuously
        for entry in entries:
            entry.write_text("{not json")
        again = self._runner(tmp_path / "c")
        again.run(design)
        assert again.last_stats.executed == 1

    def test_run_result_json_round_trip(self, tmp_path):
        workload = make_scaling_workload()
        parameters = tuple(workload.parameters)
        setup = workload.setup({"p": 2.0, "s": 3.0})
        result = experiment_mod.run_configuration(
            workload.program(), setup, full_plan(workload.program()),
            ExperimentRunner.__dataclass_fields__["noise"].default_factory(),
            LogQuadraticContention(), 3, 0, (2.0, 3.0),
        )
        back = decode(ConfigRunResult, encode(result))
        assert back.key == result.key
        assert back.samples == result.samples
        assert back.calls == result.calls
        assert encode(back.profile) == encode(result.profile)
        assert encode(
            decode(ProfileResult, encode(result.profile))
        ) == encode(result.profile)

    def test_cache_len_and_contains(self, tmp_path):
        store = LocalStore(tmp_path / "c")
        assert len(store) == 0
        assert not store.has(RUNS_NAMESPACE, "deadbeef")
        self._runner(tmp_path / "c").run([{"p": 2.0, "s": 3.0}])
        (key,) = store.keys(RUNS_NAMESPACE)
        assert len(store) == 1 and store.has(RUNS_NAMESPACE, key)


class TestWorkloadSpec:
    def test_synthetic_spec_round_trip(self):
        workload = make_scaling_workload()
        spec = workload.spec()
        rebuilt = pickle.loads(pickle.dumps(spec)).build()
        assert rebuilt.name == workload.name
        assert rebuilt.parameters == workload.parameters

    def test_lulesh_spec_round_trip(self):
        workload = LuleshWorkload(parameters=("p",))
        rebuilt = pickle.loads(pickle.dumps(workload.spec())).build()
        assert rebuilt.parameters == ("p",)
        assert canonical_program(rebuilt) == canonical_program(workload)

    def test_spec_of_falls_back_to_pickling(self):
        class Plain:
            name = "plain"
            parameters = ("x",)

        spec = spec_of(Plain())
        assert isinstance(spec, WorkloadSpec)
        assert spec.build().name == "plain"

    def test_worker_task_round_trip(self):
        """The pool entry point runs standalone on a pickled chunk task,
        for a scalar and a batch engine alike."""
        workload = make_scaling_workload()
        plan = full_plan(workload.program())
        for engine in ("tree", "vectorized"):
            task = _ChunkTask(
                indices=(0, 1),
                spec_blob=pickle.dumps(workload.spec()),
                configs=((("p", 2.0), ("s", 3.0)), (("p", 4.0), ("s", 3.0))),
                keys=((2.0, 3.0), (4.0, 3.0)),
                plan=plan,
                noise=GaussianNoise(),
                contention=NoContention(),
                repetitions=2,
                seed=0,
                engine=engine,
            )
            indices, results = _run_chunk_task(
                pickle.loads(pickle.dumps(task))
            )
            assert indices == (0, 1)
            assert [r.key for r in results] == [(2.0, 3.0), (4.0, 3.0)]
            assert all(len(r.samples) > 0 for r in results)


def canonical_program(workload) -> str:
    from repro.ir.printer import format_program

    return format_program(workload.program())


class TestSharedStateAudit:
    """A run must never mutate state observed by a concurrent run."""

    def test_shared_defaults_are_immutable(self):
        for instance in (DEFAULT_CONFIG, DEFAULT_NETWORK):
            field = dataclasses.fields(instance)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, field, 123)

    def test_pipeline_library_is_not_shared(self):
        from repro.core.pipeline import PerfTaintPipeline
        from repro.libdb.database import LibraryEntry

        a = PerfTaintPipeline(workload=make_scaling_workload())
        b = PerfTaintPipeline(workload=make_scaling_workload())
        assert a.library is not b.library
        assert a.library is not MPI_DATABASE
        a.library.register(LibraryEntry(name="Fake_routine"))
        assert not b.library.handles("Fake_routine")
        assert not MPI_DATABASE.handles("Fake_routine")

    def test_library_copy_decouples(self):
        copied = MPI_DATABASE.copy()
        assert copied.entries == MPI_DATABASE.entries
        assert copied.entries is not MPI_DATABASE.entries

    def test_runner_defaults_are_per_instance(self):
        workload = make_scaling_workload()
        plan = full_plan(workload.program())
        a = ExperimentRunner(workload=workload, plan=plan)
        b = ExperimentRunner(workload=workload, plan=plan)
        assert a.noise is not b.noise
        assert a.contention is not b.contention


class TestDesignValidation:
    def test_full_factorial_empty_value_list_names_parameter(self):
        with pytest.raises(DesignError, match="'size'"):
            full_factorial({"p": [1.0, 2.0], "size": []})

    def test_one_at_a_time_empty_value_list_names_parameter(self):
        from repro.measure import one_at_a_time

        with pytest.raises(DesignError, match="'p'"):
            one_at_a_time({"p": [], "size": [1.0]})
