"""Lane planning and dedup over the (configuration x repetition) grid.

The dedup contract: lanes whose configuration identity is equal share
one representative engine lane, and the broadcast back to every
duplicate slot is bit-identical to running each slot as its own lane —
noise streams are still drawn per ``(function, key, repetition)``.
Repetitions are pure dedup gain (the engine already runs one lane per
configuration), so a sweep with R repetitions executes ~1/R of its
planned lane grid.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.synthetic import make_scaling_workload
from repro.interp.runtime import NoLibraryRuntime, TableRuntime
from repro.interp.vectorize import lane_signature, plan_unique_lanes
import repro.measure.parallel as parallel_mod
from repro.measure import (
    ExperimentRunner,
    GaussianNoise,
    LaneStats,
    batch_chunks,
    config_key,
    full_factorial,
    full_plan,
    measurements_to_dict,
    plan_lanes,
    profile_to_dict,
    run_batch_configurations,
)
from repro.measure.experiment import RunSetup
from repro.mpisim.contention import NoContention
from repro.mpisim.runtime import MPIConfig, MPIRuntime


def canonical(measurements) -> str:
    return json.dumps(measurements_to_dict(measurements), sort_keys=True)


def result_repr(result) -> tuple:
    return (
        result.key,
        profile_to_dict(result.profile),
        dict(result.calls),
        {name: list(values) for name, values in result.samples.items()},
    )


class TestLaneSignature:
    def test_equal_args_equal_signature(self):
        assert lane_signature({"p": 2.0, "s": 4.0}) == lane_signature(
            {"s": 4.0, "p": 2.0}
        )

    def test_value_types_distinguish(self):
        assert lane_signature({"p": 2}) != lane_signature({"p": 2.0})

    def test_opaque_argument_disables_dedup(self):
        assert lane_signature({"p": object()}) is None

    def test_none_argument_is_allowed(self):
        assert lane_signature({"p": None}) == lane_signature({"p": None})

    def test_no_library_runtime_is_stateless(self):
        a = lane_signature({"p": 1.0}, NoLibraryRuntime())
        b = lane_signature({"p": 1.0}, NoLibraryRuntime())
        assert a is not None and a == b

    def test_stateful_runtime_without_config_disables_dedup(self):
        assert lane_signature({"p": 1.0}, TableRuntime()) is None

    def test_runtime_config_participates(self):
        a = lane_signature({"p": 1.0}, MPIRuntime(config=MPIConfig(ranks=2)))
        b = lane_signature({"p": 1.0}, MPIRuntime(config=MPIConfig(ranks=2)))
        c = lane_signature({"p": 1.0}, MPIRuntime(config=MPIConfig(ranks=4)))
        assert a == b
        assert a != c


class TestPlanUniqueLanes:
    def test_duplicates_collapse(self):
        args = [{"p": 2.0}, {"p": 3.0}, {"p": 2.0}, {"p": 3.0}, {"p": 2.0}]
        representatives, slot_to_rep = plan_unique_lanes(args)
        assert representatives == [0, 1]
        assert slot_to_rep == [0, 1, 0, 1, 0]

    def test_opaque_lane_never_shared(self):
        blob = object()
        args = [{"p": blob}, {"p": blob}]
        representatives, slot_to_rep = plan_unique_lanes(args)
        assert representatives == [0, 1]
        assert slot_to_rep == [0, 1]


class TestPlanLanes:
    def _setups(self, configs):
        workload = make_scaling_workload()
        return [workload.setup(dict(c)) for c in configs]

    def test_repetitions_are_pure_dedup_gain(self):
        setups = self._setups([{"p": 2.0, "s": 4.0}, {"p": 3.0, "s": 4.0}])
        reps, slot_to_rep, stats = plan_lanes(setups, repetitions=5)
        assert reps == [0, 1]
        assert slot_to_rep == [0, 1]
        assert stats == LaneStats(planned=10, executed=2)
        assert stats.deduped == 8

    def test_repeated_design_points_share_a_lane(self):
        setups = self._setups(
            [{"p": 2.0, "s": 4.0}, {"p": 2.0, "s": 4.0}, {"p": 3.0, "s": 4.0}]
        )
        reps, slot_to_rep, stats = plan_lanes(setups, repetitions=1)
        assert reps == [0, 2]
        assert slot_to_rep == [0, 0, 1]
        assert stats.executed == 2

    def test_entry_and_exec_config_split_lanes(self):
        setups = self._setups([{"p": 2.0, "s": 4.0}, {"p": 2.0, "s": 4.0}])
        split = RunSetup(
            args=setups[1].args,
            runtime=setups[1].runtime,
            ranks_per_node=setups[1].ranks_per_node,
            exec_config=setups[1].exec_config,
            entry="other",
        )
        reps, slot_to_rep, _ = plan_lanes([setups[0], split])
        assert reps == [0, 1]
        assert slot_to_rep == [0, 1]


class TestDedupBitIdentity:
    def test_duplicated_setups_match_undeduped_run(self):
        """The broadcast of one representative lane to its duplicate
        slots == running every slot as its own one-lane batch, profile
        values and noise samples alike."""
        workload = make_scaling_workload()
        plan = full_plan(workload.program())
        configs = [
            {"p": 2.0, "s": 4.0},
            {"p": 3.0, "s": 6.0},
            {"p": 2.0, "s": 4.0},
            {"p": 2.0, "s": 4.0},
            {"p": 3.0, "s": 6.0},
        ]
        parameters = tuple(workload.parameters)
        setups = [workload.setup(c) for c in configs]
        keys = [config_key(parameters, c) for c in configs]

        def run(setups, keys):
            return run_batch_configurations(
                workload.program(),
                setups,
                keys,
                plan,
                GaussianNoise(),
                NoContention(),
                3,
                17,
            )

        broadcast = run(setups, keys)
        per_slot = [
            run([setup], [key])[0] for setup, key in zip(setups, keys)
        ]
        assert [result_repr(r) for r in broadcast] == [
            result_repr(r) for r in per_slot
        ]

    def test_runner_is_bit_identical_to_serial(self):
        workload = make_scaling_workload()
        plan = full_plan(workload.program())
        design = full_factorial({"p": [2.0, 3.0, 4.0], "s": [4.0, 6.0]})
        kwargs = dict(workload=workload, plan=plan, repetitions=4, seed=9)
        m_serial, _ = ExperimentRunner(**kwargs).run(design)
        runner = ExperimentRunner(**kwargs, engine="vectorized")
        m_batched, _ = runner.run(design)
        assert canonical(m_serial) == canonical(m_batched)

    def test_runner_lane_stats_count_the_grid(self):
        """Every engine reports lanes: one executed per configuration,
        repetitions deduplicated."""
        workload = make_scaling_workload()
        plan = full_plan(workload.program())
        design = full_factorial({"p": [2.0, 3.0, 4.0], "s": [4.0, 6.0]})
        for engine in ("tree", "vectorized"):
            runner = ExperimentRunner(
                workload=workload,
                plan=plan,
                repetitions=5,
                seed=9,
                engine=engine,
            )
            runner.run(design)
            stats = runner.last_lane_stats
            assert stats.planned == len(design) * 5
            assert stats.executed == len(design)
            assert stats.deduped == len(design) * 4

    def test_lane_stats_invariant_under_sharding(
        self, monkeypatch, fixed_width_chunks
    ):
        """Dedup is per chunk, but a unique design plans the same grid
        for every (chunk width, n_jobs) split."""
        workload = make_scaling_workload()
        plan = full_plan(workload.program())
        design = full_factorial({"p": [2.0, 3.0, 4.0], "s": [4.0, 6.0]})
        real_chunks = parallel_mod.batch_chunks
        plans = set()
        for width, n_jobs in [(None, 1), (2, 1), (None, 2), (1, 2)]:
            monkeypatch.setattr(
                parallel_mod,
                "batch_chunks",
                real_chunks if width is None else fixed_width_chunks(width),
            )
            runner = ExperimentRunner(
                workload=workload,
                plan=plan,
                repetitions=3,
                seed=1,
                engine="vectorized",
                n_jobs=n_jobs,
            )
            runner.run(design)
            plans.add(runner.last_lane_stats)
        assert plans == {LaneStats(planned=len(design) * 3, executed=len(design))}


# ----------------------------------------------------------------------
# batch_chunks properties


def _uniform_setups(n: int) -> list[RunSetup]:
    workload = make_scaling_workload()
    return [workload.setup({"p": float(i + 2), "s": 4.0}) for i in range(n)]


class TestBatchChunksProperties:
    @given(
        n=st.integers(min_value=0, max_value=40),
        n_jobs=st.one_of(st.none(), st.integers(1, 8)),
    )
    def test_partition_invariants(self, n, n_jobs):
        """Chunks are a partition: order-preserving, non-empty, complete."""
        setups = _uniform_setups(n)
        pending = list(range(n))
        chunks = batch_chunks(pending, setups, n_jobs)
        assert [i for chunk in chunks for i in chunk] == pending
        assert all(chunk for chunk in chunks)
        assert len(chunks) == min(n_jobs or 1, n)

    @given(n=st.integers(1, 40), n_jobs=st.integers(2, 8))
    def test_split_is_balanced(self, n, n_jobs):
        """Worker-hint splits differ by at most one lane and produce one
        chunk per worker (up to the group size) — no idle worker on an
        uneven split."""
        setups = _uniform_setups(n)
        chunks = batch_chunks(list(range(n)), setups, n_jobs)
        assert len(chunks) == min(n_jobs, n)
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_empty_design(self):
        assert batch_chunks([], [], 4) == []

    def test_single_lane_groups(self):
        setups = _uniform_setups(1)
        assert batch_chunks([0], setups, 8) == [[0]]

    @pytest.mark.parametrize("n_jobs", [None, 1])
    def test_no_worker_hint_keeps_groups_whole(self, n_jobs):
        setups = _uniform_setups(5)
        assert batch_chunks(list(range(5)), setups, n_jobs) == [
            [0, 1, 2, 3, 4]
        ]

    def test_uneven_split_has_no_short_chunk_count(self):
        """5 lanes over 4 workers must be 4 chunks [2,1,1,1] — the old
        ceil-division split produced only 3 chunks and idled a worker."""
        setups = _uniform_setups(5)
        chunks = batch_chunks(list(range(5)), setups, 4)
        assert [len(c) for c in chunks] == [2, 1, 1, 1]

    def test_groups_split_on_entry_boundaries(self):
        setups = _uniform_setups(4)
        setups[2] = RunSetup(
            args=setups[2].args,
            runtime=setups[2].runtime,
            ranks_per_node=setups[2].ranks_per_node,
            exec_config=setups[2].exec_config,
            entry="other",
        )
        chunks = batch_chunks(list(range(4)), setups, 1)
        assert chunks == [[0, 1], [2], [3]]
