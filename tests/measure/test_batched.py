"""Batched measurement layer: noise streams, runner identity, engines.

The headline invariant: the runner's ``Measurements`` on the batched
engine are bit-identical to the tree-walker's for every chunk width,
worker count, and engine — because the vectorized engine reproduces
per-lane profiles exactly and every noise sample's RNG stream depends
only on (seed, function, configuration, repetition).
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.codec import encode
from repro.apps.lulesh import LuleshWorkload
from repro.apps.synthetic import (
    SyntheticWorkload,
    build_additive_example,
    build_foo_example,
    build_multiplicative_example,
    make_scaling_workload,
)
import repro.measure.parallel as parallel_mod
from repro.core.stages import Campaign
from repro.errors import CampaignSpecError, MeasurementError, RegistryError
from repro.measure import (
    ExperimentRunner,
    GaussianNoise,
    NoNoise,
    full_factorial,
    full_plan,
    merge_results_dense,
    perturb_block,
    profile_run,
    profile_run_batch,
    rng_for,
    stream_seed,
)
from repro.measure.noise import _seedseq_words
from repro.mpisim.contention import (
    BandwidthSaturationContention,
    LogQuadraticContention,
)


def canonical(measurements) -> str:
    """Byte-exact canonical form of a measurements container."""
    return json.dumps(encode(measurements), sort_keys=True)


# ----------------------------------------------------------------------
# noise streams


class TestVectorizedNoiseStreams:
    def test_seedseq_words_match_numpy(self):
        """The vectorized SeedSequence mixing must reproduce numpy's
        ``generate_state(4, uint64)`` word-for-word across the seed
        range (including the 32/64-bit entropy-splitting boundaries)."""
        rng = random.Random(7)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1] + [
            rng.randrange(2**64) for _ in range(40)
        ]
        words = _seedseq_words(np.array(seeds, dtype=np.uint64))
        for i, seed in enumerate(seeds):
            ref = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert words[i].tolist() == ref.tolist()

    @pytest.mark.parametrize(
        "noise",
        [
            GaussianNoise(),
            GaussianNoise(0.1, 5.0),
            GaussianNoise(0.0, 0.0),
            # Finite sigmas whose products overflow: -inf + inf is NaN,
            # which the scalar max(0.0, x) turns into 0.0.
            GaussianNoise(1.7e308, 1.7e308),
        ],
        ids=["default", "small", "zero", "overflowing"],
    )
    @pytest.mark.parametrize("repetitions", [1, 3])
    def test_gaussian_block_matches_scalar_streams(self, noise, repetitions):
        """Property: ``perturb_block`` equals the scalar ``rng_for``
        reference element-for-element over random triples."""
        rng = random.Random(hash((repr(noise), repetitions)) & 0xFFFF)
        items = [
            (
                rng.choice(["main", "kernel", "MPI_Allreduce", "f#42"]),
                (float(rng.randint(1, 64)), float(rng.randint(1, 32))),
                rng.random() * 10.0 ** rng.randint(0, 6),
            )
            for _ in range(50)
        ]
        seed = rng.randint(0, 10_000)
        block = perturb_block(noise, seed, items, repetitions)
        reference = [
            [
                noise.perturb(base, rng_for(seed, function, key, rep))
                for rep in range(repetitions)
            ]
            for function, key, base in items
        ]
        assert block == reference

    def test_generic_noise_model_matches_scalar_streams(self):
        """Noise models outside the built-ins use the generic per-stream
        path — still bit-identical to the scalar derivation."""

        class Lognormal:
            def perturb(self, base, rng):
                return base * float(np.exp(rng.normal(0.0, 0.05)))

        noise = Lognormal()
        items = [("f", (2.0,), 10.0), ("g", (3.0,), 0.5), ("f", (4.0,), 7.0)]
        block = perturb_block(noise, 3, items, 4)
        reference = [
            [
                noise.perturb(base, rng_for(3, function, key, rep))
                for rep in range(4)
            ]
            for function, key, base in items
        ]
        assert block == reference

    def test_no_noise_short_circuits(self):
        items = [("f", (1.0,), 5.0), ("g", (2.0,), 0.25)]
        assert perturb_block(NoNoise(), 0, items, 3) == [
            [5.0, 5.0, 5.0],
            [0.25, 0.25, 0.25],
        ]

    def test_stream_seed_is_the_rng_for_seed(self):
        seed = stream_seed(5, "kernel", (2.0, 3.0), 1)
        a = np.random.default_rng(seed).standard_normal(3)
        b = rng_for(5, "kernel", (2.0, 3.0), 1).standard_normal(3)
        assert a.tolist() == b.tolist()


class TestNoiseParameters:
    """A noise or contention parameter reaches both the tree-walker's
    scalar arithmetic and the tensor pass's array arithmetic, so the
    models reject every value on which the two engines could disagree
    (a negative sigma measured on one and raised on the other; NaN
    recorded as NaN by one and 0.0 by the other)."""

    @pytest.mark.parametrize(
        "value", [-0.5, float("nan"), float("inf"), "x", True, None]
    )
    @pytest.mark.parametrize(
        "model, field",
        [
            (GaussianNoise, "relative_sigma"),
            (GaussianNoise, "absolute_sigma"),
            (LogQuadraticContention, "beta"),
        ],
    )
    def test_nonnegative_fields_checked(self, model, field, value):
        with pytest.raises(MeasurementError, match=f"{model.__name__}.{field}"):
            model(**{field: value})

    @pytest.mark.parametrize("value", [0, -1, 2.5, True, "4"])
    def test_saturation_ranks_checked(self, value):
        with pytest.raises(MeasurementError, match="saturation_ranks"):
            BandwidthSaturationContention(saturation_ranks=value)

    @pytest.mark.parametrize(
        "key, table, field",
        [
            ("noise", {"model": "gaussian", "relative_sigma": -0.5}, "relative_sigma"),
            ("noise", {"model": "gaussian", "relative_sigma": float("nan")}, "relative_sigma"),
            ("noise", {"model": "gaussian", "absolute_sigma": "x"}, "absolute_sigma"),
            ("contention", {"model": "logquad", "beta": "x"}, "beta"),
            ("contention", {"model": "bandwidth", "saturation_ranks": 0}, "saturation_ranks"),
        ],
    )
    def test_spec_error_names_model_and_field(self, key, table, field):
        spec = {
            "app": "synthetic",
            "parameters": {"p": [2, 4], "s": [3, 5]},
            "repetitions": 2,
            key: table,
        }
        with pytest.raises(CampaignSpecError) as err:
            Campaign.from_spec(spec)
        assert f"'{table['model']}'" in str(err.value)
        assert field in str(err.value)


# ----------------------------------------------------------------------
# merge helpers


class TestMergeDense:
    def test_matches_append_merge_on_unique_keys(self, serial_reference):
        """The dense merge equals growing the container sample by sample
        through :meth:`Measurements.add` (the reference's merge)."""
        workload = make_scaling_workload()
        plan = full_plan(workload.program())
        design = full_factorial({"p": [2.0, 3.0], "s": [4.0, 5.0]})
        runner = ExperimentRunner(workload=workload, plan=plan, repetitions=2)
        measurements, _ = runner.run(design)
        from repro.measure.experiment import run_configuration, config_key

        parameters = tuple(workload.parameters)
        results = [
            run_configuration(
                workload.program(),
                workload.setup(config),
                plan,
                runner.noise,
                runner.contention,
                runner.repetitions,
                runner.seed,
                config_key(parameters, config),
            )
            for config in design
        ]
        dense = merge_results_dense(parameters, results)
        appended = serial_reference(
            workload,
            design,
            plan,
            noise=runner.noise,
            contention=runner.contention,
            repetitions=runner.repetitions,
            seed=runner.seed,
        )
        assert canonical(dense[0]) == canonical(appended[0])
        assert set(dense[1]) == set(appended[1])
        assert canonical(dense[0]) == canonical(measurements)


# ----------------------------------------------------------------------
# profiles


class TestProfileRunBatch:
    def test_profiles_bit_identical_to_scalar(self):
        workload = LuleshWorkload(parameters=("p", "size"))
        plan = full_plan(workload.program())
        configs = [
            {"p": p, "size": s} for p in (8.0, 27.0) for s in (10.0, 14.0)
        ]
        setups = [workload.setup(c) for c in configs]
        batched = profile_run_batch(
            workload.program(),
            [s.args for s in setups],
            plan,
            runtimes=[s.runtime for s in setups],
            exec_config=setups[0].exec_config,
            entry=setups[0].entry,
        )
        for setup, profile in zip(setups, batched):
            scalar = profile_run(
                workload.program(),
                setup.args,
                plan,
                runtime=setup.runtime,
                exec_config=setup.exec_config,
                entry=setup.entry,
            )
            assert encode(profile) == encode(scalar)
            assert profile.total_time() == scalar.total_time()


# ----------------------------------------------------------------------
# the runner

BUILDERS = {
    "foo": (build_foo_example, ("a", "b")),
    "additive": (build_additive_example, ("p", "s")),
    "multiplicative": (build_multiplicative_example, ("p", "s")),
}


class TestSerialBatchedIdentity:
    @pytest.mark.parametrize("case", sorted(BUILDERS))
    def test_random_designs_bit_identical(self, case):
        """Property: tree-walker and batched runs agree on random designs."""
        builder, parameters = BUILDERS[case]
        rng = random.Random(hash(case) & 0xFFFF)
        workload = SyntheticWorkload(builder=builder, parameters=parameters)
        plan = full_plan(workload.program())
        design = full_factorial(
            {
                name: sorted(
                    float(v)
                    for v in rng.sample(range(2, 12), rng.randint(2, 3))
                )
                for name in parameters
            }
        )
        seed = rng.randint(0, 1000)
        reps = rng.randint(1, 4)

        serial = ExperimentRunner(
            workload=workload, plan=plan, repetitions=reps, seed=seed
        )
        m_serial, p_serial = serial.run(design)

        batched = ExperimentRunner(
            workload=workload,
            plan=plan,
            repetitions=reps,
            seed=seed,
            engine="vectorized",
        )
        m_batched, p_batched = batched.run(design)

        assert canonical(m_serial) == canonical(m_batched)
        assert set(p_serial) == set(p_batched)
        for key in p_serial:
            assert encode(p_serial[key]) == encode(
                p_batched[key]
            )
        assert batched.last_stats.executed == len(design)

    @pytest.mark.parametrize("batch_size", [1, 3, None])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_every_batch_size_and_worker_count(
        self, batch_size, n_jobs, monkeypatch, fixed_width_chunks
    ):
        """Serial ≡ batched for any (chunk width × worker count) split:
        the runner is driven through chunks of *batch_size* lanes
        (``None``: its own chunking), inline or on the process pool."""
        workload = make_scaling_workload()
        plan = full_plan(workload.program())
        design = full_factorial({"p": [2.0, 3.0, 4.0], "s": [4.0, 6.0]})
        kwargs = dict(workload=workload, plan=plan, repetitions=3, seed=11)
        m_serial, _ = ExperimentRunner(**kwargs).run(design)
        if batch_size is not None:
            monkeypatch.setattr(
                parallel_mod, "batch_chunks", fixed_width_chunks(batch_size)
            )
        runner = ExperimentRunner(
            **kwargs, engine="vectorized", n_jobs=n_jobs
        )
        m_batched, _ = runner.run(design)
        assert canonical(m_serial) == canonical(m_batched)

    def test_run_cache_round_trip(self, tmp_path):
        workload = make_scaling_workload()
        plan = full_plan(workload.program())
        design = full_factorial({"p": [2.0, 4.0], "s": [3.0, 5.0]})
        kwargs = dict(
            workload=workload,
            plan=plan,
            repetitions=2,
            seed=3,
            engine="vectorized",
            cache_dir=tmp_path / "cache",
        )
        cold = ExperimentRunner(**kwargs)
        m_cold, _ = cold.run(design)
        assert cold.last_stats.executed == len(design)
        warm = ExperimentRunner(**kwargs)
        m_warm, _ = warm.run(design)
        assert warm.last_stats.executed == 0
        assert warm.last_stats.cached == len(design)
        assert canonical(m_warm) == canonical(m_cold)

    def test_rejects_unknown_engine(self):
        """Every registered engine runs; an unknown name is a typed
        error naming the registered ones, before anything executes."""
        workload = make_scaling_workload()
        runner = ExperimentRunner(
            workload=workload,
            plan=full_plan(workload.program()),
            engine="nonsense",
        )
        with pytest.raises(RegistryError, match="tree, vectorized"):
            runner.run([{"p": 2.0, "s": 3.0}])

    def test_rejects_invalid_batch_size_and_jobs(self):
        """``batch_size`` is not a runner knob (chunks come from the
        engine's capability and ``n_jobs``); ``n_jobs`` must be >= 1."""
        workload = make_scaling_workload()
        plan = full_plan(workload.program())
        with pytest.raises(TypeError, match="batch_size"):
            ExperimentRunner(workload=workload, plan=plan, batch_size=0)
        with pytest.raises(ValueError):
            ExperimentRunner(workload=workload, plan=plan, n_jobs=0)


class TestMeasureStageRouting:
    def test_vectorized_engine_routes_to_batched_runner(self):
        """``run_measure_stage`` on a batch-capable engine produces
        measurements bit-identical to the scalar engine's, and reports
        lane accounting for both."""
        from repro.core.stages import run_measure_stage

        workload = make_scaling_workload()
        plan = full_plan(workload.program())
        design = full_factorial({"p": [2.0, 3.0], "s": [4.0, 5.0]})
        outputs = {}
        for engine in ("tree", "vectorized"):
            telemetry = {}
            outputs[engine] = run_measure_stage(
                workload,
                design,
                plan,
                noise=GaussianNoise(),
                contention=ExperimentRunner.__dataclass_fields__[
                    "contention"
                ].default_factory(),
                repetitions=3,
                seed=4,
                engine=engine,
                telemetry=telemetry,
            )
            assert telemetry["lanes"] == {
                "planned": 3 * len(design),
                "executed": len(design),
                "deduped": 2 * len(design),
            }
        assert canonical(outputs["tree"][0]) == canonical(
            outputs["vectorized"][0]
        )


class TestEnginesCli:
    def test_listing_shows_capability_flags(self, capsys):
        from repro.cli import main

        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        lines = {line.split()[0]: line for line in out.splitlines() if line}
        assert "supports_batch" in lines["vectorized"]
        assert "supports_batch" not in lines["tree"]

    def test_sweep_accepts_vectorized_engine(self, capsys):
        from repro.cli import main

        outputs = []
        for engine in ("tree", "vectorized"):
            assert (
                main(
                    [
                        "sweep",
                        "synthetic",
                        "--values",
                        "p=2,3",
                        "s=4,5",
                        "--engine",
                        engine,
                    ]
                )
                == 0
            )
            out = capsys.readouterr().out
            outputs.append(out[out.index("collected") :])
        assert outputs[0] == outputs[1]
