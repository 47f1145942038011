"""Campaign API tests: equivalence, artifact round trips, resume.

Extends the run-cache patterns of ``tests/measure/test_engine_cache.py``
one level up: stage artifacts must round-trip bit-identically through
JSON, and a resumed campaign must perform **zero** profile executions for
unchanged stages.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.apps.lulesh import LuleshWorkload
from repro.apps.synthetic import SyntheticWorkload, build_additive_example, make_scaling_workload
from repro.codec import encode
from repro.core.pipeline import PerfTaintPipeline
from repro.core.stages import STAGES, Campaign
from repro.errors import CampaignSpecError, RegistryError
from repro.interp import DEFAULT_MEASUREMENT_ENGINE
from repro.measure.noise import GaussianNoise, NoNoise
from repro.modeling import Modeler
from repro.registry import MODEL_BACKEND_REGISTRY
from repro.store import STAGE_NAMESPACE, LocalStore, stage_key

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"

SYNTH_VALUES = {"p": [2.0, 4.0], "s": [3.0, 5.0]}


def result_canon(result) -> str:
    """Canonical JSON of a full PerfTaintResult, for equality checks."""
    return json.dumps(
        {
            "static": encode(result.static),
            "taint": encode(result.taint),
            "volumes": encode(result.volumes),
            "dependencies": encode(result.dependencies),
            "classification": encode(result.classification),
            "design": encode(result.design),
            "plan": encode(result.plan),
            "measurements": encode(result.measurements),
            "profiles": [
                [list(key), encode(profile)]
                for key, profile in sorted(result.profiles.items())
            ],
            "models": STAGES["model"].to_payload(result.models),
            "findings": STAGES["validate"].to_payload(result.contention_findings),
        },
        sort_keys=True,
    )


def synthetic_campaign(**overrides) -> Campaign:
    defaults = dict(
        workload=make_scaling_workload(("p", "s")),
        parameter_values=SYNTH_VALUES,
        repetitions=2,
        seed=7,
    )
    defaults.update(overrides)
    return Campaign(**defaults)


class TestPipelineCampaignEquivalence:
    def test_synthetic_identical_results(self):
        campaign = synthetic_campaign()
        pipeline = PerfTaintPipeline(
            workload=make_scaling_workload(("p", "s")),
            repetitions=2,
            seed=7,
        )
        assert result_canon(campaign.run()) == result_canon(
            pipeline.run(SYNTH_VALUES)
        )

    def test_lulesh_identical_results(self):
        values = {"p": [27.0, 64.0], "size": [6.0, 9.0]}
        campaign = Campaign(
            workload=LuleshWorkload(parameters=("p", "size")),
            parameter_values=values,
            repetitions=2,
            seed=3,
            compare_black_box=True,
        )
        pipeline = PerfTaintPipeline(
            workload=LuleshWorkload(parameters=("p", "size")),
            repetitions=2,
            seed=3,
        )
        assert result_canon(campaign.run()) == result_canon(
            pipeline.run(values, compare_black_box=True)
        )

    def test_additive_workload_via_campaign(self):
        wl = SyntheticWorkload(
            builder=build_additive_example,
            parameters=("p", "s"),
            defaults={"p": 4, "s": 4},
            name="additive",
        )
        campaign = Campaign(
            workload=wl,
            parameter_values={"p": [2, 4, 8], "s": [2, 4, 8]},
            repetitions=3,
            seed=2,
            noise=NoNoise(),
            cov_threshold=None,
        )
        result = campaign.run()
        assert result.design.strategy.startswith("one-at-a-time")
        assert "foo" in result.models


class TestArtifactRoundTrips:
    @pytest.fixture(scope="class")
    def ran(self):
        campaign = synthetic_campaign()
        campaign.run()
        return campaign

    @pytest.mark.parametrize("stage_name", list(STAGES))
    def test_stage_payload_round_trips_bit_identically(self, ran, stage_name):
        stage = STAGES[stage_name]
        value = ran.artifacts[stage_name]
        payload = stage.to_payload(value)
        text = json.dumps(payload, sort_keys=True)
        reloaded = stage.from_payload(json.loads(text))
        assert (
            json.dumps(stage.to_payload(reloaded), sort_keys=True) == text
        )

    def test_payloads_are_pure_json(self, ran):
        for name, stage in STAGES.items():
            json.dumps(stage.to_payload(ran.artifacts[name]))


class TestWorkspaceResume:
    def _count_profiles(self, monkeypatch):
        from repro.measure import experiment

        counter = {"runs": 0}
        original = experiment.profile_run

        def counting(*args, **kwargs):
            counter["runs"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, "profile_run", counting)
        return counter

    def test_second_run_resumes_everything(self, tmp_path, monkeypatch):
        first = synthetic_campaign(workspace=tmp_path / "ws")
        result_first = first.run()
        assert set(first.computed_stages) == set(STAGES)
        assert first.resumed_stages == ()

        counter = self._count_profiles(monkeypatch)
        second = synthetic_campaign(workspace=tmp_path / "ws")
        result_second = second.run()
        assert set(second.resumed_stages) == set(STAGES)
        assert second.computed_stages == ()
        # Zero profile executions on a full resume...
        assert counter["runs"] == 0
        # ...and the loaded artifacts reproduce the results bit-for-bit.
        assert result_canon(result_first) == result_canon(result_second)

    def test_modeling_change_reuses_measurements(self, tmp_path, monkeypatch):
        ws = tmp_path / "ws"
        synthetic_campaign(workspace=ws).run()

        counter = self._count_profiles(monkeypatch)
        refit = synthetic_campaign(workspace=ws, cov_threshold=None)
        refit.run()
        # Analysis through measurement resumes; only modeling re-runs.
        assert set(refit.resumed_stages) == {
            "static", "taint", "volumes", "classify",
            "design", "plan", "measure",
        }
        assert set(refit.computed_stages) == {"model", "validate"}
        assert counter["runs"] == 0

    def test_measurement_change_invalidates_downstream(self, tmp_path):
        ws = tmp_path / "ws"
        synthetic_campaign(workspace=ws).run()
        rerun = synthetic_campaign(workspace=ws, seed=8)
        rerun.run()
        assert set(rerun.computed_stages) == {
            "measure", "model", "validate",
        }

    def test_noise_model_participates_in_fingerprints(self, tmp_path):
        ws = tmp_path / "ws"
        synthetic_campaign(workspace=ws).run()
        rerun = synthetic_campaign(
            workspace=ws, noise=GaussianNoise(relative_sigma=0.05)
        )
        rerun.run()
        assert "measure" in rerun.computed_stages

    def test_corrupt_artifact_recomputes(self, tmp_path):
        ws = tmp_path / "ws"
        first = synthetic_campaign(workspace=ws)
        first.run()
        paths = list((ws / STAGE_NAMESPACE).glob("measure-*.json"))
        assert paths  # a layout change must fail here, not pass vacuously
        for path in paths:
            path.write_text("{not json")
        second = synthetic_campaign(workspace=ws)
        result = second.run()
        assert "measure" in second.computed_stages
        assert result_canon(result) == result_canon(first.result())
        # Quarantined aside, as on a server, not re-read as a miss forever.
        quarantined = list((ws / LocalStore.CORRUPT_DIR).iterdir())
        assert len(quarantined) == len(paths)

    def test_undecodable_stage_payload_recomputes(self, tmp_path):
        # A valid store entry whose payload the stage cannot decode is a
        # miss: the stage recomputes and overwrites the entry.
        ws = tmp_path / "ws"
        first = synthetic_campaign(workspace=ws)
        first.run()
        store = LocalStore(ws)
        key = stage_key("design", first.fingerprints["design"])
        store.put(STAGE_NAMESPACE, key, {"bogus": 1})
        second = synthetic_campaign(workspace=ws)
        result = second.run()
        assert second.computed_stages == ("design",)
        assert result_canon(result) == result_canon(first.result())
        rewritten = STAGES["design"].from_payload(
            store.get(STAGE_NAMESPACE, key)
        )
        assert encode(rewritten) == encode(
            first.artifacts["design"]
        )

    def test_jobs_count_does_not_change_fingerprints(self, tmp_path):
        ws = tmp_path / "ws"
        synthetic_campaign(workspace=ws).run()
        rerun = synthetic_campaign(workspace=ws, n_jobs=2)
        rerun.run()
        assert set(rerun.resumed_stages) == set(STAGES)


class TestFingerprintDeterminism:
    def test_library_fingerprint_order_and_process_independent(self):
        from repro.libdb.database import LibraryDatabase, LibraryEntry

        entries = [
            LibraryEntry(
                "Lib_A",
                implicit_params=frozenset({"p", "size", "rank"}),
                source_params=frozenset({"size", "p"}),
            ),
            LibraryEntry("Lib_B", count_args=(0, 2)),
        ]
        forward, backward = LibraryDatabase(), LibraryDatabase()
        for entry in entries:
            forward.register(entry)
        for entry in reversed(entries):
            backward.register(entry)
        assert forward.fingerprint() == backward.fingerprint()
        # No raw set reprs: their element order follows per-process hash
        # randomization, which would break cross-process resume.
        assert "frozenset" not in forward.fingerprint()

    def test_library_fingerprint_stable_across_hash_seeds(self):
        import os
        import subprocess
        import sys

        snippet = (
            "from repro.libdb.database import LibraryDatabase, LibraryEntry\n"
            "db = LibraryDatabase()\n"
            "db.register(LibraryEntry('X',"
            " implicit_params=frozenset({'p','size','rank','n'})))\n"
            "print(db.fingerprint())\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", snippet],
                # The caller's environment rides along (notably
                # PYTHONDONTWRITEBYTECODE, so the child writes no
                # bytecode caches into src/).
                env={
                    **os.environ,
                    "PYTHONPATH": "src",
                    "PYTHONHASHSEED": seed,
                },
                capture_output=True,
                text=True,
                cwd=EXAMPLES.parent,
                check=True,
            ).stdout
            for seed in ("0", "1", "424242")
        }
        assert len(outputs) == 1

    def test_component_override_invalidates_fingerprint(self, tmp_path):
        """Re-registering a strategy name must not resume artifacts the
        previous implementation produced."""
        from repro.registry import DESIGN_REGISTRY, register_design
        from repro.core.experiment_design import full_factorial_design

        ws = tmp_path / "ws"
        synthetic_campaign(workspace=ws).run()
        original = DESIGN_REGISTRY.get("reduced")

        def custom_reduced(values, taint, deps, program_volume):
            return full_factorial_design(values, taint, deps, program_volume)

        register_design("reduced")(custom_reduced)
        try:
            rerun = synthetic_campaign(workspace=ws)
            rerun.run()
            assert "design" in rerun.computed_stages
            assert rerun.artifacts["design"].strategy == "full-factorial"
        finally:
            register_design("reduced")(original)

    def test_pipeline_campaign_shares_program_memo(self):
        pipeline = PerfTaintPipeline(
            workload=make_scaling_workload(("p", "s")), repetitions=2
        )
        campaign = pipeline.campaign(SYNTH_VALUES)
        assert campaign.program() is pipeline.program()


class TestCampaignSpec:
    def base_spec(self) -> dict:
        return {
            "app": "synthetic",
            "parameters": {"p": [2, 4], "s": [3, 5]},
            "repetitions": 2,
            "seed": 7,
        }

    def test_from_spec_equivalent_to_constructor(self):
        from_spec = Campaign.from_spec(self.base_spec())
        constructed = synthetic_campaign()
        assert result_canon(from_spec.run()) == result_canon(
            constructed.run()
        )

    def test_spec_defaults(self):
        campaign = Campaign.from_spec(self.base_spec())
        assert campaign.design_strategy == "reduced"
        assert campaign.engine == DEFAULT_MEASUREMENT_ENGINE
        assert campaign.n_jobs == 1
        assert campaign.cov_threshold == 0.1

    def test_noise_and_contention_tables(self):
        spec = self.base_spec()
        spec["noise"] = {"model": "gaussian", "relative_sigma": 0.05}
        spec["contention"] = {"model": "logquad", "beta": 0.1}
        campaign = Campaign.from_spec(spec)
        assert campaign.noise.relative_sigma == 0.05
        assert campaign.contention.beta == 0.1

    def test_cov_threshold_none_string(self):
        spec = self.base_spec()
        spec["cov_threshold"] = "none"
        assert Campaign.from_spec(spec).cov_threshold is None

    def test_unknown_key_rejected(self):
        spec = self.base_spec()
        spec["typo_key"] = 1
        with pytest.raises(CampaignSpecError) as err:
            Campaign.from_spec(spec)
        assert "typo_key" in str(err.value)

    def test_unknown_app_lists_registered(self):
        spec = self.base_spec()
        spec["app"] = "notanapp"
        with pytest.raises(RegistryError) as err:
            Campaign.from_spec(spec)
        assert "lulesh" in str(err.value)
        assert "synthetic" in str(err.value)

    def test_missing_parameters_rejected(self):
        with pytest.raises(CampaignSpecError):
            Campaign.from_spec({"app": "synthetic"})

    def test_non_numeric_values_rejected(self):
        spec = self.base_spec()
        spec["parameters"] = {"p": ["big"]}
        with pytest.raises(CampaignSpecError):
            Campaign.from_spec(spec)

    def test_unknown_component_names_rejected(self):
        for key, value in (
            ("noise", "fancy"),
            ("contention", "fancy"),
            ("engine", "fancy"),
            ("design", "fancy"),
            ("mode", "fancy"),
        ):
            spec = self.base_spec()
            spec[key] = value
            with pytest.raises((CampaignSpecError, RegistryError)):
                Campaign.from_spec(spec)

    def test_non_integer_scalars_typed_error(self):
        for key, value in (
            ("repetitions", "three"),
            ("repetitions", 0),
            ("jobs", True),
            ("seed", [1]),
            ("cov_threshold", [0.1]),
        ):
            spec = self.base_spec()
            spec[key] = value
            with pytest.raises(CampaignSpecError) as err:
                Campaign.from_spec(spec)
            assert key in str(err.value)

    @pytest.mark.parametrize(
        "patch",
        [
            {"noise": {"model": "gaussian", "relative_sigma": "x"}},
            {"contention": {"model": "logquad", "beta": "x"}},
            {"cache_dir": 5},
            {"cache_dir": ""},
            {"workspace": [1]},
            {"parameters": {"p": [float("inf"), 2], "s": [3, 5]}},
            {"parameters": {"p": [float("nan")], "s": [3, 5]}},
            {"parameters": {"p": [True, 4], "s": [3, 5]}},
            {"parameters": {"p": ["2", 4], "s": [3, 5]}},
            {"parameters": {"p": [0, 4], "s": [3, 5]}},
            {"parameters": {"q": [1]}},
            {"compare_black_box": "no"},
            {"repetitions": 2.5},
            {"repetitions": float("nan")},
            {"seed": 1.7},
            {"cov_threshold": float("nan")},
            {"cov_threshold": -0.1},
            {"engine": 5},
            {"design": ["reduced"]},
        ],
        ids=lambda patch: repr(patch),
    )
    def test_junk_values_are_spec_errors(self, patch):
        """Each of these ran with a silently coerced value, or failed
        mid-run with a bare TypeError/KeyError/OverflowError/ValueError;
        all are now typed errors before any stage runs."""
        spec = self.base_spec()
        spec.update(patch)
        with pytest.raises(CampaignSpecError) as err:
            Campaign.from_spec(spec)
        assert "\n" not in str(err.value)

    def test_integral_float_accepted(self):
        spec = self.base_spec()
        spec.update(repetitions=2.0, seed=7.0)
        campaign = Campaign.from_spec(spec)
        assert (campaign.repetitions, campaign.seed) == (2, 7)
        assert type(campaign.repetitions) is int

    def test_bad_component_arguments_rejected(self):
        spec = self.base_spec()
        spec["noise"] = {"model": "gaussian", "sigma_typo": 1.0}
        with pytest.raises(CampaignSpecError) as err:
            Campaign.from_spec(spec)
        assert "gaussian" in str(err.value)

    def test_example_spec_file_runs(self, tmp_path):
        campaign = Campaign.from_toml(
            EXAMPLES / "synthetic_campaign.toml",
            workspace=tmp_path / "ws",
        )
        result = campaign.run()
        assert result.models
        again = Campaign.from_toml(
            EXAMPLES / "synthetic_campaign.toml",
            workspace=tmp_path / "ws",
        )
        again.run()
        assert set(again.resumed_stages) == set(STAGES)

    def test_missing_spec_file_is_spec_error(self, tmp_path):
        with pytest.raises(CampaignSpecError):
            Campaign.from_toml(tmp_path / "nope.toml")


class TestModelBackendThreading:
    """The model search is picked in one place, ``Modeler.backend``: its
    registry identity is the model stage's fingerprint entry, and no
    spec key or flag overrides it."""

    def base_spec(self) -> dict:
        return {
            "app": "synthetic",
            "parameters": {"p": [2, 4], "s": [3, 5]},
            "repetitions": 2,
            "seed": 7,
        }

    def test_spec_key_rejected(self):
        spec = self.base_spec()
        spec["model_backend"] = "loop"
        with pytest.raises(CampaignSpecError) as err:
            Campaign.from_spec(spec)
        message = str(err.value)
        assert "unknown spec key(s): model_backend" in message
        assert "\n" not in message

    def test_spec_default_is_modelers(self):
        campaign = Campaign.from_spec(self.base_spec())
        assert campaign.modeler == Modeler()
        assert campaign.modeler.backend == "batched"

    def test_unknown_backend_rejected_with_valid_names(self):
        campaign = synthetic_campaign(modeler=Modeler(backend="gpu"))
        with pytest.raises(RegistryError) as err:
            campaign.run()
        assert "batched" in str(err.value) and "loop" in str(err.value)

    def test_backends_select_identical_models(self):
        loop = synthetic_campaign(modeler=Modeler(backend="loop")).run()
        batched = synthetic_campaign(modeler=Modeler(backend="batched")).run()
        assert set(loop.models) == set(batched.models)
        for fn in loop.models:
            assert (
                loop.models[fn].hybrid.terms
                == batched.models[fn].hybrid.terms
            )
            assert (
                loop.models[fn].hybrid.metadata
                == batched.models[fn].hybrid.metadata
            )

    def test_backend_participates_in_model_fingerprint(self, tmp_path):
        a = synthetic_campaign(workspace=tmp_path / "ws")
        a.run()
        b = synthetic_campaign(
            workspace=tmp_path / "ws", modeler=Modeler(backend="loop")
        )
        b.run()
        # Same measurements, different search backend: everything up to
        # the model stage resumes, the model fit (and its dependents)
        # recompute under the new backend identity.
        assert "measure" in b.resumed_stages
        assert "model" in b.computed_stages
        assert a.fingerprints["model"] != b.fingerprints["model"]
        assert a.fingerprints["measure"] == b.fingerprints["measure"]

    def test_modeler_backend_field_in_fingerprint(self, tmp_path):
        a = synthetic_campaign()
        b = synthetic_campaign(modeler=Modeler(backend="loop"))
        a.run()
        b.run()
        assert a.fingerprints["model"] != b.fingerprints["model"]
        # The fingerprint entry is the registry identity of the
        # modeler's backend, the same entry a default campaign always
        # recorded, so default campaigns keep their fingerprints.
        for campaign, name in ((a, "batched"), (b, "loop")):
            config = STAGES["model"].config(campaign)
            assert config["model_backend"] == MODEL_BACKEND_REGISTRY.identity(
                name
            )
