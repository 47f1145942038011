"""The taint stage's pipeline surface: errors, loop modes, caching.

Covers typed errors for unusable workloads, the taint driver's concrete
and shadow entry points, the identity of the shadow engine's two loop
modes (planned nests in closed form, or every trip iterated) from
``run_taint_stage`` up to a whole campaign, the campaign spec (which
offers no choice of taint engine: the taint stage has one), and the
fingerprint separation that keeps cached taint artifacts from crossing
policies.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.stages import STAGES, Campaign, run_taint_stage
from repro.errors import CampaignSpecError, PipelineError
from repro.interp import DEFAULT_CONFIG
from repro.interp.shadowtree import ShadowInterpreter
from repro.libdb.mpi_models import MPI_DATABASE
from repro.registry import ENGINE_REGISTRY, register_engine
from repro.taint.domain import TaintDomain
from repro.taint.policy import FULL_POLICY


def _spec(**overrides):
    spec = {
        "app": "synthetic",
        "parameters": {"p": [2.0, 4.0], "s": [3.0, 5.0]},
        "repetitions": 2,
    }
    spec.update(overrides)
    return spec


class TestRunTaintStage:
    def test_missing_taint_config_is_typed(self):
        class NoTaintConfig:
            name = "no-taint"

            def program(self):  # pragma: no cover - never reached
                raise AssertionError

        with pytest.raises(PipelineError) as exc:
            run_taint_stage(
                NoTaintConfig(), None, FULL_POLICY, MPI_DATABASE.copy()
            )
        assert exc.value.stage == "taint"
        assert "no-taint" in str(exc.value)
        assert "taint_config" in str(exc.value)

    def test_non_mapping_taint_config_is_typed(self):
        class BadTaintConfig:
            name = "bad-taint"

            def taint_config(self):
                return [1, 2, 3]

        with pytest.raises(PipelineError) as exc:
            run_taint_stage(
                BadTaintConfig(), None, FULL_POLICY, MPI_DATABASE.copy()
            )
        assert exc.value.stage == "taint"
        assert "bad-taint" in str(exc.value)

    def test_engines_produce_identical_reports(self, genuine_iteration):
        """The closed form and genuine iteration of every trip give the
        taint stage the same report."""
        from repro.apps.synthetic import make_scaling_workload

        workload = make_scaling_workload()
        program = workload.program()
        closed, genuine = (
            run_taint_stage(w, program, FULL_POLICY, MPI_DATABASE.copy())
            for w in (workload, genuine_iteration(workload))
        )
        assert closed == genuine


class TestEngineRegistryDomains:
    def test_run_does_not_corrupt_analysis_state(self):
        """TaintEngine.run() is concrete and analysis-free: interleaving
        it with analyze() must leave the report identical to an
        analyze()-only engine."""
        from repro.apps.synthetic import make_scaling_workload
        from repro.taint.engine import TaintEngine

        workload = make_scaling_workload()
        program = workload.program()
        args = {"p": 4.0, "s": 6.0}
        sources = workload.sources()
        baseline = TaintEngine(program).analyze(args, sources).report

        mixed = TaintEngine(program)
        mixed.run(args)  # must not touch the analysis state
        report = mixed.analyze(args, sources).report
        assert report == baseline
        mixed.run(args)  # nor after the analysis
        assert mixed.report == baseline

    def test_run_fires_domain_hooks_on_both_engines(self):
        """The shadow engine's run() is domain-observed identically with
        planned nests in closed form and with every trip iterated: the
        loop mode is invisible to the domain even through the
        concrete-compatible entry point."""
        from repro.apps.synthetic import make_scaling_workload

        program = make_scaling_workload().program()
        observations = {}
        for fast_loops in (False, True):
            domain = TaintDomain()
            engine = ShadowInterpreter(
                program,
                config=replace(DEFAULT_CONFIG, fast_loops=fast_loops),
                domain=domain,
            )
            result = engine.run({"p": 4.0, "s": 6.0})
            observations[fast_loops] = (
                result.value,
                result.steps,
                domain.report,
                sorted(domain.executed),
            )
        assert observations[True] == observations[False]
        # The run is genuinely observed, not silently concrete.
        assert observations[False][2].loop_records
        assert observations[False][3]


class TestCampaignTaintEngine:
    def test_spec_rejects_unknown_engine(self):
        """The taint stage has one engine, so a spec naming any engine
        for it is malformed, and the error names the key."""
        for engine in ("nonsense", "tree"):
            with pytest.raises(CampaignSpecError) as exc:
                Campaign.from_spec(_spec(taint_engine=engine))
            assert "taint_engine" in str(exc.value)

    def test_spec_rejects_taint_incapable_engine(self):
        from repro.interp.interpreter import Interpreter

        register_engine("shadowless-test", help="no shadow support")(
            Interpreter
        )
        try:
            with pytest.raises(CampaignSpecError) as exc:
                Campaign.from_spec(_spec(taint_engine="shadowless-test"))
            assert "taint" in str(exc.value)
        finally:
            ENGINE_REGISTRY._entries.pop("shadowless-test", None)

    def test_taint_fingerprint_isolates_policies(self):
        from repro.taint.policy import DATAFLOW_ONLY

        stage = STAGES["taint"]
        base = Campaign.from_spec(_spec())
        ablated = Campaign.from_spec(_spec())
        ablated.policy = DATAFLOW_ONLY
        assert base.stage_fingerprint(stage, {}) != ablated.stage_fingerprint(
            stage, {}
        )

    def test_campaign_runs_identically_on_both_engines(
        self, genuine_iteration
    ):
        """A whole campaign gives the same taint report and measurements
        with every trip iterated as with planned nests in closed form."""
        results = {}
        for genuine in (False, True):
            campaign = Campaign.from_spec(_spec())
            if genuine:
                campaign.workload = genuine_iteration(campaign.workload)
            results[genuine] = campaign.run()
        assert results[True].taint == results[False].taint
        assert (
            results[True].measurements.data
            == results[False].measurements.data
        )


class TestApiExports:
    def test_taint_types_exported(self):
        from repro import api

        assert api.TaintReport is not None
        assert api.PropagationPolicy is not None
        assert api.TaintEngine is not None
        assert api.TaintDomain is not None
        assert api.AnalysisDomain is not None
        for name in (
            "TaintReport",
            "PropagationPolicy",
            "TaintEngine",
            "TaintDomain",
            "AnalysisDomain",
            "make_engine",
        ):
            assert name in api.__all__
