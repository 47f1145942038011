"""Serialization of the stage artifacts a campaign workspace persists.

Generalizes the run cache of :mod:`repro.measure.io` from single
measurements to **every** pipeline stage: each stage's output (static
report, taint report, volumes, classification, design, plan, measurements,
models, findings) serializes to JSON, round-trips bit-identically, and is
stored keyed by a content fingerprint of everything that produced it.  A
campaign rerun whose upstream fingerprints are unchanged loads artifacts
instead of recomputing — editing only modeling parameters re-fits models
without re-measuring.

Storage is the one store (:mod:`repro.store`): a stage payload is the
entry itself, at key :func:`~repro.store.stage_key` ``<stage>-<fp>`` in
the ``stage`` namespace of the campaign's workspace.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Sequence

from ..measure.experiment import ConfigKey, Measurements
from ..measure.instrumentation import InstrumentationMode, InstrumentationPlan
from ..measure.io import (
    measurements_from_dict,
    measurements_to_dict,
    model_from_dict,
    model_to_dict,
    profile_from_dict,
    profile_to_dict,
)
from ..measure.profiler import ProfileResult
from ..modeling.modeler import SearchPrior
from ..staticanalysis.prune import FunctionStaticInfo, StaticReport
from ..taint.report import TaintReport
from ..volume.depclass import DependencyClass, ProgramDependencies
from ..volume.loopnest import VolumeReport
from ..volume.symbolic import LoopCount, Volume, accumulate
from .classify import Classification
from .experiment_design import DesignDecision
from .hybrid import ModelComparison
from .validation import ContentionFinding

#: Version of the artifact payload format; bump to invalidate workspaces.
ARTIFACT_VERSION = 2


def artifact_fingerprint(payload: object) -> str:
    """Content fingerprint of any JSON-able payload (canonical form)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# per-artifact serialization
#
# Conventions: frozensets become sorted lists; tuple keys are flattened
# into the records that carried them; insertion order of dicts is
# preserved (JSON objects/lists keep order) so a load-then-save cycle is
# byte-identical.


def static_report_to_dict(report: StaticReport) -> dict:
    """JSON-able representation of a static-analysis report."""
    return {
        "functions": {
            name: {
                "loops_total": info.loops_total,
                "loops_static": info.loops_static,
                "static_trip_counts": {
                    str(k): int(v)
                    for k, v in sorted(info.static_trip_counts.items())
                },
                "relevant_library_calls": sorted(
                    info.relevant_library_calls
                ),
                "is_recursive": info.is_recursive,
                "irreducible": info.irreducible,
            }
            for name, info in report.functions.items()
        },
        "warnings": list(report.warnings),
    }


def static_report_from_dict(payload: Mapping) -> StaticReport:
    """Inverse of :func:`static_report_to_dict`."""
    functions = {
        name: FunctionStaticInfo(
            name=name,
            loops_total=int(entry["loops_total"]),
            loops_static=int(entry["loops_static"]),
            static_trip_counts={
                int(k): int(v)
                for k, v in entry["static_trip_counts"].items()
            },
            relevant_library_calls=frozenset(
                entry["relevant_library_calls"]
            ),
            is_recursive=bool(entry["is_recursive"]),
            irreducible=bool(entry["irreducible"]),
        )
        for name, entry in payload["functions"].items()
    }
    return StaticReport(
        functions=functions, warnings=list(payload["warnings"])
    )


def taint_report_to_dict(report: TaintReport) -> dict:
    """JSON-able representation of a taint report."""
    return {
        "parameters": list(report.parameters),
        "loops": [
            {
                "callpath": list(cp),
                "function": rec.function,
                "loop_id": rec.loop_id,
                "params": sorted(rec.params),
                "iterations": rec.iterations,
                "entries": rec.entries,
            }
            for (cp, _fn, _lid), rec in report.loop_records.items()
        ],
        "branches": [
            {
                "callpath": list(cp),
                "function": rec.function,
                "branch_id": rec.branch_id,
                "params": sorted(rec.params),
                "directions": sorted(rec.directions),
            }
            for (cp, _fn, _bid), rec in report.branch_records.items()
        ],
        "library": [
            {
                "callpath": list(cp),
                "caller": rec.caller,
                "routine": rec.routine,
                "params": sorted(rec.params),
                "calls": rec.calls,
            }
            for (cp, _rt), rec in report.library_records.items()
        ],
        "warnings": list(report.warnings),
        "executed_functions": sorted(report.executed_functions),
    }


def taint_report_from_dict(payload: Mapping) -> TaintReport:
    """Inverse of :func:`taint_report_to_dict`."""
    report = TaintReport(
        parameters=tuple(payload["parameters"]),
        executed_functions=frozenset(payload["executed_functions"]),
    )
    for entry in payload["loops"]:
        cp = tuple(entry["callpath"])
        report.record_loop(
            cp,
            entry["function"],
            int(entry["loop_id"]),
            frozenset(entry["params"]),
            int(entry["iterations"]),
            int(entry["entries"]),
        )
    for entry in payload["branches"]:
        cp = tuple(entry["callpath"])
        for direction in entry["directions"]:
            report.record_branch(
                cp,
                entry["function"],
                int(entry["branch_id"]),
                frozenset(entry["params"]),
                bool(direction),
            )
    for entry in payload["library"]:
        cp = tuple(entry["callpath"])
        report.record_library(
            cp, entry["caller"], entry["routine"], frozenset(entry["params"])
        )
        report.library_records[(cp, entry["routine"])].calls = int(
            entry["calls"]
        )
    for warning in payload["warnings"]:
        report.warn(warning)
    return report


def volume_to_dict(volume: Volume) -> list:
    """JSON-able representation of a symbolic volume (canonical order)."""
    return [
        {
            "coefficient": float(term.coefficient),
            "factors": [
                {
                    "function": f.function,
                    "loop_id": f.loop_id,
                    "params": sorted(f.params),
                }
                for f in term.factors
            ],
        }
        for term in volume.terms
    ]


def volume_from_dict(payload: Sequence) -> Volume:
    """Inverse of :func:`volume_to_dict`."""
    terms = (
        (
            tuple(
                LoopCount(
                    function=f["function"],
                    loop_id=int(f["loop_id"]),
                    params=frozenset(f["params"]),
                )
                for f in entry["factors"]
            ),
            float(entry["coefficient"]),
        )
        for entry in payload
    )
    return Volume.from_map(accumulate({}, terms))


def volume_report_to_dict(report: VolumeReport) -> dict:
    """JSON-able representation of a volume report."""
    return {
        "inclusive": {
            fn: volume_to_dict(v) for fn, v in report.inclusive.items()
        },
        "exclusive": {
            fn: volume_to_dict(v) for fn, v in report.exclusive.items()
        },
        "program": volume_to_dict(report.program),
        "warnings": list(report.warnings),
    }


def volume_report_from_dict(payload: Mapping) -> VolumeReport:
    """Inverse of :func:`volume_report_to_dict`."""
    return VolumeReport(
        inclusive={
            fn: volume_from_dict(v) for fn, v in payload["inclusive"].items()
        },
        exclusive={
            fn: volume_from_dict(v) for fn, v in payload["exclusive"].items()
        },
        program=volume_from_dict(payload["program"]),
        warnings=list(payload["warnings"]),
    )


def _dependency_class_to_dict(dep: DependencyClass) -> dict:
    return {
        "params": sorted(dep.params),
        "multiplicative_groups": [
            sorted(g) for g in dep.multiplicative_groups
        ],
        "multiplicative_pairs": sorted(
            sorted(pair) for pair in dep.multiplicative_pairs
        ),
    }


def _dependency_class_from_dict(payload: Mapping) -> DependencyClass:
    return DependencyClass(
        params=frozenset(payload["params"]),
        multiplicative_groups=tuple(
            frozenset(g) for g in payload["multiplicative_groups"]
        ),
        multiplicative_pairs=frozenset(
            frozenset(pair) for pair in payload["multiplicative_pairs"]
        ),
    )


def dependencies_to_dict(deps: ProgramDependencies) -> dict:
    """JSON-able representation of program dependency classes."""
    return {
        "per_function": {
            fn: _dependency_class_to_dict(dep)
            for fn, dep in deps.per_function.items()
        },
        "program": (
            _dependency_class_to_dict(deps.program)
            if deps.program is not None
            else None
        ),
    }


def dependencies_from_dict(payload: Mapping) -> ProgramDependencies:
    """Inverse of :func:`dependencies_to_dict`."""
    return ProgramDependencies(
        per_function={
            fn: _dependency_class_from_dict(dep)
            for fn, dep in payload["per_function"].items()
        },
        program=(
            _dependency_class_from_dict(payload["program"])
            if payload["program"] is not None
            else None
        ),
    )


def classification_to_dict(classification: Classification) -> dict:
    """JSON-able representation of the function classification."""
    return {
        "pruned_static": sorted(classification.pruned_static),
        "pruned_dynamic": sorted(classification.pruned_dynamic),
        "kernels": sorted(classification.kernels),
        "comm_routines": sorted(classification.comm_routines),
        "mpi_functions": sorted(classification.mpi_functions),
        "unexecuted": sorted(classification.unexecuted),
        "loops_total": classification.loops_total,
        "loops_pruned_static": classification.loops_pruned_static,
        "loops_relevant": classification.loops_relevant,
        "per_function_params": {
            fn: sorted(params)
            for fn, params in classification.per_function_params.items()
        },
    }


def classification_from_dict(payload: Mapping) -> Classification:
    """Inverse of :func:`classification_to_dict`."""
    return Classification(
        pruned_static=frozenset(payload["pruned_static"]),
        pruned_dynamic=frozenset(payload["pruned_dynamic"]),
        kernels=frozenset(payload["kernels"]),
        comm_routines=frozenset(payload["comm_routines"]),
        mpi_functions=frozenset(payload["mpi_functions"]),
        unexecuted=frozenset(payload["unexecuted"]),
        loops_total=int(payload["loops_total"]),
        loops_pruned_static=int(payload["loops_pruned_static"]),
        loops_relevant=int(payload["loops_relevant"]),
        per_function_params={
            fn: frozenset(params)
            for fn, params in payload["per_function_params"].items()
        },
    )


def design_to_dict(design: DesignDecision) -> dict:
    """JSON-able representation of a design decision."""
    return {
        "configurations": [
            {name: float(v) for name, v in cfg.items()}
            for cfg in design.configurations
        ],
        "kept_parameters": list(design.kept_parameters),
        "pruned_parameters": list(design.pruned_parameters),
        "collapsed_parameters": list(design.collapsed_parameters),
        "strategy": design.strategy,
        "naive_size": design.naive_size,
        "notes": list(design.notes),
    }


def design_from_dict(payload: Mapping) -> DesignDecision:
    """Inverse of :func:`design_to_dict`."""
    return DesignDecision(
        configurations=[
            {name: float(v) for name, v in cfg.items()}
            for cfg in payload["configurations"]
        ],
        kept_parameters=tuple(payload["kept_parameters"]),
        pruned_parameters=tuple(payload["pruned_parameters"]),
        collapsed_parameters=tuple(payload["collapsed_parameters"]),
        strategy=payload["strategy"],
        naive_size=int(payload["naive_size"]),
        notes=list(payload["notes"]),
    )


def plan_to_dict(plan: InstrumentationPlan) -> dict:
    """JSON-able representation of an instrumentation plan."""
    return {
        "mode": plan.mode.value,
        "functions": sorted(plan.functions),
        "overhead_per_call": float(plan.overhead_per_call),
    }


def plan_from_dict(payload: Mapping) -> InstrumentationPlan:
    """Inverse of :func:`plan_to_dict`."""
    return InstrumentationPlan(
        InstrumentationMode(payload["mode"]),
        frozenset(payload["functions"]),
        float(payload["overhead_per_call"]),
    )


def measure_bundle_to_dict(
    measurements: Measurements,
    profiles: Mapping[ConfigKey, ProfileResult],
) -> dict:
    """JSON-able representation of the measurement stage's output."""
    return {
        "measurements": measurements_to_dict(measurements),
        "profiles": [
            {"config": [float(v) for v in key], "profile": profile_to_dict(p)}
            for key, p in profiles.items()
        ],
    }


def measure_bundle_from_dict(
    payload: Mapping,
) -> tuple[Measurements, dict[ConfigKey, ProfileResult]]:
    """Inverse of :func:`measure_bundle_to_dict`."""
    measurements = measurements_from_dict(payload["measurements"])
    profiles = {
        tuple(float(v) for v in entry["config"]): profile_from_dict(
            entry["profile"]
        )
        for entry in payload["profiles"]
    }
    return measurements, profiles


def _prior_to_dict(prior: SearchPrior | None) -> dict | None:
    if prior is None:
        return None
    return {
        "forced_constant": prior.forced_constant,
        "allowed_params": (
            sorted(prior.allowed_params)
            if prior.allowed_params is not None
            else None
        ),
        "multiplicative_pairs": (
            sorted(sorted(pair) for pair in prior.multiplicative_pairs)
            if prior.multiplicative_pairs is not None
            else None
        ),
    }


def _prior_from_dict(payload: Mapping | None) -> SearchPrior | None:
    if payload is None:
        return None
    return SearchPrior(
        forced_constant=bool(payload["forced_constant"]),
        allowed_params=(
            frozenset(payload["allowed_params"])
            if payload["allowed_params"] is not None
            else None
        ),
        multiplicative_pairs=(
            frozenset(
                frozenset(pair)
                for pair in payload["multiplicative_pairs"]
            )
            if payload["multiplicative_pairs"] is not None
            else None
        ),
    )


def models_to_dict(models: Mapping[str, ModelComparison]) -> dict:
    """JSON-able representation of the per-function model comparisons."""
    return {
        fn: {
            "hybrid": model_to_dict(cmp.hybrid),
            "black_box": (
                model_to_dict(cmp.black_box)
                if cmp.black_box is not None
                else None
            ),
            "prior": _prior_to_dict(cmp.prior),
        }
        for fn, cmp in models.items()
    }


def models_from_dict(payload: Mapping) -> dict[str, ModelComparison]:
    """Inverse of :func:`models_to_dict`."""
    return {
        fn: ModelComparison(
            function=fn,
            hybrid=model_from_dict(entry["hybrid"]),
            black_box=(
                model_from_dict(entry["black_box"])
                if entry["black_box"] is not None
                else None
            ),
            prior=_prior_from_dict(entry["prior"]),
        )
        for fn, entry in payload.items()
    }


def findings_to_dict(findings: Sequence[ContentionFinding]) -> list:
    """JSON-able representation of the contention findings."""
    return [
        {
            "function": f.function,
            "model": f.model,
            "spurious_params": sorted(f.spurious_params),
            "max_cov": float(f.max_cov),
        }
        for f in findings
    ]


def findings_from_dict(payload: Sequence) -> list[ContentionFinding]:
    """Inverse of :func:`findings_to_dict`."""
    return [
        ContentionFinding(
            function=entry["function"],
            model=entry["model"],
            spurious_params=frozenset(entry["spurious_params"]),
            max_cov=float(entry["max_cov"]),
        )
        for entry in payload
    ]
