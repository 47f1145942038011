"""The public Campaign API, in one import.

Everything needed to express, extend, and execute runs declaratively::

    from repro import api

    campaign = api.Campaign.from_spec(
        {
            "app": "lulesh",
            "parameters": {"p": [27, 64, 125], "size": [10, 20, 30]},
            "workspace": "./campaign-ws",
        }
    )
    result = campaign.run()        # persists every stage artifact
    result = campaign.run()        # instant: all stages resume

Extension points are the decorator registries (see
:mod:`repro.registry`): register a workload, engine, noise/contention
model, or design strategy, and it becomes addressable from campaign specs
and the CLI alongside the built-ins.  Importing this module loads every
bundled component, so the registries are always fully populated.
"""

from __future__ import annotations

from .core.artifacts import artifact_fingerprint
from .core.pipeline import PerfTaintPipeline, PerfTaintResult
from .core.stages import (
    STAGES,
    Campaign,
    Stage,
    run_classify_stage,
    run_design_stage,
    run_measure_stage,
    run_model_stage,
    run_plan_stage,
    run_static_stage,
    run_taint_stage,
    run_validate_stage,
    run_volumes_stage,
)
from .errors import (
    ArtifactError,
    CampaignSpecError,
    LeaseTimeout,
    PipelineError,
    ProtocolVersionMismatch,
    RegistryError,
    ReproError,
    ServiceError,
)
from .service import (
    Broker,
    CampaignService,
    RemoteStore,
    ServiceClient,
    Worker,
    serve,
)
from .store import LocalStore
from .interp import AnalysisDomain, make_engine
from .modeling import (
    DEFAULT_MODEL_BACKEND,
    Modeler,
    ModelSearchBackend,
    make_model_backend,
)
from .registry import (
    CONTENTION_REGISTRY,
    DESIGN_REGISTRY,
    ENGINE_REGISTRY,
    MODEL_BACKEND_REGISTRY,
    NOISE_REGISTRY,
    WORKLOAD_REGISTRY,
    Registry,
    RegistryEntry,
    load_builtin_components,
    register_contention,
    register_design,
    register_engine,
    register_model_backend,
    register_noise,
    register_workload,
)
from .taint import (
    PropagationPolicy,
    TaintDomain,
    TaintEngine,
    TaintReport,
)

load_builtin_components()

__all__ = [
    "AnalysisDomain",
    "ArtifactError",
    "Broker",
    "CONTENTION_REGISTRY",
    "Campaign",
    "CampaignService",
    "CampaignSpecError",
    "DEFAULT_MODEL_BACKEND",
    "DESIGN_REGISTRY",
    "ENGINE_REGISTRY",
    "LeaseTimeout",
    "LocalStore",
    "MODEL_BACKEND_REGISTRY",
    "Modeler",
    "ModelSearchBackend",
    "NOISE_REGISTRY",
    "PerfTaintPipeline",
    "PerfTaintResult",
    "PipelineError",
    "PropagationPolicy",
    "ProtocolVersionMismatch",
    "Registry",
    "RegistryEntry",
    "RegistryError",
    "RemoteStore",
    "ReproError",
    "STAGES",
    "ServiceClient",
    "ServiceError",
    "Stage",
    "TaintDomain",
    "TaintEngine",
    "TaintReport",
    "WORKLOAD_REGISTRY",
    "Worker",
    "artifact_fingerprint",
    "load_builtin_components",
    "make_engine",
    "make_model_backend",
    "serve",
    "register_contention",
    "register_design",
    "register_engine",
    "register_model_backend",
    "register_noise",
    "register_workload",
    "run_classify_stage",
    "run_design_stage",
    "run_measure_stage",
    "run_model_stage",
    "run_plan_stage",
    "run_static_stage",
    "run_taint_stage",
    "run_validate_stage",
    "run_volumes_stage",
]
