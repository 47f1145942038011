"""Execution substrate: metered execution of repro-IR programs.

Execution factors into **engines** (dispatch strategies) × **analysis
domains** (optional shadow lattices, see :mod:`repro.interp.domain`),
over one shared semantics core (:mod:`repro.interp.semantics`):

* :class:`Interpreter` — the tree-walking engine.  Subclassable per-node
  hooks; :class:`ShadowInterpreter` is its domain-parameterized shadow
  sibling.
* :class:`CompiledEngine` — the IR-to-closure compiler
  (:mod:`repro.interp.compile`).  Lowers a finalized program once and
  executes pre-dispatched closures; the engine of single-configuration
  runs.  :class:`CompiledShadowEngine` is its shadow sibling — shadows
  travel through the same pre-resolved frame slots as values; the
  default for taint runs.
* :class:`VectorizedEngine` — the batched tensor engine
  (:mod:`repro.interp.vectorize`).  Runs a whole sweep as one pass over
  per-lane arrays; the default for measurement stages.

Construct engines through :func:`make_engine` rather than instantiating
any class directly — callers then inherit new engines (and the
"which engine for which job" defaults) automatically.

Every engine provides ``run(args, entry=None)`` and ``close()``.
``close()`` releases the lowered program: the compiled and vectorized
engines' closures refer back to the engine, a reference cycle that only a
full garbage collection would free, so a caller that builds an engine for
one run closes it in ``try``/``finally`` and the engine is then freed by
reference counting.  An engine cannot run after ``close()``; on the
tree-walkers it releases nothing.  Passing a
shadow-tracking :class:`~repro.interp.domain.AnalysisDomain` selects an
engine's shadow variant; engines declare domain support via the
``supports_taint`` registry metadata.
"""

from ..errors import RegistryError
from ..registry import ENGINE_REGISTRY, register_engine
from .compile import CompiledEngine, CompiledFunction
from .config import DEFAULT_CONFIG, ExecConfig
from .domain import AnalysisDomain, ConcreteDomain
from .events import CostKind, ExecutionListener, MultiListener, NullListener
from .fastpath import FastPathPlanner, LeafCost, leaf_unit_cost
from .interpreter import Interpreter
from .metrics import FunctionMetrics, MetricsCollector, RunResult
from .runtime import (
    LibraryCall,
    LibraryRuntime,
    NoLibraryRuntime,
    TableRuntime,
)
from .shadowjit import CompiledShadowEngine
from .shadowtree import ShadowInterpreter
from .values import Array, Scalar, Value, truthy
from .vectorize import BatchedMetrics, VectorFallback, VectorizedEngine

#: The tree-walking engine (subclassable per-node hooks).
ENGINE_TREE = "tree"
#: The closure-compiling engine (measurement + taint hot paths).
ENGINE_COMPILED = "compiled"
#: The batched tensor engine (whole-sweep measurement hot path).
ENGINE_VECTORIZED = "vectorized"
#: Built-in scalar (one configuration per run) engine identifiers.
#: The full (user-extensible) set lives in the engine registry.
ENGINES: tuple[str, ...] = (ENGINE_COMPILED, ENGINE_TREE)

register_engine(
    ENGINE_COMPILED,
    help="IR-to-closure compiler (measurement + taint hot paths)",
    supports_taint=True,
    shadow_factory=CompiledShadowEngine,
)(CompiledEngine)
register_engine(
    ENGINE_TREE,
    help="tree-walking interpreter (subclassable per-node hooks)",
    supports_taint=True,
    shadow_factory=ShadowInterpreter,
)(Interpreter)
register_engine(
    ENGINE_VECTORIZED,
    help="batched tensor engine (one pass per sweep, bit-identical lanes)",
    supports_taint=False,
    supports_batch=True,
)(VectorizedEngine)

#: Engine of the measurement stage (campaigns, pipelines, the CLI and
#: the service) unless a caller overrides it: one engine build and one
#: noise block per design, bit-identical to ``compiled`` lane by lane.
#: Helpers that run one configuration at a time default to
#: ``ENGINE_COMPILED`` instead.
DEFAULT_MEASUREMENT_ENGINE = ENGINE_VECTORIZED
#: Engine used by the taint stage unless a caller overrides it.  Both
#: built-ins produce bit-identical TaintReports; the compiled engine runs
#: planned pure-cost nests in closed form and is several times faster on
#: real programs (see benchmarks/bench_taint_speedup.py).
DEFAULT_TAINT_ENGINE = ENGINE_COMPILED


def batch_capable_engines() -> tuple[str, ...]:
    """Names of registered engines whose ``run_batch`` executes a whole
    batch of lanes in one call (``supports_batch`` metadata)."""
    return tuple(
        entry.name
        for entry in ENGINE_REGISTRY
        if entry.metadata.get("supports_batch")
    )


def shadow_capable_engines() -> tuple[str, ...]:
    """Names of registered engines that can execute shadow domains.

    Capability requires both the ``supports_taint`` declaration and the
    ``shadow_factory`` that actually executes the domain — an entry
    declaring one without the other is not capable, so everything that
    validates against this list (CLI choices, campaign specs) agrees
    with what :func:`make_engine` will accept.
    """
    return tuple(
        entry.name
        for entry in ENGINE_REGISTRY
        if entry.metadata.get("supports_taint")
        and entry.metadata.get("shadow_factory") is not None
    )


def shadow_engine_identity(engine: str) -> str:
    """Stable identity of *engine*'s shadow implementation.

    Artifact fingerprints of shadow-domain stages (taint) must key on
    the class that actually executes the analysis — the registry
    entry's ``shadow_factory`` — not just the concrete factory, so
    re-registering an engine name with a different shadow
    implementation invalidates cached artifacts.
    """
    entry = ENGINE_REGISTRY.entry(engine)
    base = ENGINE_REGISTRY.identity(engine)
    factory = entry.metadata.get("shadow_factory")
    if factory is None:
        return base
    module = getattr(factory, "__module__", "?")
    qualname = getattr(
        factory, "__qualname__", getattr(factory, "__name__", "?")
    )
    return f"{base}+shadow:{module}.{qualname}"


def make_engine(
    program,
    engine: str = ENGINE_TREE,
    runtime: "LibraryRuntime | None" = None,
    config: ExecConfig = DEFAULT_CONFIG,
    listener: "ExecutionListener | None" = None,
    domain: "AnalysisDomain | None" = None,
) -> "Interpreter | CompiledEngine | ShadowInterpreter | CompiledShadowEngine":
    """Construct an execution engine for *program*.

    *engine* names an entry of the engine registry: ``"tree"`` (the
    subclassable tree-walker, the default for direct use), ``"compiled"``
    (the closure compiler the measurement and taint layers use), or any
    engine registered by user code via
    :func:`repro.registry.register_engine`.  The built-ins produce
    bit-identical :class:`~repro.interp.metrics.RunResult` objects, events
    and errors; they differ only in dispatch cost.

    *domain* selects the analysis domain.  ``None`` (or any domain with
    ``tracks_shadow=False``) yields the concrete engine; a
    shadow-tracking domain (e.g. :class:`repro.taint.domain.TaintDomain`)
    yields the engine's shadow variant — the class its registry entry
    names as ``shadow_factory`` — which executes the same value
    semantics while threading the domain's shadows.  Engines registered
    without a shadow factory raise :class:`~repro.errors.RegistryError`
    for shadow domains.
    """
    entry = ENGINE_REGISTRY.entry(engine)
    if domain is None or not domain.tracks_shadow:
        return entry.factory(
            program, runtime=runtime, config=config, listener=listener
        )
    shadow_factory = entry.metadata.get("shadow_factory")
    if shadow_factory is None:
        capable = ", ".join(shadow_capable_engines()) or "<none>"
        raise RegistryError(
            f"engine '{engine}' does not support analysis domains "
            f"(domain '{domain.name}' requested; domain-capable engines: "
            f"{capable})"
        )
    return shadow_factory(
        program,
        runtime=runtime,
        config=config,
        listener=listener,
        domain=domain,
    )


__all__ = [
    "AnalysisDomain",
    "Array",
    "CompiledEngine",
    "CompiledFunction",
    "CompiledShadowEngine",
    "ConcreteDomain",
    "CostKind",
    "DEFAULT_CONFIG",
    "DEFAULT_MEASUREMENT_ENGINE",
    "DEFAULT_TAINT_ENGINE",
    "BatchedMetrics",
    "ENGINES",
    "ENGINE_COMPILED",
    "ENGINE_TREE",
    "ENGINE_VECTORIZED",
    "ExecConfig",
    "ExecutionListener",
    "FastPathPlanner",
    "FunctionMetrics",
    "Interpreter",
    "LeafCost",
    "LibraryCall",
    "LibraryRuntime",
    "MetricsCollector",
    "MultiListener",
    "NoLibraryRuntime",
    "NullListener",
    "RunResult",
    "Scalar",
    "ShadowInterpreter",
    "TableRuntime",
    "Value",
    "VectorFallback",
    "VectorizedEngine",
    "batch_capable_engines",
    "leaf_unit_cost",
    "make_engine",
    "shadow_capable_engines",
    "shadow_engine_identity",
    "truthy",
]
