"""Execution substrate: metered execution of repro-IR programs.

Two engines share one semantics core (:mod:`repro.interp.semantics`):

* :class:`Interpreter` — the tree-walking engine, with subclassable
  per-node hooks: the scalar reference, and the engine of every
  single-configuration run.  :class:`ShadowInterpreter` extends it with
  an analysis domain's shadow state (:mod:`repro.interp.domain`); it is
  the one shadow engine, the one taint runs execute on.
* :class:`VectorizedEngine` — the batched tensor engine
  (:mod:`repro.interp.vectorize`).  Runs a whole sweep as one pass over
  per-lane arrays; the default for measurement stages.  A batch it
  cannot run vectorized is rerun lane by lane on the tree-walker.

Both engines run the loop nests the fast-path planner
(:mod:`repro.interp.fastpath`) summarises in closed form when
``ExecConfig.fast_loops`` is set.  Construct concrete engines through
:func:`make_engine` rather than instantiating a class directly — callers
then inherit new engines (and the "which engine for which job" defaults)
automatically.

Every engine provides ``run(args, entry=None)``.  What an engine
derives from the program alone is built once per process and kept on
the program, one per ``ExecConfig`` (:meth:`Program.derived
<repro.ir.program.Program.derived>`): the fast-path planner's loop plans
and the vectorized engine's lowering, which every engine of that
program and configuration shares, threads included.  An engine holds
only per-run state, refers to nothing that refers back to it, and is
freed by reference counting when its caller drops it.
"""

from ..registry import ENGINE_REGISTRY, register_engine
from .config import DEFAULT_CONFIG, ExecConfig
from .domain import AnalysisDomain
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
from .shadowtree import ShadowInterpreter
from .values import Array, Scalar, Value, truthy
from .vectorize import BatchedMetrics, VectorFallback, VectorizedEngine

#: The tree-walking engine: the scalar reference, and the engine of
#: single-configuration runs (subclassable per-node hooks).
ENGINE_TREE = "tree"
#: The batched tensor engine (whole-sweep measurement hot path).
ENGINE_VECTORIZED = "vectorized"

register_engine(
    ENGINE_TREE,
    help="tree-walking interpreter (scalar reference, one configuration "
    "per run)",
)(Interpreter)
register_engine(
    ENGINE_VECTORIZED,
    help="batched tensor engine (one pass per sweep, bit-identical lanes)",
    supports_batch=True,
)(VectorizedEngine)

#: Engine of the measurement stage (campaigns, pipelines, the CLI and
#: the service) unless a caller overrides it: one engine build and one
#: noise block per design, bit-identical to ``tree`` lane by lane.
#: Helpers that run one configuration at a time default to
#: ``ENGINE_TREE`` instead.
DEFAULT_MEASUREMENT_ENGINE = ENGINE_VECTORIZED


def supports_batch(engine: str) -> bool:
    """Whether the registered *engine* runs a whole batch of lanes in one
    call (``supports_batch`` metadata).  An unknown name raises
    :class:`~repro.errors.RegistryError`."""
    return bool(ENGINE_REGISTRY.entry(engine).metadata.get("supports_batch"))


def make_engine(
    program,
    engine: str = ENGINE_TREE,
    runtime: "LibraryRuntime | None" = None,
    config: ExecConfig = DEFAULT_CONFIG,
    listener: "ExecutionListener | None" = None,
) -> "Interpreter | VectorizedEngine":
    """Construct an execution engine for *program*.

    *engine* names an entry of the engine registry: ``"tree"`` (the
    subclassable tree-walker, the default, and the engine of
    single-configuration runs), ``"vectorized"`` (the batched engine of
    the measurement stage), or any engine registered by user code via
    :func:`repro.registry.register_engine`.  The built-ins produce
    bit-identical :class:`~repro.interp.metrics.RunResult` objects and
    errors; they differ only in dispatch cost.
    """
    return ENGINE_REGISTRY.entry(engine).factory(
        program, runtime=runtime, config=config, listener=listener
    )


__all__ = [
    "AnalysisDomain",
    "Array",
    "CostKind",
    "DEFAULT_CONFIG",
    "DEFAULT_MEASUREMENT_ENGINE",
    "BatchedMetrics",
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
    "leaf_unit_cost",
    "make_engine",
    "supports_batch",
    "truthy",
]
