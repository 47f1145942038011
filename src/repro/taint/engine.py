"""The taint engine: dynamic taint analysis for performance modeling.

A thin driver over the generic execution substrate: taint semantics live
in the :class:`~repro.taint.domain.TaintDomain` (an
:class:`~repro.interp.domain.AnalysisDomain`), executed by the
tree-walking :class:`~repro.interp.shadowtree.ShadowInterpreter`.

The analysis itself follows the paper (section 4.1):

* **sources** — entry arguments marked as performance parameters (plus
  library sources such as ``MPI_Comm_size``);
* **propagation** — set-union mapping over data flow and explicit control
  flow (optionally implicit flow);
* **sinks** — every loop exit condition (loop-count parameter
  identification) and every non-loop conditional branch (algorithm
  selection, section 4.4); library calls record parametric dependencies
  from the library database (section 5.3).

Taint runs use small representative configurations, exactly like the
paper's LULESH ``size=5``, 8-rank taint run.  With
``ExecConfig.fast_loops`` set (the default) the pure-cost loop nests the
fast-path planner can summarise run in closed form, each nest's loop
sinks recorded once with their entry and iteration counts; counting
nests and every other loop iterate trip by trip.  With ``fast_loops`` off
every trip iterates: the genuine-iteration reference, whose reports are
identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import InterpreterError
from ..interp.config import DEFAULT_CONFIG, ExecConfig
from ..interp.events import ExecutionListener
from ..interp.interpreter import Interpreter
from ..interp.metrics import MetricsCollector
from ..interp.runtime import LibraryRuntime
from ..interp.semantics import resolve_entry_args
from ..interp.shadowtree import ShadowInterpreter
from ..interp.values import Value
from ..ir.program import Program
from .domain import TaintDomain
from .label import CLEAN
from .policy import FULL_POLICY, PropagationPolicy
from .report import TaintReport
from .sources import LibraryTaintModel, SourceSpec


@dataclass
class TaintRunResult:
    """Outcome of one tainted execution."""

    value: Value
    report: TaintReport
    metrics: MetricsCollector


class TaintEngine:
    """Dynamic taint analysis on the shadow-tracking tree-walker.

    Parameters mirror the plain engines plus the taint knobs:

    ``policy``
        Which flows propagate labels
        (:class:`~repro.taint.policy.PropagationPolicy`).
    ``library_taint``
        Taint semantics of library routines (the library database).
    ``strict_recursion``
        Raise on recursive calls instead of warning (the paper's
        analysis "does not support recursive functions" but "warns of
        over-approximation when recursion is detected").
    """

    def __init__(
        self,
        program: Program,
        runtime: LibraryRuntime | None = None,
        config: ExecConfig = DEFAULT_CONFIG,
        listener: ExecutionListener | None = None,
        policy: PropagationPolicy = FULL_POLICY,
        library_taint: LibraryTaintModel | None = None,
        strict_recursion: bool = False,
    ) -> None:
        self.program = program
        self.policy = policy
        self.domain = TaintDomain(
            policy=policy,
            library_taint=library_taint,
            strict_recursion=strict_recursion,
        )
        self._config = config
        self._runtime = runtime
        self._listener = listener
        self._engine = ShadowInterpreter(
            program,
            runtime=runtime,
            config=config,
            listener=listener,
            domain=self.domain,
        )
        #: Lazily built concrete sibling for analysis-free run() calls.
        self._concrete = None

    # ------------------------------------------------------------------
    # convenience views

    @property
    def labels(self):
        """The domain's label table."""
        return self.domain.labels

    @property
    def report(self) -> TaintReport:
        """The (mutable) report the domain records into."""
        return self.domain.report

    @property
    def heap(self):
        """The domain's shadow heap."""
        return self.domain.heap

    @property
    def metrics(self) -> MetricsCollector:
        """The underlying engine's metrics collector."""
        return self._engine.metrics

    @property
    def config(self) -> ExecConfig:
        """The underlying engine's execution config."""
        return self._engine.config

    @property
    def runtime(self) -> LibraryRuntime:
        """The underlying engine's library runtime."""
        return self._engine.runtime

    @property
    def listener(self) -> ExecutionListener:
        """The underlying engine's execution listener."""
        return self._engine.listener

    def run(self, args=(), entry: str | None = None):
        """Concrete, analysis-free run of the program.

        No sources, no sink recording — the analysis state
        (:attr:`report`, :attr:`labels`, :attr:`heap`) is untouched, so
        interleaving ``run()`` with :meth:`analyze` cannot corrupt a
        report.  Executes on a separate tree
        :class:`~repro.interp.interpreter.Interpreter` (same
        runtime/config/listener); its metrics travel in the returned
        :class:`~repro.interp.metrics.RunResult`, not in :attr:`metrics`.
        """
        if self._concrete is None:
            self._concrete = Interpreter(
                self.program,
                runtime=self._runtime,
                config=self._config,
                listener=self._listener,
            )
        return self._concrete.run(args, entry=entry)

    @property
    def library_taint(self) -> LibraryTaintModel:
        return self.domain.library_taint

    @property
    def strict_recursion(self) -> bool:
        return self.domain.strict_recursion

    # ------------------------------------------------------------------
    # entry point

    def analyze(
        self,
        args: Mapping[str, Value],
        sources: "SourceSpec | dict[str, str] | Sequence[str]",
        entry: str | None = None,
    ) -> TaintRunResult:
        """Run the program with *args*, tainting the arguments named by
        *sources*, and return the taint report."""
        if not isinstance(sources, SourceSpec):
            sources = SourceSpec.from_mapping(sources)
        domain = self.domain
        name, fn, argvals = resolve_entry_args(self.program, args, entry)
        arglabels = [CLEAN] * len(argvals)
        for src in sources.parameters:
            if src.argument not in fn.params:
                raise InterpreterError(
                    f"taint source '{src.argument}' is not a parameter of "
                    f"'{name}'"
                )
            idx = fn.params.index(src.argument)
            arglabels[idx] = domain.source_label(src.label_name())
        domain.report.parameters = sources.label_names()
        value, _label = self._engine.call_shadow(name, argvals, arglabels)
        domain.report.executed_functions = frozenset(domain.executed)
        self._check_recursion_warning()
        return TaintRunResult(value, domain.report, self._engine.metrics)

    def _check_recursion_warning(self) -> None:
        recursive = self.program.callgraph().recursive_functions()
        for name in sorted(recursive & self.domain.executed):
            self.domain.report.warn(
                f"recursion detected in '{name}': loop analysis is "
                "over-approximate (paper section 4.1)"
            )


__all__ = ["TaintEngine", "TaintRunResult"]
