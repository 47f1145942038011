"""The taint analysis domain: DFSan-style labels as a pluggable shadow.

Everything about *taint* — the label lattice, the propagation policy
gates, the control-dependency stack, the shadow heap, and the
loop/branch/library sinks that populate the
:class:`~repro.taint.report.TaintReport` — lives here, behind the
:class:`~repro.interp.domain.AnalysisDomain` interface.  The shadow
engine (:class:`~repro.interp.shadowtree.ShadowInterpreter`) calls these
hooks at fixed program points and never touches a label directly, so its
closed-form and genuine-iteration modes produce bit-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import RecursionUnsupportedError
from ..interp.domain import AnalysisDomain, CallPath
from ..interp.values import Array, Value
from .label import CLEAN, LabelTable
from .policy import FULL_POLICY, PropagationPolicy
from .report import TaintReport
from .shadow import ShadowHeap
from .sources import LibraryTaintModel, NoLibraryTaint


@dataclass(frozen=True)
class _ControlEntry:
    """One active tainted control region."""

    label: int
    kind: str  # "branch" | "loop"
    #: Names assigned inside the region (loop entries only).
    assigned: frozenset[str]


class TaintDomain(AnalysisDomain):
    """Shadow domain implementing the paper's propagation policy (4.1).

    * **lattice** — union-tree labels with 16-bit ids
      (:class:`~repro.taint.label.LabelTable`);
    * **propagation** — set-union over data flow and explicit control
      flow, optionally implicit flow, per the
      :class:`~repro.taint.policy.PropagationPolicy`;
    * **sinks** — loop exit conditions, non-loop branches, and library
      calls, recorded into a :class:`~repro.taint.report.TaintReport`.
    """

    clean = CLEAN

    def __init__(
        self,
        policy: PropagationPolicy = FULL_POLICY,
        library_taint: LibraryTaintModel | None = None,
        strict_recursion: bool = False,
    ) -> None:
        policy.validate()
        self.policy = policy
        self.library_taint: LibraryTaintModel = library_taint or NoLibraryTaint()
        self.strict_recursion = strict_recursion
        self.labels = LabelTable()
        self.report = TaintReport()
        self.heap = ShadowHeap()
        # Control-dependency stack.  Branch entries always propagate their
        # label to values assigned under them; loop entries propagate only
        # to values that read loop-carried state (the loop variable or a
        # name assigned inside the loop body) -- matching the paper's
        # section 5.2 semantics: control flow taints "variables whose
        # values depend on the control flow" (regElemSize++ depends on the
        # iteration count; a loop-invariant assignment does not).
        self._control: list[_ControlEntry] = []
        # Control-label memo: the label for a given read set only changes
        # when the region stack changes, so cache per (stack version,
        # read set).  Hot on real programs, where whole phases execute
        # under one tainted outer loop.
        self._control_version = 0
        self._control_cache: dict[frozenset[str], tuple[int, int]] = {}
        self.executed: set[str] = set()
        self.tracks_control = policy.control_flow
        self.tracks_implicit = policy.implicit_flow
        #: Pre-resolved policy gates for hot-path pre-binding.
        self.data_flow = policy.data_flow
        self.control_flow = policy.control_flow

    # -- lattice ---------------------------------------------------------

    def join(self, a: int, b: int) -> int:
        return self.labels.union(a, b)

    def join_all(self, shadows: Sequence[int]) -> int:
        return self.labels.union_all(list(shadows))

    def expand(self, label: int) -> frozenset[str]:
        """The parameter-name set a label represents."""
        return self.labels.expand(label)

    def source_label(self, name: str) -> int:
        """The base label for marked parameter *name* (allocates if new)."""
        return self.labels.create(name)

    # -- propagation gates -------------------------------------------------

    def data(self, shadow: int) -> int:
        return shadow if self.data_flow else CLEAN

    def data_join(self, a: int, b: int) -> int:
        if not self.data_flow:
            return CLEAN
        return self.labels.union(a, b)

    # -- control regions -----------------------------------------------------

    def push_branch(self, shadow: int) -> None:
        self._control.append(_ControlEntry(shadow, "branch", frozenset()))
        self._control_version += 1

    def push_loop(self, shadow: int, assigned: frozenset[str]) -> None:
        self._control.append(_ControlEntry(shadow, "loop", assigned))
        self._control_version += 1

    def pop_control(self) -> None:
        self._control.pop()
        self._control_version += 1

    def control_label(self, reads: frozenset[str]) -> int:
        """Control labels applying to a value computed from *reads*."""
        if not self.control_flow:
            return CLEAN
        version = self._control_version
        cached = self._control_cache.get(reads)
        if cached is not None and cached[0] == version:
            return cached[1]
        out = CLEAN
        for entry in self._control:
            if entry.kind == "branch" or (reads & entry.assigned):
                out = self.labels.union(out, entry.label)
        self._control_cache[reads] = (version, out)
        return out

    def with_control(self, shadow: int, reads: frozenset[str] = frozenset()) -> int:
        # No active regions means no control labels to attach: skip the
        # union (the hot case — most code runs outside tainted control).
        if self.control_flow and self._control:
            return self.labels.union(shadow, self.control_label(reads))
        return shadow

    # -- heap (array element) shadows ---------------------------------------

    def load_element(self, array: Array, index: int) -> int:
        return self.heap.load(array, index)

    def store_element(self, array: Array, index: int, shadow: int) -> None:
        self.heap.store(array, index, shadow, self.labels.union)

    # -- sinks ----------------------------------------------------------------

    def on_branch(
        self,
        callpath: CallPath,
        function: str,
        branch_id: int,
        cond_shadow: int,
        taken: bool,
    ) -> None:
        # Branch sink (paper 4.4): condition labels and the direction.
        self.report.record_branch(
            callpath, function, branch_id, self.expand(cond_shadow), taken
        )

    def on_loop(
        self,
        callpath: CallPath,
        function: str,
        loop_id: int,
        sink_shadow: int,
        iterations: int,
        entries: int = 1,
    ) -> None:
        # Loop-count sink (paper 4.1): the exit condition's labels.
        self.report.record_loop(
            callpath,
            function,
            loop_id,
            self.expand(sink_shadow),
            iterations,
            entries,
        )

    def on_implicit_flow(self, cond_shadow: int, current: int) -> int:
        return self.labels.union(current, cond_shadow)

    def on_library_call(
        self,
        callpath: CallPath,
        caller: str,
        routine: str,
        args: Sequence[Value],
        arg_shadows: Sequence[int],
    ) -> int:
        ret_label = CLEAN
        if self.library_taint.handles(routine):
            arg_params = [self.expand(l) for l in arg_shadows]
            effect = self.library_taint.effect(routine, args, arg_params)
            for pname in effect.return_label_params:
                ret_label = self.labels.union(
                    ret_label, self.labels.create(pname)
                )
            self.report.record_library(
                callpath, caller, routine, effect.dependency_params
            )
        # Data-flow through the library call: the return value also carries
        # its argument labels (conservative, e.g. MPI_Allreduce of a tainted
        # value returns a tainted value).
        if self.data_flow:
            for alabel in arg_shadows:
                ret_label = self.labels.union(ret_label, alabel)
        return ret_label

    # -- call protocol ---------------------------------------------------------

    def on_function_entered(self, name: str) -> None:
        self.executed.add(name)

    def on_recursive_call(self, name: str) -> None:
        msg = (
            f"recursive call to '{name}' encountered during taint "
            "analysis; results are over-approximate"
        )
        if self.strict_recursion:
            raise RecursionUnsupportedError(msg)
        self.report.warn(msg)


__all__ = ["TaintDomain"]
