"""Iteration-volume composition over the structured IR (paper 4.2–4.3).

Walks function bodies applying the two composition rules:

* sequencing loop nests sums volumes,
* nesting multiplies the outer loop count with the inner volume,

and accumulates volumes across the call tree.  Loop counts come from two
places: statically resolved trip counts (constants, from
:mod:`repro.staticanalysis.scev`) and taint-derived parameter classes
(opaque ``g(params)`` symbols, from the taint report).

One walk per function.  Each function body is walked once, filling its
exclusive and its inclusive accumulator side by side; a call inlines the
callee's inclusive accumulator, walking the callee first if need be.  A
loop the taint run never executed warns once, in program order and
pre-order within a function.

Recursion over-approximates (section 4.1): a call to a function on the
walk stack contributes the constant 1, and a direct self-call nothing.
So the inclusive volume of a function in a recursive cycle depends on
which members of its cycle are being walked.  It is memoized only when
walked with none of them on the stack, and re-walked otherwise; every
function's volume then is the same whatever order the functions are
defined in.  Accumulators are
``{factor tuple: coefficient}`` maps (:mod:`repro.volume.symbolic`): a
function body and a loop body (both seeded with the constant 1), an
``If`` (both branches) and a call-bearing statement each get their own and
merge into their parent as one unit, so every coefficient is the same
float that folding ``+`` over canonical volumes yields.  Each volume is
canonicalised once, when the report is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..ir.expr import Call
from ..ir.program import Program
from ..ir.stmt import For, If, Stmt, While
from ..staticanalysis.scev import static_trip_count
from ..taint.report import TaintReport
from .symbolic import Factors, LoopCount, Volume, accumulate, product

Terms = dict[Factors, float]


@dataclass
class VolumeReport:
    """Per-function and whole-program symbolic volumes."""

    #: Volume of each function's own body, with callee volumes inlined.
    inclusive: dict[str, Volume]
    #: Volume of each function's own loops only (no calls).
    exclusive: dict[str, Volume]
    #: Program volume: inclusive volume of the entry function.
    program: Volume
    warnings: list[str] = field(default_factory=list)


class VolumeAnalyzer:
    """Computes symbolic volumes of a program.

    Parameters
    ----------
    program:
        The finalized program.
    taint:
        Taint report supplying parameter classes for dynamic loops.  Loops
        the taint run never executed produce a warning and are treated as
        parameter-free (the paper's analysis likewise only sees executed
        code; section C2 turns this into an experiment-design check).
    """

    def __init__(self, program: Program, taint: TaintReport) -> None:
        self.program = program
        self.taint = taint
        self.warnings: list[str] = []
        self._callgraph = program.callgraph()
        self._loop_param_map = taint.loops_by_function()
        #: Accumulators of the walked functions.
        self._inclusive: dict[str, Terms] = {}
        self._exclusive: dict[str, Terms] = {}
        #: Unexecuted-loop warnings of each walked function, in pre-order
        #: (a re-walk repeats them; the report keeps each once).
        self._loop_warnings: dict[str, list[str]] = {}
        #: Functions being walked, outermost first.
        self._stack: list[str] = []
        #: The other members of each function's recursive cycle.
        self._cycle: dict[str, frozenset[str]] = {
            name: frozenset(scc) - {name}
            for scc in self._callgraph.components
            if len(scc) > 1
            for name in scc
        }

    # ------------------------------------------------------------------

    def analyze(self) -> VolumeReport:
        """Compute volumes for every function and the program."""
        warnings = []
        if self._callgraph.has_recursion:
            rec = ", ".join(sorted(self._callgraph.recursive_functions()))
            warnings.append(
                f"recursive functions ({rec}): volume accumulation skips "
                "recursive call edges (over-approximation, section 4.1)"
            )
        names = [fn.name for fn in self.program]
        for name in names:
            self._function_terms(name)
        for name in names:
            warnings.extend(dict.fromkeys(self._loop_warnings[name]))
        self.warnings = warnings
        exclusive = {n: Volume.from_map(self._exclusive[n]) for n in names}
        inclusive = {n: Volume.from_map(self._inclusive[n]) for n in names}
        return VolumeReport(
            inclusive=inclusive,
            exclusive=exclusive,
            program=inclusive[self.program.entry],
            warnings=list(self.warnings),
        )

    def _function_terms(self, name: str) -> Terms:
        """Inclusive accumulator of *name*, walking its body unless it is
        memoized (see the module docstring on recursion)."""
        if name in self._stack:
            return {(): 1.0}
        memoize = not self._cycle.get(name, frozenset()).intersection(
            self._stack
        )
        if memoize and name in self._inclusive:
            return self._inclusive[name]
        self._loop_warnings.setdefault(name, [])
        exclusive, inclusive = {(): 1.0}, {(): 1.0}
        body = self.program.function(name).body
        inline = bool(self._callgraph.callees(name) - {name})
        self._stack.append(name)
        self._block(name, body, exclusive, inclusive, inline)
        self._stack.pop()
        self._exclusive.setdefault(name, exclusive)
        if memoize:
            self._inclusive[name] = inclusive
        return inclusive

    # ------------------------------------------------------------------

    def _loop_count(self, fn_name: str, loop: Stmt) -> Volume:
        """Loop count as a volume: constant if static, else g(params)."""
        static = static_trip_count(loop)
        if static is not None:
            return Volume.constant(float(static))
        loop_id = getattr(loop, "loop_id", -1)
        params = self._loop_param_map.get(fn_name, {}).get(loop_id)
        if params is None:
            self._loop_warnings[fn_name].append(
                f"loop {fn_name}#{loop_id} was not executed during the "
                "taint run; its parameter class is unknown"
            )
            params = frozenset()
        return Volume.of_loop(LoopCount(fn_name, loop_id, params))

    def _block(
        self,
        fn_name: str,
        body: Sequence[Stmt],
        exclusive: Terms,
        inclusive: Terms,
        inline: bool,
    ) -> None:
        """Sequencing rule: merge the volume of each statement of *body*
        into the block's accumulators (seeded by the caller: a unit
        constant for function and loop bodies, which section 4.3 lets us
        ignore asymptotically but keeps empty bodies well-defined).
        *inline* is False when the function calls no other program
        function, so no statement can add a callee's volume."""
        for stmt in body:
            if isinstance(stmt, (For, While)):
                count = self._loop_count(fn_name, stmt).terms
                inner_ex, inner_in = {(): 1.0}, {(): 1.0}
                self._block(fn_name, stmt.body, inner_ex, inner_in, inline)
                # Nesting rule: vol(LN) = count(L) * vol(children).
                accumulate(exclusive, product(count, inner_ex.items()).items())
                accumulate(inclusive, product(count, inner_in.items()).items())
            elif isinstance(stmt, If):
                # Both branches over-approximate the volume (sum >= max).
                branch_ex: Terms = {}
                branch_in: Terms = {}
                for branch in (stmt.then_body, stmt.else_body):
                    self._block(fn_name, branch, branch_ex, branch_in, inline)
                accumulate(exclusive, branch_ex.items())
                accumulate(inclusive, branch_in.items())
            elif inline:
                calls: Terms = {}
                for expr in stmt.exprs():
                    for node in expr.walk():
                        if (
                            isinstance(node, Call)
                            and node.callee in self.program
                            # recursion: skip the edge (warned above)
                            and node.callee != fn_name
                        ):
                            callee = self._function_terms(node.callee)
                            accumulate(calls, callee.items())
                accumulate(inclusive, calls.items())


def compute_volumes(program: Program, taint: TaintReport) -> VolumeReport:
    """Convenience wrapper: run the volume analysis."""
    return VolumeAnalyzer(program, taint).analyze()
