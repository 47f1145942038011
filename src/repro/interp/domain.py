"""Analysis domains: the pluggable shadow half of program execution.

Execution of a repro-IR program factors into two orthogonal pieces:

* the **value domain** — what an operator computes, what an intrinsic
  does, what a library call returns and costs.  This is fixed; it lives
  in :mod:`repro.interp.semantics` and is shared verbatim by every
  engine.
* the **shadow domain** — an optional lattice of facts tracked alongside
  every live value (taint labels today; provenance sets or intervals
  tomorrow), plus the propagation rules and analysis sinks that consume
  those facts.

An :class:`AnalysisDomain` packages the shadow half.  The tree-walking
:class:`~repro.interp.shadowtree.ShadowInterpreter` executes the value
semantics and calls the domain's hooks at fixed program points.  With
``ExecConfig.fast_loops`` set it runs pure-cost loop nests in closed form
and reports each of their loop sinks once per nest execution (``on_loop``
with an ``entries`` count), where genuine iteration reports every entry;
the analysis results are the same either way — the property the taint
differential tests (``tests/interp/test_engine_differential.py``)
enforce.  Concrete runs use the plain engines, which track no shadow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .values import Array, Value

#: Call path type threaded into domain sinks (innermost function last).
CallPath = tuple[str, ...]


class AnalysisDomain:
    """Shadow lattice + propagation rules + sinks for one analysis.

    Shadows are opaque to the engines: they only ever copy them between
    slots, pass them to hooks, and compare them against :attr:`clean`
    (identity comparison via ``==``).  Every rule about how shadows
    combine — joins, policy gates, control regions, heap state — lives on
    the domain, so engines can only differ in dispatch, never in
    analysis meaning.

    Engines pre-specialize the common all-clean case, so domains must
    honor the bottom laws — clean is a two-sided identity of ``join``
    (``join(clean, x) == join(x, clean) == x``), ``data(clean) ==
    clean`` and ``data_join(clean, clean) == clean``.  (Any sane
    lattice does.)
    """

    #: The bottom lattice element (the shadow of untainted data).
    clean: object = None

    # -- lattice ---------------------------------------------------------

    def join(self, a, b):
        """Least upper bound of two shadows."""
        return self.clean

    def join_all(self, shadows: Sequence) -> object:
        """Fold :meth:`join` over *shadows* (clean for an empty sequence)."""
        out = self.clean
        for shadow in shadows:
            out = self.join(out, shadow)
        return out

    # -- propagation gates -------------------------------------------------

    def data(self, shadow):
        """Gate one shadow through the domain's data-flow rule."""
        return self.clean

    def data_join(self, a, b):
        """Join two operand shadows under the data-flow rule."""
        return self.clean

    # -- control regions -----------------------------------------------------

    #: True when entering a region controlled by a non-clean shadow must
    #: be bracketed with :meth:`push_branch`/:meth:`push_loop` + ``pop``.
    tracks_control: bool = False
    #: True when the not-taken side of a branch with a non-clean
    #: condition must be reported via :meth:`on_implicit_flow`.
    tracks_implicit: bool = False

    def push_branch(self, shadow) -> None:
        """Enter a branch body controlled by *shadow*."""

    def push_loop(self, shadow, assigned: frozenset) -> None:
        """Enter a loop body controlled by *shadow*; *assigned* is the
        set of names assigned inside the body (loop-carried state)."""

    def pop_control(self) -> None:
        """Leave the innermost control region."""

    def with_control(self, shadow, reads: frozenset = frozenset()):
        """Shadow to attach to a value computed from *reads* and assigned
        under the currently active control regions."""
        return shadow

    # -- heap (array element) shadows ---------------------------------------

    def load_element(self, array: "Array", index: int):
        """Shadow of ``array[index]``."""
        return self.clean

    def store_element(self, array: "Array", index: int, shadow) -> None:
        """Record the shadow stored into ``array[index]``."""

    # -- sinks ----------------------------------------------------------------

    def on_branch(
        self,
        callpath: CallPath,
        function: str,
        branch_id: int,
        cond_shadow,
        taken: bool,
    ) -> None:
        """A non-loop conditional evaluated to *taken* under *cond_shadow*."""

    def on_loop(
        self,
        callpath: CallPath,
        function: str,
        loop_id: int,
        sink_shadow,
        iterations: int,
        entries: int = 1,
    ) -> None:
        """A loop was entered *entries* times (always one under genuine
        iteration) and ran *iterations* trips in all, with exit-condition
        shadow *sink_shadow*."""

    def on_implicit_flow(self, cond_shadow, current):
        """Shadow for a value the *not-taken* branch would have assigned."""
        return current

    def on_library_call(
        self,
        callpath: CallPath,
        caller: str,
        routine: str,
        args: Sequence["Value"],
        arg_shadows: Sequence,
    ):
        """Shadow of a library call's return value (pre-control)."""
        return self.clean

    # -- call protocol ---------------------------------------------------------

    def on_function_entered(self, name: str) -> None:
        """A program function began executing."""

    def on_recursive_call(self, name: str) -> None:
        """A call to *name* found *name* already on the call stack."""


__all__ = ["AnalysisDomain", "CallPath"]
