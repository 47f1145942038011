"""Taint analysis results.

The report is the interface between the dynamic taint run and everything
downstream: function classification (Table 2), per-parameter coverage
(Table 3), experiment design (section A2), instrumentation filters
(section A3), the hybrid modeler's search-space prior (section B1), and the
validity checks (sections C1/C2).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

CallPath = tuple[str, ...]


@dataclass
class LoopRecord:
    """Taint facts about one loop along one call path."""

    function: str
    loop_id: int
    callpath: CallPath
    params: frozenset[str] = frozenset()
    iterations: int = 0
    entries: int = 0


@dataclass
class BranchRecord:
    """Taint facts about one non-loop branch along one call path."""

    function: str
    branch_id: int
    callpath: CallPath
    params: frozenset[str] = frozenset()
    #: Which directions were observed (True = then, False = else).
    directions: frozenset[bool] = frozenset()


@dataclass
class LibraryCallRecord:
    """One library routine invocation site (aggregated over calls)."""

    caller: str
    routine: str
    callpath: CallPath
    params: frozenset[str] = frozenset()
    calls: int = 0


@dataclass
class TaintReport:
    """Aggregated result of one tainted execution."""

    #: Parameters that were registered as taint sources.
    parameters: tuple[str, ...] = ()
    #: Per-(callpath, function, loop_id) loop facts.
    loop_records: dict[tuple[CallPath, str, int], LoopRecord] = field(
        default_factory=dict
    )
    #: Per-(callpath, function, branch_id) branch facts.
    branch_records: dict[tuple[CallPath, str, int], BranchRecord] = field(
        default_factory=dict
    )
    #: Per-(callpath, routine) library call facts.
    library_records: dict[tuple[CallPath, str], LibraryCallRecord] = field(
        default_factory=dict
    )
    #: Analysis warnings (recursion, over-approximation, ...).
    warnings: list[str] = field(default_factory=list)
    #: Functions that were executed at least once during the taint run.
    executed_functions: frozenset[str] = frozenset()
    #: :meth:`_params_by_function`, until a record changes (a plain
    #: attribute, not a field: equality, repr and the wire ignore it).
    _by_function = None

    # ------------------------------------------------------------------
    # merged (callpath-insensitive) views

    def loop_params(self, function: str, loop_id: int) -> frozenset[str]:
        """Parameters affecting a loop, merged over call paths."""
        out: frozenset[str] = frozenset()
        for (_, fn, lid), rec in self.loop_records.items():
            if fn == function and lid == loop_id:
                out |= rec.params
        return out

    def loops_by_function(self) -> dict[str, dict[int, frozenset[str]]]:
        """function -> loop_id -> merged parameter set."""
        out: dict[str, dict[int, frozenset[str]]] = defaultdict(dict)
        for (_, fn, lid), rec in self.loop_records.items():
            prev = out[fn].get(lid, frozenset())
            out[fn][lid] = prev | rec.params
        return dict(out)

    def branch_params(self, function: str, branch_id: int) -> frozenset[str]:
        """Parameters affecting a branch condition, merged over call paths."""
        out: frozenset[str] = frozenset()
        for (_, fn, bid), rec in self.branch_records.items():
            if fn == function and bid == branch_id:
                out |= rec.params
        return out

    def branch_directions(self, function: str, branch_id: int) -> frozenset[bool]:
        """Directions a branch was observed to take, merged over call paths."""
        out: frozenset[bool] = frozenset()
        for (_, fn, bid), rec in self.branch_records.items():
            if fn == function and bid == branch_id:
                out |= rec.directions
        return out

    def library_params(self, caller: str) -> frozenset[str]:
        """Parameters affecting library calls issued directly by *caller*."""
        return self._params_by_function()[1].get(caller, frozenset())

    def routine_params(self, routine: str) -> frozenset[str]:
        """Parameters affecting a library routine, merged over callers."""
        out: frozenset[str] = frozenset()
        for (_, rt), rec in self.library_records.items():
            if rt == routine:
                out |= rec.params
        return out

    def routines_called(self) -> frozenset[str]:
        """All library routines observed during the run."""
        return frozenset(rec.routine for rec in self.library_records.values())

    # ------------------------------------------------------------------
    # function-level dependency views (paper Table 2 / Table 3)

    def function_loop_params(self, function: str) -> frozenset[str]:
        """Parameters affecting any loop owned by *function*."""
        return self._params_by_function()[0].get(function, frozenset())

    def _params_by_function(
        self,
    ) -> tuple[dict[str, frozenset[str]], dict[str, frozenset[str]]]:
        """(function -> loop parameters, caller -> library parameters),
        built in one pass over the records on first use and kept until
        :meth:`record_loop` or :meth:`record_library` changes them, so a
        lookup per function is O(1).  Functions with no record are
        absent."""
        if self._by_function is None:
            loops: dict[str, frozenset[str]] = {}
            for (_, fn, _lid), rec in self.loop_records.items():
                loops[fn] = loops.get(fn, frozenset()) | rec.params
            library: dict[str, frozenset[str]] = {}
            for rec in self.library_records.values():
                library[rec.caller] = (
                    library.get(rec.caller, frozenset()) | rec.params
                )
            self._by_function = (loops, library)
        return self._by_function

    def function_params(self, function: str) -> frozenset[str]:
        """Parameters affecting *function*'s own (exclusive) performance:
        its loops plus the library routines it calls directly."""
        return self.function_loop_params(function) | self.library_params(function)

    def tainted_functions(self) -> frozenset[str]:
        """Functions with at least one parameter dependency."""
        out: set[str] = set()
        for (_, fn, _lid), rec in self.loop_records.items():
            if rec.params:
                out.add(fn)
        for (_, _rt), rec in self.library_records.items():
            if rec.params:
                out.add(rec.caller)
        return frozenset(out)

    def functions_affected_by(self, param: str) -> frozenset[str]:
        """Functions whose performance depends on *param* (Table 3 row)."""
        out: set[str] = set()
        for (_, fn, _lid), rec in self.loop_records.items():
            if param in rec.params:
                out.add(fn)
        for (_, _rt), rec in self.library_records.items():
            if param in rec.params:
                out.add(rec.caller)
        return frozenset(out)

    def loops_affected_by(self, param: str) -> frozenset[tuple[str, int]]:
        """(function, loop_id) pairs whose trip count depends on *param*."""
        out: set[tuple[str, int]] = set()
        for (_, fn, lid), rec in self.loop_records.items():
            if param in rec.params:
                out.add((fn, lid))
        return frozenset(out)

    def relevant_loops(self) -> frozenset[tuple[str, int]]:
        """Loops with at least one parameter dependency (Table 2 'Relevant')."""
        out: set[tuple[str, int]] = set()
        for (_, fn, lid), rec in self.loop_records.items():
            if rec.params:
                out.add((fn, lid))
        return frozenset(out)

    # ------------------------------------------------------------------
    # mutation helpers used by the engine

    def record_loop(
        self,
        callpath: CallPath,
        function: str,
        loop_id: int,
        params: frozenset[str],
        iterations: int,
        entries: int = 1,
    ) -> None:
        """Add *entries* executions of a loop running *iterations* trips
        in all."""
        self._by_function = None
        key = (callpath, function, loop_id)
        rec = self.loop_records.get(key)
        if rec is None:
            rec = LoopRecord(function, loop_id, callpath)
            self.loop_records[key] = rec
        rec.params |= params
        rec.iterations += iterations
        rec.entries += entries

    def record_branch(
        self,
        callpath: CallPath,
        function: str,
        branch_id: int,
        params: frozenset[str],
        direction: bool,
    ) -> None:
        key = (callpath, function, branch_id)
        rec = self.branch_records.get(key)
        if rec is None:
            rec = BranchRecord(function, branch_id, callpath)
            self.branch_records[key] = rec
        rec.params |= params
        rec.directions |= {direction}

    def record_library(
        self,
        callpath: CallPath,
        caller: str,
        routine: str,
        params: frozenset[str],
    ) -> None:
        self._by_function = None
        key = (callpath, routine)
        rec = self.library_records.get(key)
        if rec is None:
            rec = LibraryCallRecord(caller, routine, callpath)
            self.library_records[key] = rec
        rec.params |= params
        rec.calls += 1

    def warn(self, message: str) -> None:
        if message not in self.warnings:
            self.warnings.append(message)

    def merge(self, other: "TaintReport") -> "TaintReport":
        """Merge *other* (e.g. a second taint run with different values)
        into a new report; parameter sets union, iteration and entry
        counts add."""
        merged = TaintReport(
            parameters=tuple(
                dict.fromkeys(self.parameters + other.parameters)
            ),
            executed_functions=self.executed_functions
            | other.executed_functions,
        )
        for report in (self, other):
            for (cp, fn, lid), rec in report.loop_records.items():
                merged.record_loop(
                    cp, fn, lid, rec.params, rec.iterations, rec.entries
                )
            for (cp, fn, bid), rec in report.branch_records.items():
                for direction in rec.directions:
                    merged.record_branch(cp, fn, bid, rec.params, direction)
            for (cp, rt), rec in report.library_records.items():
                merged.record_library(cp, rec.caller, rt, rec.params)
                merged.library_records[(cp, rt)].calls += rec.calls - 1
            for w in report.warnings:
                merged.warn(w)
        return merged
