"""Static function pruning (paper section 5.1).

"At compile time, we identify all functions that contain no loops or only
loops with constant and statically resolvable trip counts since their
performance models are known to be independent from any program parameter.
... During this process, we include functions containing library calls that
are known to be affected by performance parameters, such as MPI
communication routines."

A function is *statically constant* iff

* every loop it owns has a statically resolvable trip count, and
* it issues no direct calls to performance-relevant library routines.

Such functions are pruned from instrumentation and their models are fixed
to constants without any measurement (rows "Pruned Statically" of Table 2).

The LLVM-based original finds loops as natural loops of the CFG, which
needs reducible control flow.  Here a function's loops are its
``For``/``While`` statements (:meth:`~repro.ir.program.Function.loops`),
each with a single entry, and :func:`~repro.ir.validate.validate_program`
(run by ``Program.finalize()``) rejects ``break``/``continue`` outside a
loop, so every function is reducible by construction and no check is
needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.program import Program
from .scev import static_trip_count


def default_relevant_library(routine: str) -> bool:
    """Default predicate for performance-relevant library routines: the MPI
    communication/synchronization surface (cheap queries excluded).

    ``MPI_Comm_size``/``MPI_Comm_rank`` are constant-time queries; they are
    taint *sources*, not performance-relevant calls (the paper's B1 result
    hinges on ``MPI_Comm_rank`` being correctly modeled as constant).
    """
    if not routine.startswith("MPI_"):
        return False
    return routine not in (
        "MPI_Comm_size",
        "MPI_Comm_rank",
        "MPI_Wtime",
        "MPI_Init",
        "MPI_Finalize",
    )


@dataclass
class FunctionStaticInfo:
    """Static facts about one function."""

    name: str
    loops_total: int = 0
    loops_static: int = 0
    static_trip_counts: dict[int, int] = field(default_factory=dict)
    relevant_library_calls: frozenset[str] = frozenset()
    is_recursive: bool = False

    @property
    def loops_dynamic(self) -> int:
        """Loops whose trip count is not statically resolvable."""
        return self.loops_total - self.loops_static

    @property
    def statically_constant(self) -> bool:
        """True when the function can be pruned at compile time."""
        return self.loops_dynamic == 0 and not self.relevant_library_calls


@dataclass
class StaticReport:
    """Static-analysis phase output for a whole program."""

    functions: dict[str, FunctionStaticInfo]
    warnings: list[str] = field(default_factory=list)

    def pruned_functions(self) -> frozenset[str]:
        """Functions whose models are constant by static analysis."""
        return frozenset(
            name
            for name, info in self.functions.items()
            if info.statically_constant
        )

    def surviving_functions(self) -> frozenset[str]:
        """Functions that proceed to the dynamic taint phase."""
        return frozenset(self.functions) - self.pruned_functions()

    def pruned_loops(self) -> int:
        """Count of statically resolved loops (Table 2 'Pruned Statically')."""
        return sum(info.loops_static for info in self.functions.values())

    def total_loops(self) -> int:
        """All loops in the program (Table 2 'Loops')."""
        return sum(info.loops_total for info in self.functions.values())

    def summary(self) -> dict[str, int]:
        """Table 2-style counters."""
        return {
            "functions": len(self.functions),
            "functions_pruned_statically": len(self.pruned_functions()),
            "loops": self.total_loops(),
            "loops_pruned_statically": self.pruned_loops(),
        }


def analyze_program(
    program: Program,
    relevant_library=default_relevant_library,
) -> StaticReport:
    """Run the compile-time phase over *program*."""
    callgraph = program.callgraph()
    recursive = callgraph.recursive_functions()
    report = StaticReport(functions={})

    for fn in program:
        info = FunctionStaticInfo(name=fn.name)
        loops = fn.loops()
        info.loops_total = len(loops)
        for loop in loops:
            count = static_trip_count(loop)
            if count is not None:
                info.loops_static += 1
                info.static_trip_counts[loop.loop_id] = count
        info.relevant_library_calls = frozenset(
            routine
            for routine in callgraph.externals_of(fn.name)
            if relevant_library(routine)
        )
        info.is_recursive = fn.name in recursive
        if info.is_recursive:
            report.warnings.append(
                f"function '{fn.name}' is recursive: static volume analysis "
                "is over-approximate (paper section 4.1)"
            )
        report.functions[fn.name] = info
    return report
