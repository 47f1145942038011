"""Call-graph construction and recursion detection.

The volume calculus (paper section 4.3) accumulates loop nests across the
call tree and is only sound for non-recursive programs; the taint engine
warns when recursion is present (section 4.1).  The call graph also feeds
the static pruning phase, which must propagate "affected by parameters"
facts from callees to callers.

The graph is two adjacency maps (callees and callers of each function)
over the program's functions, in program order.  Its strongly connected
components come from one iterative Tarjan pass at construction; they give
both the recursive functions and the callee-first order.  A finalized
program builds its graph once and keeps it (:meth:`Program.callgraph`),
so the static, taint and volume stages of a campaign share one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import IRError

if TYPE_CHECKING:
    from .program import Program


@dataclass
class CallGraph:
    """Directed call graph over the functions of one program.

    Nodes are program-defined function names.  Calls to external (library)
    routines are recorded separately in ``external_calls`` since they are
    resolved through the library database, not the program.
    """

    #: function -> program-defined functions it calls.
    callee_map: dict[str, frozenset[str]]
    external_calls: dict[str, frozenset[str]]
    #: function -> program-defined functions that call it.
    caller_map: dict[str, frozenset[str]] = field(init=False, repr=False)
    #: Strongly connected components, callees' components first.
    components: list[list[str]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        callers: dict[str, set[str]] = {n: set() for n in self.callee_map}
        for name, callees in self.callee_map.items():
            for callee in callees:
                callers[callee].add(name)
        self.caller_map = {n: frozenset(c) for n, c in callers.items()}
        self.components = _tarjan(self.callee_map)

    def callees(self, name: str) -> frozenset[str]:
        """Program-defined functions called by *name*."""
        return self.callee_map[name]

    def callers(self, name: str) -> frozenset[str]:
        """Program-defined functions that call *name*."""
        return self.caller_map[name]

    def externals_of(self, name: str) -> frozenset[str]:
        """Library routines called by *name* (e.g. ``MPI_Allreduce``)."""
        return self.external_calls.get(name, frozenset())

    def recursive_functions(self) -> frozenset[str]:
        """Functions participating in any call cycle (incl. self-recursion)."""
        out: set[str] = set()
        for scc in self.components:
            if len(scc) > 1 or scc[0] in self.callee_map[scc[0]]:
                out.update(scc)
        return frozenset(out)

    @property
    def has_recursion(self) -> bool:
        """True when any recursion cycle exists."""
        return bool(self.recursive_functions())

    def topological_order(self) -> list[str]:
        """Reverse-topological (callee-first) order; raises on recursion."""
        if self.has_recursion:
            raise IRError("call graph is cyclic (recursive program)")
        return [scc[0] for scc in self.components]

    def reachable_from(self, entry: str) -> frozenset[str]:
        """Functions reachable from *entry* (entry included)."""
        if entry not in self.callee_map:
            return frozenset()
        seen = {entry}
        stack = [entry]
        while stack:
            for callee in self.callee_map[stack.pop()]:
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return frozenset(seen)

    def transitive_externals(self, entry: str) -> frozenset[str]:
        """Library routines reachable (transitively) from *entry*."""
        out: set[str] = set()
        for fn in self.reachable_from(entry):
            out |= self.externals_of(fn)
        return frozenset(out)


def _tarjan(succ: dict[str, frozenset[str]]) -> list[list[str]]:
    """Strongly connected components of *succ*, iteratively (no recursion
    limit on deep call chains).  A component is emitted after every
    component it reaches, so the list is in callee-first order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(sorted(succ[root])))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(succ[child]))))
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    out.append(scc)
    return out


def build_callgraph(program: Program) -> CallGraph:
    """Build the call graph of *program*.  Analyses use the program's
    memo, :meth:`Program.callgraph`, which calls this once."""
    external: dict[str, frozenset[str]] = {}
    callees: dict[str, frozenset[str]] = {}
    defined = program.defined_names()
    for fn in program:
        names = fn.callees()
        external[fn.name] = frozenset(names - defined)
        callees[fn.name] = frozenset(names & defined)
    return CallGraph(callees, external)
