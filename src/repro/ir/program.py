"""Functions and programs.

A :class:`Program` is a set of named :class:`Function` objects plus an entry
point.  Finalizing a program assigns stable ids to every loop and branch
and validates structure; its call graph, content digest and the
engines' per-configuration state (:meth:`Program.derived`) are computed
on first use and kept.
Analyses (:mod:`repro.staticanalysis`, :mod:`repro.ir.cfg`, ...) and the
interpreters all operate on finalized programs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from ..errors import IRError
from .callgraph import CallGraph, build_callgraph
from .expr import Call, Expr
from .stmt import For, If, Stmt, While, iter_branches, iter_loops

T = TypeVar("T")


@dataclass
class Function:
    """A named function with positional parameters and a statement body.

    ``kind`` is free-form metadata used by the workloads and the evaluation
    harness to categorize functions the way Table 2 of the paper does:
    ``"kernel"`` (computational kernel), ``"comm"`` (communication routine),
    ``"accessor"`` (tiny constant helper, e.g. C++ getters), or ``""``.
    """

    name: str
    params: tuple[str, ...]
    body: list[Stmt]
    kind: str = ""

    def __post_init__(self) -> None:
        self.params = tuple(self.params)
        if len(set(self.params)) != len(self.params):
            raise IRError(f"function '{self.name}' has duplicate parameters")

    def loops(self) -> list[Stmt]:
        """All ``For``/``While`` statements in this function (pre-order)."""
        return list(iter_loops(self.body))

    def branches(self) -> list[If]:
        """All ``If`` statements in this function (pre-order)."""
        return list(iter_branches(self.body))

    def statements(self) -> Iterator[Stmt]:
        """All statements in this function, pre-order."""
        for stmt in self.body:
            yield from stmt.walk()

    def callees(self) -> frozenset[str]:
        """Names of all functions called (textually) by this function."""
        names: set[str] = set()
        for stmt in self.statements():
            for expr in stmt.exprs():
                for node in expr.walk():
                    if isinstance(node, Call):
                        names.add(node.callee)
        return frozenset(names)


@dataclass
class Program:
    """A finalized, analyzable program.

    Construct via :meth:`Program.build`, which assigns loop and branch ids
    and validates the result, or via :class:`repro.ir.builder.ProgramBuilder`.
    """

    functions: dict[str, Function]
    entry: str
    metadata: dict[str, object] = field(default_factory=dict)
    _finalized: bool = field(default=False, repr=False)
    _callgraph: CallGraph | None = field(
        default=None, repr=False, compare=False
    )
    _digest: str | None = field(default=None, repr=False, compare=False)
    _derived: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        functions: Iterable[Function],
        entry: str,
        metadata: Mapping[str, object] | None = None,
    ) -> "Program":
        """Create and finalize a program from *functions* with *entry*."""
        table: dict[str, Function] = {}
        for fn in functions:
            if fn.name in table:
                raise IRError(f"duplicate function '{fn.name}'")
            table[fn.name] = fn
        prog = cls(table, entry, dict(metadata or {}))
        prog.finalize()
        return prog

    # ------------------------------------------------------------------
    # finalization

    def finalize(self) -> "Program":
        """Assign loop/branch ids and validate the program.

        Loop ids are unique per function and stable across runs, so the
        pair ``(function_name, loop_id)`` identifies a taint sink exactly as
        (module, loop header) does in the LLVM-based original.
        """
        if self.entry not in self.functions:
            raise IRError(f"entry function '{self.entry}' not defined")
        self._callgraph = None
        self._digest = None
        self._derived = {}
        for fn in self.functions.values():
            loop_id = 0
            for loop in iter_loops(fn.body):
                assert isinstance(loop, (For, While))
                loop.loop_id = loop_id
                loop_id += 1
            branch_id = 0
            for branch in iter_branches(fn.body):
                branch.branch_id = branch_id
                branch_id += 1
        from .validate import validate_program

        validate_program(self)
        self._finalized = True
        return self

    # ------------------------------------------------------------------
    # queries

    def function(self, name: str) -> Function:
        """Look up a function by name, raising ``IRError`` if missing."""
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function named '{name}'") from None

    def callgraph(self) -> CallGraph:
        """The call graph, built on first use and kept until the next
        :meth:`finalize` (the analyses of one campaign share it)."""
        if self._callgraph is None:
            self._callgraph = build_callgraph(self)
        return self._callgraph

    def digest(self) -> str:
        """sha256 of the canonical printed form, computed on first use
        and kept until the next :meth:`finalize` (every run-cache key and
        stage fingerprint of one campaign shares it)."""
        if self._digest is None:
            from .printer import format_program

            text = format_program(self)
            self._digest = hashlib.sha256(text.encode()).hexdigest()
        return self._digest

    def derived(self, build: Callable[["Program", object], T], config) -> T:
        """``build(self, config)``, built on first use and kept until the
        next :meth:`finalize`: the engines' loop planner and vectorized
        lowering, one per configuration, shared by every engine of the
        process.  Keyed by ``repr(config)``, so equal configurations whose
        fields differ in type (``1`` and ``1.0``) never share.  What
        *build* returns must not refer back to the program, so the program
        and its memo are freed together by reference counting; a value
        two threads race to build is built twice and one of them kept."""
        key = (build, repr(config))
        value = self._derived.get(key)
        if value is None:
            value = self._derived.setdefault(key, build(self, config))
        return value

    def __getstate__(self) -> dict:
        # Derived state holds closures; a copy or an unpickled program
        # derives its own.
        return {**self.__dict__, "_derived": {}}

    def defined_names(self) -> frozenset[str]:
        """Names of all program-defined functions."""
        return frozenset(self.functions)

    def external_callees(self) -> frozenset[str]:
        """Callee names not defined in the program (library routines)."""
        out: set[str] = set()
        for fn in self.functions.values():
            out |= set(fn.callees()) - set(self.functions)
        return frozenset(out)

    def loop_count(self) -> int:
        """Total number of loops across all functions (Table 2 'Loops')."""
        return sum(len(fn.loops()) for fn in self.functions.values())

    def function_count(self) -> int:
        """Total number of defined functions (Table 2 'Functions')."""
        return len(self.functions)

    def loops_of(self, name: str) -> list[Stmt]:
        """Loops of function *name* in loop-id order."""
        return self.function(name).loops()

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())
