"""Structural validation of programs.

Checks performed at finalization time, before any analysis or execution:

* every called program function exists or is recognizably external
  (externals must look like library routines: ``MPI_*`` or registered via
  the library database at run time — here we only check program calls);
* ``break``/``continue`` only appear inside loops, so every loop is a
  single-entry ``For``/``While`` and control flow is reducible by
  construction (the static phase relies on this);
* loop/branch ids were assigned;
* arity of calls to program-defined functions matches the definition.

These checks keep interpreter errors early and comprehensible rather than
failing deep inside a measurement sweep.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import IRValidationError
from .expr import Call, Expr
from .program import Program
from .stmt import Break, Continue, For, If, Stmt, While


def _check_break_continue(body: Sequence[Stmt], in_loop: bool, fn: str) -> None:
    for stmt in body:
        if isinstance(stmt, (Break, Continue)) and not in_loop:
            kind = "break" if isinstance(stmt, Break) else "continue"
            raise IRValidationError(f"'{kind}' outside loop in function '{fn}'")
        if isinstance(stmt, (For, While)):
            _check_break_continue(stmt.body, True, fn)
        elif isinstance(stmt, If):
            _check_break_continue(stmt.then_body, in_loop, fn)
            _check_break_continue(stmt.else_body, in_loop, fn)


def _iter_exprs(body: Sequence[Stmt]):
    for stmt in body:
        for node in stmt.walk():
            for expr in node.exprs():
                yield from expr.walk()


def validate_program(program: Program) -> None:
    """Validate *program*, raising :class:`IRValidationError` on problems."""
    defined = program.defined_names()
    for fn in program:
        _check_break_continue(fn.body, False, fn.name)
        for loop in fn.loops():
            if getattr(loop, "loop_id", -1) < 0:
                raise IRValidationError(
                    f"loop without id in function '{fn.name}' (not finalized?)"
                )
        for branch in fn.branches():
            if branch.branch_id < 0:
                raise IRValidationError(
                    f"branch without id in function '{fn.name}' (not finalized?)"
                )
        for expr in _iter_exprs(fn.body):
            if isinstance(expr, Call) and expr.callee in defined:
                target = program.function(expr.callee)
                if len(expr.args) != len(target.params):
                    raise IRValidationError(
                        f"call to '{expr.callee}' in '{fn.name}' passes "
                        f"{len(expr.args)} args, definition takes "
                        f"{len(target.params)}"
                    )


def check_expr_closed(expr: Expr, known: frozenset[str]) -> frozenset[str]:
    """Return free variables of *expr* not present in *known* (helper for
    diagnostics and the interpreter fast paths)."""
    return expr.free_vars() - known
