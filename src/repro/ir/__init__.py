"""Program intermediate representation.

This package stands in for LLVM IR in the original Perf-Taint: a small
structured imperative language with functions, loops, branches, arrays,
calls, and cost intrinsics, plus the call graph.

Loops are statements: every loop is a ``For`` or ``While`` with one
entry, and ``break``/``continue`` may only leave or restart the loop
that encloses them (:func:`validate_program`, run by
:meth:`Program.finalize`, rejects them anywhere else).  Control flow is
therefore reducible by construction, and the analyses read loops from
the statement tree (:meth:`Function.loops`) instead of recovering them
from a CFG with dominators.

Most users build programs through :class:`ProgramBuilder`::

    from repro.ir import ProgramBuilder

    pb = ProgramBuilder()
    with pb.function("main", ["n"]) as f:
        with f.for_("i", 0, f.var("n")):
            f.work(1)
    program = pb.build(entry="main")
"""

from .builder import (
    FunctionBuilder,
    ProgramBuilder,
    add,
    and_,
    as_expr,
    binop,
    call,
    const,
    div,
    eq,
    floordiv,
    ge,
    gt,
    intrinsic,
    le,
    load,
    log2,
    lt,
    max_,
    mem_work,
    min_,
    mod,
    mul,
    ne,
    neg,
    not_,
    or_,
    pow_,
    sqrt,
    sub,
    var,
    work,
)
from .callgraph import CallGraph, build_callgraph
from .expr import (
    BINARY_OPS,
    COST_INTRINSICS,
    INTRINSICS,
    UNARY_OPS,
    BinOp,
    Call,
    Const,
    Expr,
    Intrinsic,
    Load,
    UnOp,
    Var,
)
from .printer import format_expr, format_function, format_program
from .program import Function, Program
from .stmt import (
    Assign,
    Break,
    Continue,
    ExprStmt,
    For,
    If,
    Return,
    Stmt,
    Store,
    While,
    assigned_names,
    iter_branches,
    iter_loops,
)
from .validate import validate_program

__all__ = [
    "BINARY_OPS",
    "COST_INTRINSICS",
    "INTRINSICS",
    "UNARY_OPS",
    "Assign",
    "BinOp",
    "Break",
    "Call",
    "CallGraph",
    "Const",
    "Continue",
    "Expr",
    "ExprStmt",
    "For",
    "Function",
    "FunctionBuilder",
    "If",
    "Intrinsic",
    "Load",
    "Program",
    "ProgramBuilder",
    "Return",
    "Stmt",
    "Store",
    "UnOp",
    "Var",
    "While",
    "add",
    "and_",
    "as_expr",
    "assigned_names",
    "binop",
    "build_callgraph",
    "call",
    "const",
    "div",
    "eq",
    "floordiv",
    "format_expr",
    "format_function",
    "format_program",
    "ge",
    "gt",
    "intrinsic",
    "iter_branches",
    "iter_loops",
    "le",
    "load",
    "log2",
    "lt",
    "max_",
    "mem_work",
    "min_",
    "mod",
    "mul",
    "ne",
    "neg",
    "not_",
    "or_",
    "pow_",
    "sqrt",
    "sub",
    "validate_program",
    "var",
    "work",
]
