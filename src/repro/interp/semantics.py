"""Execution semantics shared by every engine and analysis domain.

Engines execute repro-IR programs under the discrete cost model: the
tree-walking :class:`~repro.interp.interpreter.Interpreter` (the engine
of single-configuration runs), its shadow-tracking subclass
:class:`~repro.interp.shadowtree.ShadowInterpreter` (the taint runs'
engine), and the batched :class:`~repro.interp.vectorize.VectorizedEngine`
(the measurement hot path).  Everything *semantic* — what an
operator computes, what an intrinsic does, what errors look like, how
library calls are metered — lives here, once, so the engines can only
differ in dispatch strategy, never in meaning.

The shadow dimension is parameterized by a pluggable
:class:`~repro.interp.domain.AnalysisDomain`: the value rules below are
fixed, and the domain supplies the paired shadow rules (joins, policy
gates, sinks).  The differential property tests
(``tests/interp/test_engine_differential.py``) enforce bit-identical
behaviour, concrete and shadow alike, on top of this shared core.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from ..errors import (
    ExecutionLimitError,
    InterpreterError,
    UndefinedVariableError,
)
from .events import CostKind
from .values import Array, Value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ir.program import Function, Program
    from .events import ExecutionListener
    from .metrics import MetricsCollector
    from .runtime import LibraryRuntime

# ----------------------------------------------------------------------
# control-flow signals
#
# Statement execution returns (flow, value).  FLOW_NORMAL is zero so
# engines can use plain truthiness to detect early exits.

FLOW_NORMAL = 0
FLOW_BREAK = 1
FLOW_CONTINUE = 2
FLOW_RETURN = 3


# ----------------------------------------------------------------------
# operator semantics
#
# One table, used by the tree-walker per evaluation and pre-bound into
# the vectorized engine's closures.  The callables are C-level where
# possible so no engine pays Python-level branching per operation.

BINOP_FUNCS: dict[str, Callable[[Value, Value], Value]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "//": operator.floordiv,
    "%": operator.mod,
    "**": operator.pow,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
    "min": min,
    "max": max,
}


def apply_binop(op: str, lhs: Value, rhs: Value) -> Value:
    """Apply a non-short-circuiting binary operator."""
    fn = BINOP_FUNCS.get(op)
    if fn is None:
        raise InterpreterError(f"unknown operator {op!r}")
    return fn(lhs, rhs)


def apply_unop(op: str, operand: Value) -> Value:
    """Apply a unary operator (``not`` or negation)."""
    return (not operand) if op == "not" else -operand


def _log2(value: Value) -> float:
    return math.log2(value) if value > 0 else 0.0


#: Pure math intrinsics (everything except the cost sinks and ``alloc``).
MATH_INTRINSICS: dict[str, Callable[[Value], Value]] = {
    "log2": _log2,
    "sqrt": math.sqrt,
    "abs": abs,
    "int": int,
}

#: Memory cost charged per allocated array element.
ALLOC_COST_PER_ELEMENT = 0.01


def alloc_array(size: Value) -> tuple[Array, float]:
    """``alloc(n)`` semantics: the array and the memory cost to charge."""
    n = int(size)
    return Array(n), float(n) * ALLOC_COST_PER_ELEMENT


def check_work_amount(amount: float) -> float:
    """Validate a ``work``/``mem_work`` amount (must be non-negative)."""
    if amount < 0:
        raise InterpreterError("negative work amount")
    return amount


def require_array(value: Value, name: str, function: str) -> Array:
    """Array-operand check shared by ``Load``/``Store`` in both engines."""
    if not isinstance(value, Array):
        raise InterpreterError(
            f"'{name}' is not an array in function '{function}'"
        )
    return value


# ----------------------------------------------------------------------
# limit and error semantics
#
# Limit errors always name the offending function and the configured
# limit value, and expose both as attributes for programmatic handling.


def step_limit_exceeded(function: str, limit: int) -> ExecutionLimitError:
    """Error raised when a run exceeds ``ExecConfig.step_limit``."""
    return ExecutionLimitError(
        f"function '{function}' exceeded the configured step limit "
        f"of {limit} steps",
        function=function,
        limit=limit,
    )


def call_depth_exceeded(function: str, limit: int) -> ExecutionLimitError:
    """Error raised when a call would exceed ``ExecConfig.max_call_depth``."""
    return ExecutionLimitError(
        f"call to '{function}' exceeded the configured call-depth limit "
        f"of {limit} frames",
        function=function,
        limit=limit,
    )


def bad_loop_step(step: Value, function: str) -> InterpreterError:
    """Error raised for a non-positive / non-numeric ``For`` step."""
    return InterpreterError(
        f"loop step must be a positive number, got {step!r} "
        f"in function '{function}'"
    )


def undefined_variable(name: str, function: str) -> UndefinedVariableError:
    """Error raised when a variable is read before assignment."""
    return UndefinedVariableError(name, function)


# ----------------------------------------------------------------------
# entry-point semantics


def resolve_entry_args(
    program: "Program",
    args: Mapping[str, Value] | Sequence[Value],
    entry: str | None,
) -> tuple[str, "Function", list[Value]]:
    """Resolve the entry function and its positional argument values.

    Mapping arguments are matched against the entry's parameter names
    (missing names raise), sequences are taken positionally.
    """
    name = entry or program.entry
    fn = program.function(name)
    if isinstance(args, Mapping):
        missing = [p for p in fn.params if p not in args]
        if missing:
            raise InterpreterError(
                f"missing entry argument(s) {missing} for '{name}'"
            )
        argvals = [args[p] for p in fn.params]
    else:
        argvals = list(args)
    return name, fn, argvals


# ----------------------------------------------------------------------
# library-call semantics


def execute_library_call(
    runtime: "LibraryRuntime",
    name: str,
    args: Sequence[Value],
    metrics: "MetricsCollector",
    listener: "ExecutionListener",
    charge: Callable[[CostKind, float], None],
) -> Value:
    """Invoke a library routine, metering its costs between enter/exit.

    Every engine routes external calls through this function so event
    order (enter, per-kind costs, exit) is identical by construction.
    """
    result = runtime.call(name, args)
    metrics.on_enter(name)
    listener.on_enter(name)
    for kind, amount in result.costs.items():
        charge(kind, amount)
    metrics.on_exit(name)
    listener.on_exit(name)
    return result.value
