"""Runtime values of the repro interpreter.

Scalars are plain Python ints/floats/bools.  Arrays are a thin mutable
wrapper over a list of floats created by the ``alloc`` intrinsic; the taint
engine keeps a parallel shadow array per allocation.
"""

from __future__ import annotations

from typing import Union

from ..errors import ArrayIndexError

Scalar = Union[int, float, bool]


class Array:
    """A fixed-size numeric array (``alloc(n)``)."""

    __slots__ = ("data",)

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError("array size must be non-negative")
        self.data: list[float] = [0.0] * int(size)

    def __len__(self) -> int:
        return len(self.data)

    def load(self, index: int) -> float:
        """Read element *index* (bounds-checked)."""
        return self.data[self._check(index)]

    def store(self, index: int, value: float) -> None:
        """Write element *index* (bounds-checked)."""
        self.data[self._check(index)] = value

    def _check(self, index: Scalar) -> int:
        idx = int(index)
        if not 0 <= idx < len(self.data):
            raise ArrayIndexError(
                f"array index {idx} out of range [0, {len(self.data)})"
            )
        return idx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Array(len={len(self.data)})"


Value = Union[Scalar, Array, None]


def truthy(value: Value) -> bool:
    """Branch/loop condition semantics: C-like truthiness of numbers."""
    if isinstance(value, Array):
        raise TypeError("arrays cannot be used as conditions")
    if value is None:
        raise TypeError("void value used as condition")
    return bool(value)
