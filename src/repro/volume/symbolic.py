"""Symbolic iteration volumes.

The taint analysis yields, for each loop L, a *class of functions*
``g_L(p1, ..., pn)`` over the marked parameters (paper Claim 1) — the exact
function is unknown until empirical modeling parameterizes it.  The volume
calculus composes these opaque loop-count symbols:

* **sequencing** two loop nests adds volumes (paper 4.2),
* **nesting** multiplies the outer count with the inner volume.

A :class:`Volume` is a sum of :class:`Term`s; a term is a constant
multiplier times a product of :class:`LoopCount` symbols.  The parameter
structure of the terms (which parameters co-occur in a product) is exactly
the additive/multiplicative dependency information of section A2.

Canonical form.  The terms of a volume have pairwise distinct factor
tuples and non-zero coefficients, and are ordered by ``(len(factors),
factors)``; factors compare by :attr:`LoopCount.sort_key`, which each
count computes once, at construction.  The form is built in one place,
from a ``{factor tuple: coefficient}`` map (:meth:`Volume.from_map`;
``Volume(terms)`` merges its terms into such a map first).

Accumulators.  Composition adds into such maps (:func:`accumulate`) and
canonicalises once, at the end, instead of re-merging and re-sorting a
running sum on every ``+``.  Floating-point addition is not associative,
so where the maps are split is part of the result: ``(a + b) + c`` adds
b's merged coefficient to a's, per key, then c's.  A map merged into its
parent as one unit therefore yields exactly the sums of folding ``+`` over
canonical volumes; :mod:`repro.volume.loopnest` keeps one map per block
that the sequencing rule sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping


@dataclass(frozen=True)
class LoopCount:
    """The unknown iteration-count function ``g(params)`` of one loop."""

    function: str
    loop_id: int
    params: frozenset[str] = frozenset()
    #: ``(function, loop_id, sorted params)``: the factor order of the
    #: canonical form, set once in ``__post_init__``.
    sort_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "sort_key",
            (self.function, self.loop_id, tuple(sorted(self.params))),
        )

    def __str__(self) -> str:
        args = ", ".join(sorted(self.params)) if self.params else ""
        return f"g[{self.function}#{self.loop_id}]({args})"

    def __lt__(self, other: "LoopCount") -> bool:  # stable ordering for keys
        return self.sort_key < other.sort_key

    def __le__(self, other: "LoopCount") -> bool:
        return self.sort_key <= other.sort_key

    def __gt__(self, other: "LoopCount") -> bool:
        return self.sort_key > other.sort_key

    def __ge__(self, other: "LoopCount") -> bool:
        return self.sort_key >= other.sort_key


Factors = tuple[LoopCount, ...]

_factor_key = attrgetter("sort_key")


def _term_order(item: tuple[Factors, float]) -> tuple:
    factors = item[0]
    return (len(factors), tuple([f.sort_key for f in factors]))


def accumulate(
    acc: dict[Factors, float], items: Iterable[tuple[Factors, float]]
) -> dict[Factors, float]:
    """Add each ``(factors, coefficient)`` of *items* into *acc*, per key;
    zero coefficients are not terms and are skipped.  Returns *acc*."""
    for key, coef in items:
        if coef != 0:
            acc[key] = acc.get(key, 0.0) + coef
    return acc


def product(
    left: Iterable[Term], right: Iterable[tuple[Factors, float]]
) -> dict[Factors, float]:
    """The terms of ``left * right`` as a map.  Factor tuples come in
    sorted, as in every :class:`Term`, and stay sorted; a *left* of at
    most one term (a loop count) yields distinct keys."""
    acc: dict[Factors, float] = {}
    right = [kv for kv in right if kv[1] != 0]
    for a in left:
        for factors, coef in right:
            key = (
                tuple(sorted(a.factors + factors, key=_factor_key))
                if a.factors
                else factors
            )
            prod = a.coefficient * coef
            if prod != 0:
                acc[key] = acc.get(key, 0.0) + prod
    return acc


@dataclass(frozen=True)
class Term:
    """``coefficient * prod(factors)``; factors sorted for canonical form."""

    coefficient: float
    factors: tuple[LoopCount, ...]

    @property
    def params(self) -> frozenset[str]:
        """All parameters occurring anywhere in this term."""
        out: frozenset[str] = frozenset()
        for f in self.factors:
            out |= f.params
        return out

    @property
    def is_constant(self) -> bool:
        """True when no factor depends on any parameter."""
        return not self.params

    def key(self) -> tuple[LoopCount, ...]:
        return self.factors

    def __str__(self) -> str:
        if not self.factors:
            return f"{self.coefficient:g}"
        factors = " * ".join(str(f) for f in self.factors)
        if self.coefficient == 1:
            return factors
        return f"{self.coefficient:g} * {factors}"


def _canonical_terms(merged: Mapping[Factors, float]) -> tuple[Term, ...]:
    """Zero coefficients dropped, terms sorted by ``(len(factors),
    factors)``: the one place the canonical form is built."""
    items = [kv for kv in merged.items() if kv[1] != 0]
    if len(items) > 1:
        items.sort(key=_term_order)
    return tuple([Term(coef, key) for key, coef in items])


class Volume:
    """A sum of terms, canonicalized by merging equal factor products."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Term] = ()) -> None:
        merged = accumulate({}, ((t.factors, t.coefficient) for t in terms))
        self.terms: tuple[Term, ...] = _canonical_terms(merged)

    @classmethod
    def from_map(cls, merged: Mapping[Factors, float]) -> "Volume":
        """The canonical volume of a ``{factors: coefficient}`` map."""
        vol = cls.__new__(cls)
        vol.terms = _canonical_terms(merged)
        return vol

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Volume":
        return cls()

    @classmethod
    def constant(cls, value: float) -> "Volume":
        return cls([Term(float(value), ())])

    @classmethod
    def of_loop(cls, count: LoopCount) -> "Volume":
        return cls([Term(1.0, (count,))])

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Volume") -> "Volume":
        return Volume(self.terms + other.terms)

    def __mul__(self, other: "Volume") -> "Volume":
        right = ((t.factors, t.coefficient) for t in other.terms)
        return Volume.from_map(product(self.terms, right))

    def scaled(self, value: float) -> "Volume":
        return Volume([Term(t.coefficient * value, t.factors) for t in self.terms])

    # -- queries ---------------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        """True when no term depends on any parameter (section 4.3: constant
        compute volume -> constant model)."""
        return all(t.is_constant for t in self.terms)

    @property
    def params(self) -> frozenset[str]:
        """All parameters the volume depends on."""
        out: frozenset[str] = frozenset()
        for t in self.terms:
            out |= t.params
        return out

    def param_groups(self) -> list[frozenset[str]]:
        """Parameter sets of the non-constant terms (for dependency
        classification: parameters in the same group multiply)."""
        return [t.params for t in self.terms if not t.is_constant]

    def degree(self) -> int:
        """Maximum number of unknown loop factors in any term (nesting
        depth of parameter-dependent loops)."""
        return max((len(t.factors) for t in self.terms), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Volume):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(t) for t in self.terms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Volume({self})"
