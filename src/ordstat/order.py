"""Totally ordered statistic values with exact and precision-aware comparison.

Values come in four shapes: exact rationals, integer ranks, fixed-precision
decimal scores, and tuples compared lexicographically. Two values are
comparable only if they share a shape; cross-shape comparison raises rather
than coercing, so exactness is never lost by accident. Score comparisons
whose operands lie within the precision threshold of each other collapse to
EQ and are flagged on the comparison context: a conservative tie is
recoverable, a silently wrong strict ordering is not. The threshold test
itself is exact, on the Decimal operands as given, with no rounding.

The lexicographic tuple order here is the computational core of the package;
tuples of ordered values are themselves ordered values, so cascades of
statistics nest freely. Infinite codomains and order-theoretic conditions on
them (which orders admit valid p-values at all) have no finite computational
content and live in documentation only.
"""

from __future__ import annotations

import decimal
import enum
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Union

DEFAULT_PRECISION = 50
# The threshold is then at most 1%; at precision 2 it would tie 0 with every value, at 1 opposite signs.
MIN_PRECISION = 4


class OrderError(Exception):
    """Base class for ordered-value errors."""


class ShapeMismatchError(OrderError):
    """Two values of different shapes were compared."""


class EmptyTupleError(OrderError):
    """A lexicographic tuple needs at least one component."""


class Ordering(enum.Enum):
    """Closed three-valued comparison result."""

    LT = -1
    EQ = 0
    GT = 1


@dataclass
class CompareContext:
    """Mutable record of comparison side effects.

    Score comparisons that collapse to EQ because the operands are within
    the precision threshold (but not identical) are counted here. Exact
    comparisons never touch the context, so ``imprecise`` stays False for
    purely rational/rank data.
    """

    imprecise_ties: int = 0

    def flag_imprecise(self) -> None:
        self.imprecise_ties += 1

    @property
    def imprecise(self) -> bool:
        return self.imprecise_ties > 0


def exact_fraction(value) -> Fraction:
    """Convert to Fraction, refusing floats: binary noise is not exact input."""
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"not an exact value: {value!r} (pass Fraction, int, str or Decimal)")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str, Decimal)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class Rational:
    """Exact rational value."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", exact_fraction(self.value))


@dataclass(frozen=True)
class Rank:
    """Exact integer rank."""

    value: int

    def __post_init__(self):
        if isinstance(self.value, bool) or not isinstance(self.value, int):
            raise TypeError(f"rank must be an int, got {self.value!r}")


@dataclass(frozen=True)
class Score:
    """Fixed-precision decimal value.

    ``precision`` counts significant decimal digits of the sources that
    produced the value. Two scores a and b with
    |a - b| * 10**precision <= 100 * max(|a|, |b|), that is a relative
    distance of at most 10**(2 - precision), compare EQ and flag the
    comparison context as imprecise; identical values compare EQ without
    flagging. The test is exact: the tie window of a value is a closed
    interval around it, with no rounding at its ends. The stored decimal
    may carry more digits than ``precision`` (e.g. an exact sum of
    precision-digit terms); the threshold is governed by ``precision``
    alone, which must be at least MIN_PRECISION.
    """

    value: Decimal
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        v = self.value
        if isinstance(v, float):
            raise TypeError("scores must come from decimal strings, not floats")
        if not isinstance(v, Decimal):
            v = Decimal(v)
        if not v.is_finite():
            raise OrderError(f"score must be finite, got {v}")
        if not isinstance(self.precision, int) or self.precision < MIN_PRECISION:
            raise OrderError(f"precision must be an int >= {MIN_PRECISION}, got {self.precision!r}")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class LexTuple:
    """Ordered list of values compared lexicographically (first unequal wins)."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise EmptyTupleError("a lexicographic tuple needs at least one component")
        for c in comps:
            if not isinstance(c, (Rational, Rank, Score, LexTuple)):
                raise TypeError(f"tuple component is not an ordered value: {c!r}")
        object.__setattr__(self, "components", comps)


OrdValue = Union[Rational, Rank, Score, LexTuple]


def lex_tuple(components) -> LexTuple:
    """Build a lexicographic tuple from a non-empty list of ordered values."""
    return LexTuple(tuple(components))


def shape(value: OrdValue):
    """Hashable shape descriptor; only same-shape values are comparable."""
    if isinstance(value, Rational):
        return "rational"
    if isinstance(value, Rank):
        return "rank"
    if isinstance(value, Score):
        return "score"
    if isinstance(value, LexTuple):
        return ("tuple",) + tuple(shape(c) for c in value.components)
    raise TypeError(f"not an ordered value: {value!r}")


def _cmp(a, b) -> Ordering:
    if a < b:
        return Ordering.LT
    if a > b:
        return Ordering.GT
    return Ordering.EQ


# Subtraction and scaleb under this context never round, overflow or underflow.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _compare_scores(a: Score, b: Score, ctx: CompareContext | None) -> Ordering:
    if a.value == b.value:
        return Ordering.EQ
    prec = min(a.precision, b.precision)
    with localcontext(_EXACT):
        within = abs(a.value - b.value).scaleb(prec - 2) <= max(abs(a.value), abs(b.value))
    if within:
        if ctx is not None:
            ctx.flag_imprecise()
        return Ordering.EQ
    return Ordering.LT if a.value < b.value else Ordering.GT


def _compare_same_shape(a: OrdValue, b: OrdValue, ctx: CompareContext | None) -> Ordering:
    if isinstance(a, (Rational, Rank)):
        return _cmp(a.value, b.value)
    if isinstance(a, Score):
        return _compare_scores(a, b, ctx)
    for ca, cb in zip(a.components, b.components):
        o = _compare_same_shape(ca, cb, ctx)
        if o is not Ordering.EQ:
            return o
    return Ordering.EQ


def compare(a: OrdValue, b: OrdValue, ctx: CompareContext | None = None) -> Ordering:
    """Three-valued comparison of two same-shape values.

    Rational and rank comparisons are exact; tuples compare
    lexicographically (the first unequal component decides). Scores a and
    b with |a - b| * 10**p <= 100 * max(|a|, |b|), p the smaller of their
    precisions, collapse to EQ and flag ``ctx``; the test is decided
    exactly, without rounding the relative distance. Threshold equality is
    deliberately conservative and is not transitive, so callers that
    partition values into equality groups should group sort-adjacent
    elements.

    Raises ShapeMismatchError when the shapes differ (including tuples of
    different arity or componentwise shape).
    """
    sa, sb = shape(a), shape(b)
    if sa != sb:
        raise ShapeMismatchError(f"cannot compare shape {sa!r} with {sb!r}")
    return _compare_same_shape(a, b, ctx)


def to_rational(value: OrdValue) -> Rational:
    """Explicit conversion to Rational; there is no implicit cross-shape coercion."""
    if isinstance(value, Rational):
        return value
    if isinstance(value, Rank):
        return Rational(Fraction(value.value))
    if isinstance(value, Score):
        return Rational(Fraction(value.value))
    raise OrderError("tuples have no canonical rational form")


def format_ord(value: OrdValue) -> str:
    """Report form: p/q rationals, plain integers, tagged scientific scores, parenthesized tuples."""
    if isinstance(value, Rational):
        return str(value.value)
    if isinstance(value, Rank):
        return str(value.value)
    if isinstance(value, Score):
        return f"{value.value:E}~p{value.precision}"
    if isinstance(value, LexTuple):
        return "(" + ", ".join(format_ord(c) for c in value.components) + ")"
    raise TypeError(f"not an ordered value: {value!r}")
