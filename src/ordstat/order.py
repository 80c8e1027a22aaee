"""Totally ordered statistic values with exact comparison.

Values come in four shapes: exact rationals, integer ranks, fixed-precision
decimal scores, and tuples compared lexicographically. Two values are
comparable only if they share a shape; cross-shape comparison raises rather
than coercing, so exactness is never lost by accident. ``grid_keys`` is the
one definition of the order: it keys a batch of values exactly from their
``plain`` data, rationals as ints over the lcm of their denominators.
``compare`` and the trial side's grouping both order by it, so the order is
total: equality is transitive and EQ means equal values.

The lexicographic tuple order here is the computational core of the package;
tuples of ordered values are themselves ordered values, so cascades of
statistics nest freely. Infinite codomains and order-theoretic conditions on
them (which orders admit valid p-values at all) have no finite computational
content and live in documentation only.

Every other module imports this one, so it also holds what the layers
share: the precision bounds, the rank tests' enumeration cap, the roots
of the trial and rank-test errors, and ``_Record``, the value classes' base.
"""

from __future__ import annotations

import enum
from decimal import Decimal
from fractions import Fraction
from math import lcm

DEFAULT_PRECISION = 50
# Rank cascades tie score sums within a relative 10**(2 - precision) (ranktests' windows);
# the floor keeps that below 1%: at precision 2 it would tie 0 with every value, at 1 opposite signs.
MIN_PRECISION = 4
DEFAULT_MAX_ENUM = 10_000_000  # rank tests' cap on C(m+n, m); here so the command line can print it


# The roots of the trial and rank-test errors live below both layers: the rank side raises
# TheoremCheckError without loading the trial layer, and the command line maps each root to
# its exit code without loading either.
class TrialError(Exception):
    """Base class for trial-level contract violations."""


class TheoremCheckError(TrialError):
    """An identity that must hold by theorem failed: implementation bug."""


class RankTestError(Exception):
    """Base class for two-sample rank-test errors."""


class SizeLimitError(RankTestError):
    """The enumeration C(m+n, m) exceeds the configured cap."""


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


def exact_fraction(value) -> Fraction:
    """Convert to Fraction, refusing floats: binary noise is not exact input."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"not an exact value: {value!r} (pass Fraction, int, str or Decimal)")
    if isinstance(value, (int, str, Decimal)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


_set = object.__setattr__  # sets an attribute past _Record's refusal


class _Record:
    """Equal to an instance of its own class whose ``_fields`` are equal, hashed on them and shown with them.

    Refuses assignment: ``__init__`` sets attributes by ``_set`` or ``_hold``. A mutable subclass restores
    ``object``'s ``__setattr__`` and ``__delattr__`` and sets ``__hash__`` to None.
    """

    __slots__ = _fields = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self._fields:  # as tuples compare: identical or equal
            a, b = getattr(self, name), getattr(other, name)
            if a is not b and not a == b:
                return False
        return True

    def __hash__(self):
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__

    def _hold(self, *values) -> None:  # sets the attributes __slots__ names, in order
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __setstate__(self, state):  # copy and pickle: a __dict__, or slots and a __dict__ of caches, dropped
        for name, value in (state[1] if isinstance(state, tuple) else state).items():
            _set(self, name, value)

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"


class Rational(_Record):
    """Exact rational value."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: Fraction):
        _set(self, "value", exact_fraction(value))


class Rank(_Record):
    """Exact integer rank."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"rank must be an int, got {value!r}")
        _set(self, "value", value)


class Score(_Record):
    """Fixed-precision decimal value.

    ``precision`` counts the significant decimal digits the value is
    correct to, and the digits it prints with (``format_ord``'s ``~p``); it
    must be at least MIN_PRECISION. The stored decimal may carry more
    digits (e.g. an exact sum of precision-digit terms). Scores compare by
    their exact Decimal values, whatever their precisions.
    """

    __slots__ = _fields = ("value", "precision")

    def __init__(self, value: Decimal, precision: int = DEFAULT_PRECISION):
        if isinstance(value, float):
            raise TypeError("scores must come from decimal strings, not floats")
        if not isinstance(value, Decimal):
            value = Decimal(value)
        if not value.is_finite():
            raise OrderError(f"score must be finite, got {value}")
        if not isinstance(precision, int) or precision < MIN_PRECISION:
            raise OrderError(f"precision must be an int >= {MIN_PRECISION}, got {precision!r}")
        _set(self, "value", value)
        _set(self, "precision", precision)


class LexTuple(_Record):
    """Ordered list of values compared lexicographically (first unequal wins)."""

    __slots__ = _fields = ("components",)

    def __init__(self, components: tuple):
        comps = tuple(components)
        if not comps:
            raise EmptyTupleError("a lexicographic tuple needs at least one component")
        for c in comps:
            if not isinstance(c, (Rational, Rank, Score, LexTuple)):
                raise TypeError(f"tuple component is not an ordered value: {c!r}")
        _set(self, "components", comps)


OrdValue = Rational | Rank | Score | LexTuple


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


def on_grid(fractions: list) -> tuple:
    """(d, numerators): d is the lcm of the denominators, each fraction is its numerator over d."""
    d = lcm(*{f.denominator for f in fractions})
    return d, [f.numerator * (d // f.denominator) for f in fractions]


def plain(value: OrdValue):
    """An int, a Decimal, a (numerator, denominator) or a tuple of these: what ``grid_keys`` reads."""
    if isinstance(value, LexTuple):
        return tuple(plain(c) for c in value.components)
    if isinstance(value, Rational):
        return value.value.numerator, value.value.denominator
    return value.value


def grid_keys(kind, column: list) -> list:
    """Exact sort keys, which compare as the values do, of a column of ``plain`` data of ``shape`` kind.

    Rationals key as ints over the lcm of their denominators, ranks and Scores (precision plays
    no part) as themselves, and tuples position by position over the column.
    """
    if kind == "rational":
        d = lcm(*{q for _, q in column})
        return [p * (d // q) for p, q in column]
    if isinstance(kind, tuple):
        return list(zip(*(grid_keys(k, list(c)) for k, c in zip(kind[1:], zip(*column)))))
    return column


def sort_keys(values: list) -> list:
    """Exact sort keys of a non-empty list of same-shape values."""
    return grid_keys(shape(values[0]), [plain(v) for v in values])


def compare(a: OrdValue, b: OrdValue) -> Ordering:
    """Three-valued comparison of two same-shape values by their ``sort_keys``.

    Tuples compare lexicographically (the first unequal component decides).
    The result is a total order.

    Raises ShapeMismatchError when the shapes differ (including tuples of
    different arity or componentwise shape).
    """
    sa, sb = shape(a), shape(b)
    if sa != sb:
        raise ShapeMismatchError(f"cannot compare shape {sa!r} with {sb!r}")
    ka, kb = sort_keys([a, b])
    return Ordering.LT if ka < kb else Ordering.GT if ka > kb else Ordering.EQ


def to_rational(value: OrdValue) -> Rational:
    """Explicit conversion to Rational; there is no implicit cross-shape coercion."""
    if isinstance(value, Rational):
        return value
    if isinstance(value, (Rank, Score)):
        return Rational(Fraction(value.value))
    raise OrderError("tuples have no canonical rational form")


def format_ord(value: OrdValue) -> str:
    """Report form: p/q rationals, plain integers, tagged scientific scores, parenthesized tuples."""
    if isinstance(value, (Rational, Rank)):
        return str(value.value)
    if isinstance(value, Score):
        return f"{value.value:E}~p{value.precision}"
    if isinstance(value, LexTuple):
        return "(" + ", ".join(format_ord(c) for c in value.components) + ")"
    raise TypeError(f"not an ordered value: {value!r}")
