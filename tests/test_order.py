import itertools
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ordstat import (
    EmptyTupleError,
    OrderError,
    Ordering,
    Rank,
    Rational,
    Score,
    ShapeMismatchError,
    compare,
    format_ord,
    lex_tuple,
    shape,
    to_rational,
)
from ordstat.order import MIN_PRECISION, sort_keys


def rat(x) -> Rational:
    return Rational(Fraction(x))


def pair(a, b):
    return lex_tuple([rat(a), rat(b)])


class TestCompare:
    def test_lex_second_component_breaks_tie(self):
        assert compare(pair(1, "3/10"), pair(1, "7/10")) is Ordering.LT

    def test_lex_first_component_dominates(self):
        assert compare(pair(2, "1/10"), pair(1, "9/10")) is Ordering.GT

    def test_lex_identity(self):
        assert compare(pair(3, "1/2"), pair(3, "1/2")) is Ordering.EQ

    def test_rational_exact(self):
        assert compare(rat("1/3"), rat("333333/1000000")) is Ordering.GT
        assert compare(rat("1/3"), rat("2/6")) is Ordering.EQ

    def test_rank(self):
        assert compare(Rank(5), Rank(7)) is Ordering.LT

    def test_cross_shape_raises(self):
        with pytest.raises(ShapeMismatchError):
            compare(Rank(1), rat(1))

    def test_tuple_arity_mismatch_raises(self):
        with pytest.raises(ShapeMismatchError):
            compare(pair(1, 2), lex_tuple([rat(1)]))

    def test_tuple_component_shape_mismatch_raises(self):
        with pytest.raises(ShapeMismatchError):
            compare(lex_tuple([Rank(1), rat(2)]), lex_tuple([rat(1), rat(2)]))

    def test_sort_key_is_exact_and_ignores_score_precision(self):
        a = lex_tuple([Rank(1), Score("-1.5", 8)])
        b = lex_tuple([Rank(1), Score("-1.50", 20)])
        c = lex_tuple([Rank(1), Score("-1.4999999999", 10)])
        ka, kb, kc = sort_keys([a, b, c])
        assert ka == kb == (1, Decimal("-1.5"))
        assert ka < kc
        # Rationals key as ints over the lcm of the batch's denominators, per tuple position.
        keys = sort_keys([lex_tuple([rat(Fraction(-1, 3)), rat(Fraction(1, 2))]),
                          lex_tuple([rat(Fraction(-1, 2)), rat(Fraction(5, 7))])])
        assert keys == [(-2, 7), (-3, 10)]

    def test_antisymmetry_exhaustive(self):
        grid = [Rank(v) for v in range(-2, 3)]
        flip = {Ordering.LT: Ordering.GT, Ordering.GT: Ordering.LT, Ordering.EQ: Ordering.EQ}
        for a, b in itertools.product(grid, repeat=2):
            assert compare(b, a) is flip[compare(a, b)]

    def test_transitivity_exhaustive(self):
        grid = [rat(Fraction(k, 3)) for k in range(-3, 4)]
        no_gt = lambda a, b: compare(a, b) is not Ordering.GT
        for values in (grid, SCORE_GRID):
            for a, b, c in itertools.product(values, repeat=3):
                if no_gt(a, b) and no_gt(b, c):
                    assert no_gt(a, c)
        flip = {Ordering.LT: Ordering.GT, Ordering.GT: Ordering.LT, Ordering.EQ: Ordering.EQ}
        for a, b in itertools.product(SCORE_GRID, repeat=2):
            assert compare(b, a) is flip[compare(a, b)]
            assert (compare(a, b) is Ordering.EQ) is (a.value == b.value)


# The precision-4 chain 100.0 / 100.9 / 101.8, two values a relative 1e-9
# apart at precision 10, and equal values at different exponents and precisions.
SCORE_GRID = [
    Score("100.0", 4),
    Score("100.9", 4),
    Score("101.8", 4),
    Score("100.00", 50),
    Score("1.0000000000", 10),
    Score("1.000000001", 10),
    Score("1", 4),
    Score("1.0", 50),
    Score("1E+0", 12),
    Score("-1.5", 8),
    Score("-1.50", 20),
    Score("0", 4),
    Score("-0E-5", 9),
]


class TestScore:
    def test_equal_values_not_flagged(self):
        assert compare(Score("1.5", 10), Score("1.50", 10)) is Ordering.EQ

    def test_near_equal_values_are_strict(self):
        a = Score(Decimal("1.0000000000"), 10)
        b = Score(Decimal("1.000000001"), 10)  # a relative distance of 1e-9, below 10**-precision
        assert compare(a, b) is Ordering.LT
        assert compare(b, a) is Ordering.GT

    def test_beyond_threshold_is_strict(self):
        assert compare(Score("1.0", 10), Score("1.001", 10)) is Ordering.LT

    def test_threshold_is_decided_exactly(self):
        # Values a relative 0.01 apart, or 1e-16, at precision 4 compare by
        # their exact Decimals, with no rounding of the distance.
        a, b = Score("989999999999.9999", 4), Score("1000000000000.0000", 4)
        assert compare(a, b) is Ordering.LT
        assert compare(b, a) is Ordering.GT
        assert compare(Score("990000000000.0000", 4), b) is Ordering.LT
        assert compare(Score("1000000000000.0001", 4), b) is Ordering.GT

    def test_mixed_precision_decides_by_value(self):
        assert compare(Score(Decimal("1.0"), 50), Score(Decimal("1.000001"), 5)) is Ordering.LT
        assert compare(Score("1.5", 50), Score("1.50", 4)) is Ordering.EQ

    def test_zero_vs_tiny_is_strict(self):
        assert compare(Score("0", 10), Score("1E-60", 10)) is Ordering.LT

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Score(1.5, 10)

    @pytest.mark.parametrize("precision", [1, 2, 3])
    def test_precision_below_four_rejected(self, precision):
        # At precision 1 a rank cascade's tie window would tie 1 with -1.
        with pytest.raises(OrderError, match="precision must be an int >= 4"):
            Score("1", precision)

    def test_precision_four_accepted(self):
        assert MIN_PRECISION == 4
        assert compare(Score("1", 4), Score("-1", 4)) is Ordering.GT


class TestLexTuple:
    def test_empty_raises(self):
        with pytest.raises(EmptyTupleError):
            lex_tuple([])

    def test_arity_one_isomorphic_to_component(self):
        grid = [rat(Fraction(k, 2)) for k in range(-2, 3)]
        for a, b in itertools.product(grid, repeat=2):
            assert compare(lex_tuple([a]), lex_tuple([b])) is compare(a, b)

    def test_nesting_flattening_invariance(self):
        # Brute force over all ordered triples from a 3-element grid, checked
        # against the plain-tuple comparison of the underlying fractions.
        grid = [Fraction(0), Fraction(1, 2), Fraction(1)]
        for a, b, c in itertools.product(grid, repeat=3):
            for a2, b2, c2 in itertools.product(grid, repeat=3):
                nested = compare(
                    lex_tuple([lex_tuple([rat(a), rat(b)]), rat(c)]),
                    lex_tuple([lex_tuple([rat(a2), rat(b2)]), rat(c2)]),
                )
                flat = compare(
                    lex_tuple([rat(a), rat(b), rat(c)]),
                    lex_tuple([rat(a2), rat(b2), rat(c2)]),
                )
                assert nested is flat
                expected = Ordering.LT if (a, b, c) < (a2, b2, c2) else (
                    Ordering.GT if (a, b, c) > (a2, b2, c2) else Ordering.EQ
                )
                assert flat is expected

    def test_shape_includes_components(self):
        assert shape(pair(1, 2)) == ("tuple", "rational", "rational")
        assert shape(lex_tuple([Rank(1), Score("0.5")])) == ("tuple", "rank", "score")


@given(st.fractions(), st.fractions())
def test_rational_comparison_matches_fraction_order(a, b):
    got = compare(Rational(a), Rational(b))
    assert got is (Ordering.LT if a < b else Ordering.GT if a > b else Ordering.EQ)


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=4),
       st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=4))
def test_tuple_comparison_matches_python_tuples(xs, ys):
    if len(xs) != len(ys):
        with pytest.raises(ShapeMismatchError):
            compare(lex_tuple([Rank(v) for v in xs]), lex_tuple([Rank(v) for v in ys]))
        return
    got = compare(lex_tuple([Rank(v) for v in xs]), lex_tuple([Rank(v) for v in ys]))
    t = tuple(xs), tuple(ys)
    assert got is (Ordering.LT if t[0] < t[1] else Ordering.GT if t[0] > t[1] else Ordering.EQ)


class TestConversionsAndFormat:
    def test_to_rational(self):
        assert to_rational(Rank(5)).value == 5
        assert to_rational(Score("1.25")).value == Fraction(5, 4)
        assert to_rational(rat("2/4")).value == Fraction(1, 2)

    def test_tuple_has_no_rational_form(self):
        from ordstat import OrderError

        with pytest.raises(OrderError):
            to_rational(pair(1, 2))

    def test_format_forms(self):
        assert format_ord(rat("2/4")) == "1/2"
        assert format_ord(Rank(7)) == "7"
        assert format_ord(pair(1, "1/3")) == "(1, 1/3)"
        assert format_ord(Score("-1.25", 50)).endswith("~p50")
