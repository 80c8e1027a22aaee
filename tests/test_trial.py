import itertools
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordstat import (
    FiniteTrial,
    InvalidPFunctionError,
    InvalidStatisticError,
    InvalidTrialError,
    LexTuple,
    MissingOutcomeError,
    Ordering,
    PFunction,
    Rank,
    Rational,
    ScaleBelowOneError,
    Score,
    Statistic,
    TrialError,
    Validity,
    build_randomized,
    check_idempotence,
    classify_pfunction,
    compare,
    induce_phat,
    induced_measure,
    lex_tuple,
    midp_validity_check,
    product_trial,
    pvalue_kinds,
    scale_pfunction,
)
from ordstat.order import exact_fraction
from ordstat.trial import _canonical, value_groups

F = Fraction


def trial(*pairs) -> FiniteTrial:
    return FiniteTrial(tuple(pairs))


def rank_stat(**values) -> Statistic:
    return Statistic({label: Rank(v) for label, v in values.items()})


def fraction_cdf(t: FiniteTrial, pfunc, levels) -> list:
    """P[pfunc <= eps] at each eps of ascending ``levels``, summed in Fractions over the outcomes sorted by value."""
    ranked, cdf, cum, i = sorted((pfunc[label], prob) for label, prob in t.outcomes), [], F(0), 0
    for eps in levels:
        while i < len(ranked) and ranked[i][0] <= eps:
            cum, i = cum + ranked[i][1], i + 1
        cdf.append(cum)
    return cdf


THREE = trial(("a", F(1, 2)), ("b", F(1, 4)), ("c", F(1, 4)))


def phat_oracle(t: FiniteTrial, plain_values: dict) -> dict:
    """Independent p-hat: direct summation over all outcome pairs."""
    return {
        x: sum((t.prob(y) for y in t.labels if plain_values[y] <= plain_values[x]), F(0))
        for x in t.labels
    }


class TestFiniteTrial:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InvalidTrialError):
            trial(("a", F(1, 2)), ("b", F(1, 3)))

    def test_negative_probability_rejected(self):
        with pytest.raises(InvalidTrialError):
            trial(("a", F(3, 2)), ("b", F(-1, 2)))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidTrialError):
            trial(("a", F(1, 2)), ("a", F(1, 2)))

    def test_empty_rejected(self):
        with pytest.raises(InvalidTrialError):
            FiniteTrial(())

    @pytest.mark.parametrize("kind", [str, type("Label", (str,), {})])
    def test_labels_of_any_str_type(self, kind):
        a, b = kind("a"), kind("b")
        t = trial((a, F(1, 4)), (b, F(3, 4)))
        assert (t.labels, t.prob("b"), "a" in t) == (("a", "b"), F(3, 4), True)
        for outcomes, message in [
            (((a, F(1, 2)), (kind("a"), F(1, 2))), "duplicate outcome label: 'a'"),
            (((a, F(1, 2)), (kind(""), F(1, 2))), "outcome labels must be non-empty strings, got ''"),
            (((a, F(1, 2)), (7, F(1, 2))), "outcome labels must be non-empty strings, got 7"),
            (((a, F(3, 2)), (b, F(-1, 2))), "negative probability for 'b': -1/2"),
        ]:
            with pytest.raises(InvalidTrialError) as err:
                trial(*outcomes)
            assert str(err.value) == message

    def test_zero_probability_allowed_and_flagged(self):
        t = trial(("a", F(1)), ("b", F(0)))
        assert t.zero_probability_labels() == ("b",)

    def test_float_probability_rejected(self):
        with pytest.raises(TypeError):
            trial(("a", 0.5), ("b", 0.5))

    def test_shared_probability_objects(self):
        # Each distinct object is converted once; the trial is the one fresh objects give, in any iterable.
        quarter, half = F(1, 4), "1/2"
        shared = FiniteTrial(iter([("a", quarter), ("b", quarter), ("c", half)]))
        fresh = trial(("a", F(1, 4)), ("b", F(2, 8)), ("c", F(1, 2)))
        assert (shared, shared.weights, shared.denominator) == (fresh, (1, 1, 2), 4)
        minus = F(-1, 4)
        with pytest.raises(InvalidTrialError, match="negative probability for 'b': -1/4"):
            trial(("a", F(3, 2)), ("b", minus), ("c", minus))


class TestStatistic:
    def test_mixed_shapes_rejected(self):
        with pytest.raises(InvalidStatisticError):
            Statistic({"a": Rank(1), "b": Rational(F(1))})

    def test_empty_rejected(self):
        with pytest.raises(InvalidStatisticError):
            Statistic({})

    def test_shared_value_objects(self):
        one = Rank(1)
        assert Statistic({"a": one, "b": one}) == Statistic({"a": Rank(1), "b": Rank(1)})
        with pytest.raises(InvalidStatisticError, match="found 2"):
            Statistic({"a": one, "b": one, "c": Rational(F(1))})
        third = F(1, 3)
        stat = PFunction({"a": third, "b": third, "c": F(1, 3)}).as_statistic()
        assert stat == Statistic({"a": Rational(third), "b": Rational(third), "c": Rational(third)})


@st.composite
def chained_score_trials(draw):
    """Score or (Score, Rank) statistics at precision 4 on 100.0 + 0.3k.

    A precision-4 threshold would tie scores up to three steps apart and
    not four, so its ties would chain: 100.0 with 100.9, 100.9 with 101.8,
    yet 100.0 < 101.8. The exact order keeps every step distinct.
    """
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any))
    steps = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    values = [Score(Decimal(1000 + 3 * k).scaleb(-1), 4) for k in steps]
    if draw(st.booleans()):
        ranks = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        values = [lex_tuple([v, Rank(r)]) for v, r in zip(values, ranks)]
    labels = [f"o{i}" for i in range(n)]
    pairs = tuple((label, F(w, sum(weights))) for label, w in zip(labels, weights))
    return pairs, Statistic(dict(zip(labels, values)))


class TestInducePhat:
    def test_three_outcome_example(self):
        stat = rank_stat(a=0, b=1, c=2)
        phat = induce_phat(THREE, stat)
        assert phat.values == {"a": F(1, 2), "b": F(3, 4), "c": F(1)}
        assert phat.values == phat_oracle(THREE, {"a": 0, "b": 1, "c": 2})

    def test_constant_statistic_is_one(self):
        phat = induce_phat(THREE, rank_stat(a=5, b=5, c=5))
        assert all(v == 1 for v in phat.values.values())

    def test_singleton(self):
        t = trial(("a", F(1)))
        assert induce_phat(t, rank_stat(a=42)).values == {"a": F(1)}

    def test_missing_outcome(self):
        with pytest.raises(MissingOutcomeError):
            induce_phat(THREE, rank_stat(a=0, b=1))

    def test_matches_oracle_with_ties(self):
        stat = rank_stat(a=1, b=0, c=1)
        phat = induce_phat(THREE, stat)
        assert phat.values == phat_oracle(THREE, {"a": 1, "b": 0, "c": 1})

    def test_monotone_in_statistic(self, trial_corpus):
        for t, stat in trial_corpus[:30]:
            assert_monotone(t, stat)

    @settings(max_examples=60, deadline=None)
    @given(chained_score_trials())
    def test_monotone_in_chained_scores(self, case):
        pairs, stat = case
        assert_monotone(FiniteTrial(pairs), stat)


def assert_monotone(t: FiniteTrial, stat: Statistic) -> None:
    """p(x) <= p(y) when f(x) is not above f(y), and p(x) > p(y) when it is and x has mass."""
    phat = induce_phat(t, stat)
    for x in t.labels:
        for y in t.labels:
            if compare(stat[x], stat[y]) is not Ordering.GT:
                assert phat[x] <= phat[y]
            elif t.prob(x):
                assert phat[x] > phat[y]


class TestNearEqualScores:
    """Scores a relative 1e-9 apart at precision 10 are distinct values."""

    STAT = Statistic(
        {
            "a": Score(Decimal("1.0000000000"), 10),
            "b": Score(Decimal("1.000000001"), 10),
            "c": Score(Decimal("2"), 10),
        }
    )

    def test_near_equal_scores_are_distinct(self):
        assert induce_phat(THREE, self.STAT).values == {"a": F(1, 2), "b": F(3, 4), "c": F(1)}

    def test_induced_measure_keeps_near_equal_scores_apart(self):
        assert induced_measure(THREE, self.STAT) == [
            (Score("1.0000000000", 10), F(1, 2)),
            (Score("1.000000001", 10), F(1, 4)),
            (Score("2", 10), F(1, 4)),
        ]

    def test_theorem_checks_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phat = induce_phat(THREE, self.STAT)
            induced_measure(THREE, self.STAT)
            rpf = build_randomized(THREE, self.STAT)
            assert check_idempotence(THREE, phat)
            # Mid-p-values 1/4, 5/8, 7/8: P[mid <= 1/4] = 1/2.
            got = midp_validity_check(THREE, rpf)
        assert (got.kind, got.witness, got.witness_mass) == (Validity.NOT_PFUNCTION, F(1, 4), F(1, 2))


def listing_answers(pairs, stat) -> set:
    """induce_phat, induced_measure and build_randomized over every listing of the outcomes."""
    answers = set()
    for listing in itertools.permutations(pairs):
        t = FiniteTrial(listing)
        answers.add((
            frozenset(induce_phat(t, stat).values.items()),
            tuple(induced_measure(t, stat)),
            frozenset(build_randomized(t, stat).values.items()),
        ))
    return answers


class TestOrderIndependence:
    def test_threshold_chain_witness(self):
        # A precision-4 threshold would tie a with b and b with c, but not a
        # with c. Ordered exactly, they are three values.
        stat = Statistic({"a": Score("100.0", 4), "b": Score("100.9", 4), "c": Score("101.8", 4)})
        pairs = tuple(FiniteTrial.uniform("abc").outcomes)
        third = F(1, 3)
        assert listing_answers(pairs, stat) == {(
            frozenset({"a": third, "b": 2 * third, "c": F(1)}.items()),
            ((Score("100.0", 4), third), (Score("100.9", 4), third), (Score("101.8", 4), third)),
            frozenset({"a": (F(0), third), "b": (third, third), "c": (2 * third, third)}.items()),
        )}

    def test_equal_scores_of_two_precisions(self):
        # a and b are one value, c another; the group of a and b takes b's lower precision.
        stat = Statistic({"a": Score("100.0", 50), "b": Score("100.0", 4), "c": Score("100.9", 50)})
        pairs = tuple(FiniteTrial.uniform("abc").outcomes)
        assert listing_answers(pairs, stat) == {(
            frozenset({"a": F(2, 3), "b": F(2, 3), "c": F(1)}.items()),
            ((Score("100.0", 4), F(2, 3)), (Score("100.9", 50), F(1, 3))),
            frozenset({"a": (F(0), F(2, 3)), "b": (F(0), F(2, 3)), "c": (F(2, 3), F(1, 3))}.items()),
        )}

    @settings(max_examples=60, deadline=None)
    @given(chained_score_trials())
    def test_answers_do_not_depend_on_outcome_order(self, case):
        pairs, stat = case
        assert len(listing_answers(pairs, stat)) == 1


class TestInducedMeasure:
    def test_shared_low_value(self):
        stat = rank_stat(a=1, b=1, c=2)
        measure = induced_measure(THREE, stat)
        assert [(v.value, p) for v, p in measure] == [(1, F(3, 4)), (2, F(1, 4))]

    def test_injective_carries_outcome_probabilities(self):
        measure = induced_measure(THREE, rank_stat(a=3, b=1, c=2))
        assert [(v.value, p) for v, p in measure] == [(1, F(1, 4)), (2, F(1, 4)), (3, F(1, 2))]

    def test_constant_single_pair(self):
        measure = induced_measure(THREE, rank_stat(a=9, b=9, c=9))
        assert [(v.value, p) for v, p in measure] == [(9, F(1))]

    def test_masses_sum_to_one(self, trial_corpus):
        for t, stat in trial_corpus[:30]:
            assert sum(p for _, p in induced_measure(t, stat)) == 1

    def test_group_weights_are_ints_over_the_trial_denominator(self, trial_corpus):
        for t, stat in trial_corpus:
            groups = value_groups(t, stat)
            assert all(type(weight) is int for *_, weight in groups)
            assert sum(weight for *_, weight in groups) == t.denominator
            assert [mass for _, mass in induced_measure(t, stat)] == [F(w, t.denominator) for *_, w in groups]


@st.composite
def tied_statistics(draw):
    """A shape, and a trial and a tie-rich statistic of it: rank, rational, tuple, Score, or a tuple holding a Score.

    Tied rationals may be written over different denominators; tied Scores in different precisions
    and exponents. Every outcome gets its own value object.
    """
    kind = draw(st.sampled_from(["rank", "rational", "tuple", "score", "score-tuple"]))

    def value():
        k = draw(st.integers(0, 2))
        if kind == "rank":
            return Rank(k)
        if kind == "rational":
            q = draw(st.integers(1, 3))
            return Rational(F(k * q, 2 * q))
        if kind == "tuple":
            return lex_tuple([Rank(k), Rational(F(draw(st.integers(0, 1)), 2))])
        e = draw(st.integers(0, 3))
        score = Score(Decimal(k * 10**e).scaleb(-e), draw(st.sampled_from([4, 10])))
        return score if kind == "score" else lex_tuple([Rank(draw(st.integers(0, 1))), score])

    n = draw(st.integers(1, 8))
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    labels = [f"o{i}" for i in range(n)]
    t = FiniteTrial(tuple((label, F(w, sum(weights))) for label, w in zip(labels, weights)))
    return kind, t, Statistic({label: value() for label in labels})


class TestGroupValue:
    @settings(max_examples=300, deadline=None)
    @given(tied_statistics())
    def test_group_value_is_the_canonical_member(self, case):
        # Every group takes its members' _canonical minimum, the very object. Members of a group
        # without a Score are all equal, so only a Score-holding shape can pick among differing values.
        kind, t, stat = case
        for value, labels, _ in value_groups(t, stat):
            assert value is min(map(stat.__getitem__, labels), key=_canonical)
            assert kind.startswith("score") or len({stat[x] for x in labels}) == 1

    def test_equal_scores_take_the_lowest_precision(self):
        stat = Statistic({"a": Score("1.00", 10), "b": Score("1.0", 10), "c": Score("1.000", 4)})
        ((value, labels, weight),) = value_groups(THREE, stat)
        assert value.value.as_tuple() == Decimal("1.000").as_tuple() and value.precision == 4
        assert (labels, weight) == (["a", "b", "c"], THREE.denominator)


class TestIdempotence:
    def test_strictly_increasing(self):
        assert check_idempotence(THREE, induce_phat(THREE, rank_stat(a=0, b=1, c=2)))
        # recompute both sides through the summation oracle
        once = phat_oracle(THREE, {"a": 0, "b": 1, "c": 2})
        assert phat_oracle(THREE, once) == once

    def test_constant(self):
        assert check_idempotence(THREE, induce_phat(THREE, rank_stat(a=1, b=1, c=1)))

    def test_conservative_pfunction_is_not_self_induced(self):
        # Inducing {a: 3/4, b: 1} on a fair pair gives {a: 1/2, b: 1}.
        t = trial(("a", F(1, 2)), ("b", F(1, 2)))
        assert not check_idempotence(t, PFunction({"a": F(3, 4), "b": F(1)}))


class TestClassify:
    def test_induced_is_range_exact(self):
        phat = induce_phat(THREE, rank_stat(a=0, b=1, c=1))
        assert classify_pfunction(THREE, phat).kind is Validity.RANGE_EXACT

    def test_constant_one_on_fair_pair_is_range_exact(self):
        t = trial(("a", F(1, 2)), ("b", F(1, 2)))
        got = classify_pfunction(t, PFunction({"a": F(1), "b": F(1)}))
        assert got.kind is Validity.RANGE_EXACT

    def test_half_on_singleton_is_not_pfunction(self):
        t = trial(("a", F(1)))
        got = classify_pfunction(t, PFunction({"a": F(1, 2)}))
        assert got.kind is Validity.NOT_PFUNCTION
        assert got.witness == F(1, 2)
        assert got.witness_mass == F(1)

    def test_conservative(self):
        t = trial(("a", F(1, 2)), ("b", F(1, 2)))
        got = classify_pfunction(t, PFunction({"a": F(3, 4), "b": F(1)}))
        assert got.kind is Validity.CONSERVATIVE

    def test_first_violation_is_witness(self):
        t = trial(("a", F(1, 2)), ("b", F(1, 4)), ("c", F(1, 4)))
        got = classify_pfunction(t, PFunction({"a": F(1, 4), "b": F(1, 2), "c": F(1)}))
        assert got.kind is Validity.NOT_PFUNCTION
        assert got.witness == F(1, 4)
        assert got.witness_mass == F(1, 2)

    def test_pvalue_kinds_of_induced_are_exact(self):
        phat = induce_phat(THREE, rank_stat(a=0, b=0, c=2))
        assert set(pvalue_kinds(THREE, phat).values()) == {"exact"}

    def test_pvalue_kinds_of_invalid_and_conservative(self):
        t = trial(("a", F(1, 2)), ("b", F(1, 2)))
        invalid = PFunction({"a": F(0), "b": F(1)})  # P[p <= 0] = 1/2 > 0
        assert classify_pfunction(t, invalid).kind is Validity.NOT_PFUNCTION
        assert pvalue_kinds(t, invalid) == {"a": "invalid", "b": "exact"}
        conservative = PFunction({"a": F(3, 4), "b": F(1)})
        assert pvalue_kinds(t, conservative) == {"a": "conservative", "b": "exact"}

    def test_zero_probability_outcomes(self):
        """They never change an induced p-function's verdict; a candidate's value attained only on them counts."""
        with_zero, without = trial(("a", F(1)), ("b", F(0))), trial(("a", F(1)))
        candidate = classify_pfunction(with_zero, PFunction({"a": F(1), "b": F(1, 2)}))
        assert candidate.kind is Validity.CONSERVATIVE
        assert candidate.kinds == {"a": "exact", "b": "conservative"}
        assert classify_pfunction(without, PFunction({"a": F(1)})).kind is Validity.RANGE_EXACT
        full, kept = trial(("a", F(1, 2)), ("z", F(0)), ("b", F(1, 2))), trial(("a", F(1, 2)), ("b", F(1, 2)))
        for a, z, b in itertools.product(range(3), repeat=3):
            got = classify_pfunction(full, induce_phat(full, rank_stat(a=a, z=z, b=b)))
            assert got == classify_pfunction(kept, induce_phat(kept, rank_stat(a=a, b=b)))
            assert got.kind is Validity.RANGE_EXACT

    def test_validity_on_dense_grid(self, trial_corpus):
        levels = [F(k, 1000) for k in range(0, 1001, 7)]
        for t, stat in trial_corpus[:20]:
            assert all(mass <= eps for mass, eps in zip(fraction_cdf(t, induce_phat(t, stat), levels), levels))


class TestScale:
    def test_identity_at_one(self):
        p = PFunction({"a": F(1, 2), "b": F(3, 4), "c": F(1)})
        assert scale_pfunction(p, 1) == p

    def test_doubling_clamps(self):
        p = PFunction({"a": F(1, 2), "b": F(3, 4), "c": F(1)})
        doubled = scale_pfunction(p, 2)
        expected = {label: min(F(1), 2 * v) for label, v in p.values.items()}
        assert doubled.values == expected == {"a": F(1), "b": F(1), "c": F(1)}

    def test_below_one_rejected(self):
        with pytest.raises(ScaleBelowOneError):
            scale_pfunction(PFunction({"a": F(1, 2)}), F(1, 2))

    @given(st.sampled_from([F(1), F(3, 2), F(2), F(10)]), st.integers(0, 2**30))
    def test_scaled_valid_pfunction_stays_valid(self, c, salt):
        import random

        rng = random.Random(salt)
        n = rng.randint(2, 6)
        weights = [rng.randint(1, 9) for _ in range(n)]
        t = FiniteTrial(tuple((f"o{i}", F(w, sum(weights))) for i, w in enumerate(weights)))
        stat = Statistic({f"o{i}": Rank(rng.randint(0, 2)) for i in range(n)})
        scaled = scale_pfunction(induce_phat(t, stat), c)
        assert classify_pfunction(t, scaled).kind is not Validity.NOT_PFUNCTION


class TestProductTrial:
    def test_fair_coin_squared(self):
        coin = trial(("h", F(1, 2)), ("t", F(1, 2)))
        prod = product_trial(coin, coin)
        assert len(prod) == 4
        assert all(p == F(1, 4) for _, p in prod.outcomes)

    def test_singleton_right_factor_is_isomorphic(self):
        one = trial(("z", F(1)))
        prod = product_trial(THREE, one)
        assert [p for _, p in prod.outcomes] == [p for _, p in THREE.outcomes]

    def test_pairwise_products(self):
        left = trial(("a", F(1, 3)), ("b", F(2, 3)))
        right = trial(("c", F(1, 2)), ("d", F(1, 2)))
        prod = product_trial(left, right)
        expected = {
            "(a,c)": F(1, 6),
            "(a,d)": F(1, 6),
            "(b,c)": F(1, 3),
            "(b,d)": F(1, 3),
        }
        assert dict(prod.outcomes) == expected
        # pairwise product oracle
        oracle = {
            f"({l1},{l2})": left.prob(l1) * right.prob(l2)
            for l1 in left.labels
            for l2 in right.labels
        }
        assert dict(prod.outcomes) == oracle

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=5),
           st.lists(st.integers(1, 9), min_size=1, max_size=5))
    def test_mass_always_one(self, ws1, ws2):
        t1 = FiniteTrial(tuple((f"a{i}", F(w, sum(ws1))) for i, w in enumerate(ws1)))
        t2 = FiniteTrial(tuple((f"b{i}", F(w, sum(ws2))) for i, w in enumerate(ws2)))
        assert sum(p for _, p in product_trial(t1, t2).outcomes) == 1


class TestPFunction:
    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidPFunctionError):
            PFunction({"a": F(3, 2)})
        with pytest.raises(InvalidPFunctionError):
            PFunction({"a": F(-1, 2)})

    def test_first_bad_value_after_valid_ones(self):
        # Every value is converted before any is range-checked; a range error names the first label holding a bad value.
        half, bad = F(1, 2), F(3, 2)
        with pytest.raises(TypeError, match=r"not an exact value: 0\.5"):
            PFunction({"a": half, "b": half, "c": bad, "d": 0.5})
        with pytest.raises(TypeError, match="not an exact value: True"):
            PFunction({"a": half, "b": "1/3", "c": True, "d": 0.5})
        with pytest.raises(InvalidPFunctionError, match=r"^value for 'c' outside \[0, 1\]: 3/2$"):
            PFunction({"a": half, "b": half, "c": bad, "d": F(-1), "e": bad})
        with pytest.raises(InvalidPFunctionError, match=r"^value for 'b' outside \[0, 1\]: -1$"):
            PFunction({"a": half, "b": -1, "c": bad})

    def test_one_conversion_per_distinct_object(self, monkeypatch):
        calls = []

        def spy(v):
            calls.append(v)
            return exact_fraction(v)

        monkeypatch.setattr("ordstat.trial.exact_fraction", spy)
        third, half = F(1, 3), F(1, 2)
        p = PFunction({"a": third, "b": half, "c": third, "d": "1/2", "e": half, "f": F(1, 3)})
        assert p.values == {"a": third, "b": half, "c": third, "d": half, "e": half, "f": third}
        assert p["a"] is p["c"] and p["b"] is p["e"]


BAD_LITERALS = {"float": 0.5, "bool": True, "none": None}


def literal(w: int, d: int, kind: str):
    """w/d written as ``kind``: a Fraction, a "w/d" string, an int where it is one, or a bad type."""
    if kind in BAD_LITERALS:
        return BAD_LITERALS[kind]
    v = F(w, d)
    if kind == "int" and v.denominator == 1:
        return v.numerator
    return f"{w}/{d}" if kind == "str" else v


def fresh(value):
    """An equal copy of an input value that shares no object with it (small ints and singletons aside)."""
    if isinstance(value, Fraction):
        return F(value.numerator, value.denominator)
    if isinstance(value, str):
        return value.encode().decode()
    if isinstance(value, float):
        return float(repr(value))
    if isinstance(value, Rank):
        return Rank(value.value)
    if isinstance(value, Rational):
        return Rational(fresh(value.value))
    if isinstance(value, Score):
        return Score(Decimal(str(value.value)), value.precision)
    if isinstance(value, LexTuple):
        return LexTuple(tuple(fresh(c) for c in value.components))
    return value


def outcome(build, *args):
    """What ``build(*args)`` gives: its result, or the type and message of the error it raises."""
    try:
        return build(*args)
    except (TrialError, TypeError) as e:
        return type(e), str(e)


@st.composite
def literal_lists(draw, kinds=("fraction", "str", "int")):
    """Literals w/d, equal (w, kind) pairs sharing one object, some replaced by bad types.

    d is mostly the weights' sum, so many lists are valid trial probabilities; weights run from -1 to 3.
    """
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    d = draw(st.sampled_from([max(1, sum(weights)), max(1, sum(weights)), 2, 3]))
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=n, max_size=n))
    for i, bad in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(sorted(BAD_LITERALS))), max_size=2)):
        kinds[i] = bad
    pool = {}
    return [pool.setdefault((w, kind), literal(w, d, kind)) for w, kind in zip(weights, kinds)]


ORD_VALUES = {
    "rank": Rank,
    "rational": lambda k: Rational(F(k, 2)),
    "score": lambda k: Score(Decimal(k).scaleb(-1), 4),
    "tuple": lambda k: lex_tuple([Rank(k % 2), Rational(F(k, 3))]),
}


class TestSharedInputs:
    """Inputs that share objects give what fresh copies give: the same object or the same first error."""

    @settings(max_examples=300)
    @given(literal_lists(), st.lists(st.sampled_from(["a", "b", "c", "d", "e", ""]), min_size=6, max_size=6))
    def test_finite_trial(self, probs, labels):
        shared = tuple(zip(labels, probs))
        copies = tuple((fresh(label), fresh(prob)) for label, prob in shared)
        got = outcome(FiniteTrial, shared)
        assert got == outcome(FiniteTrial, copies)
        if isinstance(got, FiniteTrial):
            again = FiniteTrial(copies)
            assert (got.outcomes, got.labels, got.weights, got.denominator) == (
                again.outcomes, again.labels, again.weights, again.denominator)
            assert type(got.weights) is tuple
        bad = [prob for prob in probs if prob is None or isinstance(prob, (bool, float))]
        if bad:
            # A bad type wins over any bad label, duplicate, negative weight or wrong sum.
            assert got == outcome(exact_fraction, bad[0])

    @given(st.lists(st.tuples(st.sampled_from(sorted(ORD_VALUES)), st.integers(0, 3)), min_size=1, max_size=6))
    def test_statistic(self, entries):
        pool = {}
        shared = {f"o{i}": pool.setdefault(entry, ORD_VALUES[entry[0]](entry[1])) for i, entry in enumerate(entries)}
        copies = {label: fresh(v) for label, v in shared.items()}
        assert outcome(Statistic, shared) == outcome(Statistic, copies)

    @settings(max_examples=300)
    @given(literal_lists(kinds=("fraction", "str", "int", "fraction")))
    def test_pfunction_and_as_statistic(self, values):
        shared = {f"o{i}": v for i, v in enumerate(values)}
        copies = {label: fresh(v) for label, v in shared.items()}
        got = outcome(PFunction, shared)
        assert got == outcome(PFunction, copies)
        if isinstance(got, PFunction):
            assert got.as_statistic() == PFunction(copies).as_statistic()
            assert got.as_statistic() == Statistic({label: Rational(v) for label, v in got.values.items()})
