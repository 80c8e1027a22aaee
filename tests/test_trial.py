import itertools
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordstat import (
    CompareContext,
    FiniteTrial,
    InvalidPFunctionError,
    InvalidStatisticError,
    InvalidTrialError,
    MissingOutcomeError,
    Ordering,
    PFunction,
    Rank,
    Rational,
    ScaleBelowOneError,
    Score,
    Statistic,
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
from ordstat.trial import attained_cdf, cdf_at

F = Fraction


def trial(*pairs) -> FiniteTrial:
    return FiniteTrial(tuple(pairs))


def rank_stat(**values) -> Statistic:
    return Statistic({label: Rank(v) for label, v in values.items()})


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

    def test_zero_probability_allowed_and_flagged(self):
        t = trial(("a", F(1)), ("b", F(0)))
        assert t.zero_probability_labels() == ("b",)

    def test_float_probability_rejected(self):
        with pytest.raises(TypeError):
            trial(("a", 0.5), ("b", 0.5))


class TestStatistic:
    def test_mixed_shapes_rejected(self):
        with pytest.raises(InvalidStatisticError):
            Statistic({"a": Rank(1), "b": Rational(F(1))})

    def test_empty_rejected(self):
        with pytest.raises(InvalidStatisticError):
            Statistic({})


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
            phat = induce_phat(t, stat)
            for x in t.labels:
                for y in t.labels:
                    if compare(stat[x], stat[y]) is not Ordering.GT:
                        assert phat[x] <= phat[y]


class TestImpreciseTies:
    def _score_stat(self):
        from decimal import Decimal

        from ordstat import Score

        return Statistic(
            {
                "a": Score(Decimal("1.0000000000"), 10),
                "b": Score(Decimal("1.000000001"), 10),  # within the 1e-8 threshold
                "c": Score(Decimal("2"), 10),
            }
        )

    def test_warning_surfaced_without_context(self):
        from ordstat import ImpreciseTieWarning

        with pytest.warns(ImpreciseTieWarning):
            phat = induce_phat(THREE, self._score_stat())
        assert phat["a"] == phat["b"] == F(3, 4)  # near-equal scores tied
        assert phat["c"] == 1

    def test_context_owner_sees_flag_no_warning(self):
        import warnings

        from ordstat import CompareContext

        ctx = CompareContext()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            induce_phat(THREE, self._score_stat(), ctx)
        assert ctx.imprecise

    def test_theorem_checks_on_context_owned_results_stay_silent(self):
        import warnings

        ctx = CompareContext()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phat = induce_phat(THREE, self._score_stat(), ctx)
            rpf = build_randomized(THREE, self._score_stat(), ctx)
            assert check_idempotence(THREE, phat)
            midp_validity_check(THREE, rpf)
        assert ctx.imprecise


def listing_answers(pairs, stat) -> set:
    """induce_phat, induced_measure and build_randomized over every listing of the outcomes."""
    answers = set()
    for listing in itertools.permutations(pairs):
        t = FiniteTrial(listing)
        ctx = CompareContext()
        answers.add((
            frozenset(induce_phat(t, stat, ctx).values.items()),
            tuple(induced_measure(t, stat, ctx)),
            frozenset(build_randomized(t, stat, ctx).values.items()),
        ))
    return answers


@st.composite
def chained_score_trials(draw):
    """Score or (Score, Rank) statistics at precision 4 on 100.0 + 0.3k.

    Scores up to three steps apart tie and four steps apart do not, so ties
    chain: 100.0 ties 100.9, 100.9 ties 101.8, yet 100.0 < 101.8.
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


class TestOrderIndependence:
    def test_threshold_chain_witness(self):
        # At precision 4, a ties b and b ties c, but a < c: one sort-adjacent group.
        stat = Statistic({"a": Score("100.0", 4), "b": Score("100.9", 4), "c": Score("101.8", 4)})
        pairs = tuple(FiniteTrial.uniform("abc").outcomes)
        assert listing_answers(pairs, stat) == {(
            frozenset({"a": F(1), "b": F(1), "c": F(1)}.items()),
            ((Score("100.0", 4), F(1)),),
            frozenset({"a": (F(0), F(1)), "b": (F(0), F(1)), "c": (F(0), F(1))}.items()),
        )}

    def test_equal_scores_of_two_precisions(self):
        # 100.0 ties 100.9 at precision 4 but not at 50; the tie is decided by the coarser precision.
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

    def test_validity_on_dense_grid(self, trial_corpus):
        for t, stat in trial_corpus[:20]:
            cdf = attained_cdf(t, induce_phat(t, stat))
            for k in range(0, 1001, 7):
                eps = F(k, 1000)
                assert cdf_at(cdf, eps) <= eps


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
