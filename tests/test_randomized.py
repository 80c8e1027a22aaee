from fractions import Fraction

import pytest

from ordstat import (
    EpsOutOfRangeError,
    FiniteTrial,
    PFunction,
    RandomizedPFunction,
    Rank,
    ROutOfRangeError,
    Statistic,
    Validity,
    build_randomized,
    classify_pfunction,
    draw_uniform_r,
    exactness_cdf,
    induce_phat,
    lex_equivalence_check,
    mid_pvalue,
    midp_validity_check,
    randomized_pvalue,
)

F = Fraction

SINGLETON = FiniteTrial((("a", F(1)),))
FAIR_PAIR = FiniteTrial((("a", F(1, 2)), ("b", F(1, 2))))
THIRDS = FiniteTrial((("a", F(1, 3)), ("b", F(2, 3))))


def rank_stat(**values) -> Statistic:
    return Statistic({label: Rank(v) for label, v in values.items()})


class TestBuildRandomized:
    def test_singleton(self):
        rpf = build_randomized(SINGLETON, rank_stat(a=0))
        assert (rpf.low("a"), rpf.atom("a")) == (F(0), F(1))

    def test_fair_pair(self):
        rpf = build_randomized(FAIR_PAIR, rank_stat(a=0, b=1))
        # summation oracle: below/at masses computed by hand
        assert (rpf.low("a"), rpf.atom("a")) == (F(0), F(1, 2))
        assert (rpf.low("b"), rpf.atom("b")) == (F(1, 2), F(1, 2))

    def test_constant(self):
        rpf = build_randomized(THIRDS, rank_stat(a=7, b=7))
        assert (rpf.low("a"), rpf.atom("a")) == (F(0), F(1))
        assert (rpf.low("b"), rpf.atom("b")) == (F(0), F(1))

    def test_invariants_on_corpus(self, trial_corpus):
        for trial, stat in trial_corpus[:40]:
            rpf = build_randomized(trial, stat)
            phat = induce_phat(trial, stat)
            atoms = {}
            for label in trial.labels:
                low, atom = rpf.low(label), rpf.atom(label)
                assert low >= 0
                assert low + atom == phat[label]
                if trial.prob(label) > 0:
                    assert atom >= trial.prob(label)
                atoms[(low, atom)] = atom
            assert sum(atoms.values()) == 1


class TestRandomizedPValue:
    def test_singleton_r_three_tenths(self):
        rpf = build_randomized(SINGLETON, rank_stat(a=0))
        assert randomized_pvalue(rpf, "a", F(3, 10)) == F(3, 10)

    def test_r_one_recovers_phat(self, trial_corpus):
        for trial, stat in trial_corpus[:20]:
            rpf = build_randomized(trial, stat)
            phat = induce_phat(trial, stat)
            for label in trial.labels:
                assert randomized_pvalue(rpf, label, 1) == phat[label]
                assert randomized_pvalue(rpf, label, 0) == rpf.low(label)

    def test_fair_pair_upper_outcome(self):
        rpf = build_randomized(FAIR_PAIR, rank_stat(a=0, b=1))
        assert randomized_pvalue(rpf, "b", F(1, 2)) == F(3, 4)

    def test_monotone_in_r(self):
        rpf = build_randomized(FAIR_PAIR, rank_stat(a=0, b=1))
        grid = [F(k, 8) for k in range(9)]
        values = [randomized_pvalue(rpf, "b", r) for r in grid]
        assert values == sorted(values)

    def test_r_out_of_range(self):
        rpf = build_randomized(SINGLETON, rank_stat(a=0))
        with pytest.raises(ROutOfRangeError):
            randomized_pvalue(rpf, "a", F(3, 2))


class TestLexEquivalence:
    def test_small_grid(self):
        assert lex_equivalence_check(THIRDS, rank_stat(a=1, b=0), 4)

    def test_singleton_grid_values_are_uniform_ranks(self):
        # uniform rank oracle: on the product of a singleton with the N-grid,
        # the induced p-values must be exactly 1/N..N/N.
        from ordstat import induce_phat as ip, product_trial, lex_tuple, Rational

        stat = rank_stat(a=0)
        n = 10
        grid = [F(k, n) for k in range(1, n + 1)]
        grid_trial = FiniteTrial(tuple((str(r), F(1, n)) for r in grid))
        prod = product_trial(SINGLETON, grid_trial)
        refined = Statistic(
            {f"(a,{r})": lex_tuple([stat["a"], Rational(r)]) for r in grid}
        )
        phat = ip(prod, refined)
        assert sorted(phat.values.values()) == grid
        assert lex_equivalence_check(SINGLETON, stat, n)

    def test_constant_statistic_pattern(self):
        stat = rank_stat(a=3, b=3)
        assert lex_equivalence_check(FAIR_PAIR, stat, 2)
        rpf = build_randomized(FAIR_PAIR, stat)
        for label in ("a", "b"):
            assert randomized_pvalue(rpf, label, F(1, 2)) == F(1, 2)
            assert randomized_pvalue(rpf, label, F(1)) == F(1)


class TestExactnessCdf:
    def test_boundaries(self):
        rpf = build_randomized(THIRDS, rank_stat(a=0, b=1))
        assert exactness_cdf(rpf, THIRDS, 0) == 0
        assert exactness_cdf(rpf, THIRDS, 1) == 1

    def test_one_third(self):
        rpf = build_randomized(THIRDS, rank_stat(a=0, b=1))
        assert exactness_cdf(rpf, THIRDS, F(1, 3)) == F(1, 3)

    def test_eps_out_of_range(self):
        rpf = build_randomized(SINGLETON, rank_stat(a=0))
        with pytest.raises(EpsOutOfRangeError):
            exactness_cdf(rpf, SINGLETON, F(7, 5))

    def test_zero_probability_outcome_branch(self):
        t = FiniteTrial((("a", F(1)), ("b", F(0))))
        rpf = build_randomized(t, rank_stat(a=0, b=1))
        assert rpf.atom("b") == 0  # unique value of a zero-probability outcome
        for k in range(8):
            assert exactness_cdf(rpf, t, F(k, 7)) == F(k, 7)


class TestMidP:
    def test_singleton_is_half(self):
        rpf = build_randomized(SINGLETON, rank_stat(a=0))
        assert mid_pvalue(rpf, "a") == F(1, 2)

    def test_uniform_injective_closed_form(self):
        # k-th smallest of n equiprobable distinct values -> (2k-1)/(2n),
        # cross-checked against the enumeration oracle.
        n = 7
        t = FiniteTrial.uniform([f"o{i}" for i in range(n)])
        stat = rank_stat(**{f"o{i}": i for i in range(n)})
        rpf = build_randomized(t, stat)
        for k in range(1, n + 1):
            label = f"o{k - 1}"
            assert mid_pvalue(rpf, label) == F(2 * k - 1, 2 * n)
            below = sum(t.prob(y) for y in t.labels if stat[y].value < stat[label].value)
            at = sum(t.prob(y) for y in t.labels if stat[y].value == stat[label].value)
            assert mid_pvalue(rpf, label) == below + at / 2

    def test_equals_randomized_at_half(self, trial_corpus):
        for trial, stat in trial_corpus[:20]:
            rpf = build_randomized(trial, stat)
            for label in trial.labels:
                assert mid_pvalue(rpf, label) == randomized_pvalue(rpf, label, F(1, 2))


class TestMidPValidity:
    def test_singleton_not_pfunction(self):
        got = midp_validity_check(SINGLETON, build_randomized(SINGLETON, rank_stat(a=0)))
        assert got.kind is Validity.NOT_PFUNCTION
        assert got.witness == F(1, 2)
        assert got.witness_mass == F(1)

    def test_uniform_two_injective(self):
        got = midp_validity_check(FAIR_PAIR, build_randomized(FAIR_PAIR, rank_stat(a=1, b=2)))
        rpf = build_randomized(FAIR_PAIR, rank_stat(a=1, b=2))
        assert {mid_pvalue(rpf, "a"), mid_pvalue(rpf, "b")} == {F(1, 4), F(3, 4)}
        assert got.kind is Validity.NOT_PFUNCTION
        assert got.witness == F(1, 4)

    def test_classifies_the_given_split(self):
        # No statistic gives these splits: each is classified as handed in.
        conservative = RandomizedPFunction({"a": (F(1, 2), F(1, 2)), "b": (F(1, 2), F(1))})
        assert midp_validity_check(FAIR_PAIR, conservative).kind is Validity.CONSERVATIVE
        invalid = RandomizedPFunction({"a": (F(0), F(1, 3)), "b": (F(0), F(1))})
        got = midp_validity_check(THIRDS, invalid)
        assert (got.kind, got.witness, got.witness_mass) == (Validity.NOT_PFUNCTION, F(1, 6), F(1, 3))

    def test_control_induced_phat_is_range_exact(self):
        phat = induce_phat(FAIR_PAIR, rank_stat(a=1, b=2))
        assert classify_pfunction(FAIR_PAIR, phat).kind is Validity.RANGE_EXACT


class TestDrawR:
    def test_deterministic_and_in_range(self):
        r1, r2 = draw_uniform_r(7), draw_uniform_r(7)
        assert r1 == r2
        assert 0 <= r1 <= 1
        assert r1.denominator <= 2**64
        assert draw_uniform_r(8) != r1
