"""The integer-grid arithmetic of trial and randomized against Fraction references.

Each reference below is the plain Fraction algorithm (sums of
probabilities, sorted Fraction CDFs, the Fraction knot sweep), written
here so that the library's int weights over the lcm denominator are
checked against arithmetic that shares none of their code. Trials mix
pairwise-coprime, repeated and unit denominators and zero-probability
outcomes; candidate p-functions and splits are drawn off the trial's grid.
"""

from collections import defaultdict
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordstat import (
    FiniteTrial,
    InvalidPFunctionError,
    LexTuple,
    PFunction,
    RandomizedPFunction,
    Rank,
    Rational,
    Score,
    Statistic,
    Validity,
    build_randomized,
    check_idempotence,
    classify_pfunction,
    exactness_cdf,
    exactness_sweep,
    induce_phat,
    induced_measure,
    lex_tuple,
    mid_pfunction,
    midp_validity_check,
    pvalue_kinds,
)

F = Fraction
DENOMINATORS = (1, 2, 3, 4, 5, 7, 9, 11, 13, 97, 2**31 - 1)
GRID = [F(k, 97) for k in range(98)]


@st.composite
def trials(draw, max_outcomes=9):
    """Probabilities k/d with d drawn from DENOMINATORS (so repeated, coprime and 1), the last taking the rest."""
    n = draw(st.integers(1, max_outcomes))
    probs, room = [], F(1)
    for _ in range(n - 1):
        d = draw(st.sampled_from(DENOMINATORS))
        p = F(draw(st.integers(0, room.numerator * d // room.denominator)), d)
        probs.append(p)
        room -= p
    probs.append(room)
    order = draw(st.permutations(range(n)))
    return FiniteTrial(tuple((f"o{i}", probs[j]) for i, j in enumerate(order)))


def rationals(lo=-6, hi=6):
    return st.builds(lambda k, d: Rational(F(k, d)), st.integers(lo, hi), st.sampled_from((1, 2, 3, 7)))


def scores():
    """Scores k/4 for k in [-4, 4], each written with 0-2 trailing zeros at precisions 4-6, so equal values differ."""
    return st.builds(lambda k, zeros, precision: Score(Decimal(25 * k * 10**zeros).scaleb(-2 - zeros), precision),
                     st.integers(-4, 4), st.integers(0, 2), st.integers(4, 6))


def nested(first, last):
    """Tuples (first, (rank 0 or 1, last))."""
    return st.builds(lambda a, r, b: lex_tuple([a, lex_tuple([r, b])]), first, st.builds(Rank, st.integers(0, 1)), last)


SHAPES = {
    "rank": st.builds(Rank, st.integers(-3, 3)),
    "rational": rationals(),
    "tuple": nested(rationals(-2, 2), rationals(-3, 0)),
    "score": scores(),
    "score-tuple": nested(scores(), scores()),
}


@st.composite
def trial_and_statistic(draw):
    trial = draw(trials())
    values = st.sampled_from(sorted(SHAPES)).flatmap(lambda shape: st.lists(
        SHAPES[shape], min_size=len(trial), max_size=len(trial)))
    return trial, Statistic(dict(zip(trial.labels, draw(values))))


def off_grid(lo=0, hi=1):
    """k/d in [lo, hi] over denominators that need not divide the trial's."""
    return st.sampled_from((1, 2, 3, 5, 6, 8, 12, 97, 194, 1001)).flatmap(
        lambda d: st.builds(lambda k: F(k, d), st.integers(lo * d, hi * d)))


# ---------------------------------------------------------------------------
# Fraction references


def ref_key(value):
    return tuple(ref_key(c) for c in value.components) if isinstance(value, LexTuple) else value.value


def ref_split(trial, stat) -> dict:
    """label -> (P[f < f(x)], P[f = f(x)]) by summing probabilities over all outcomes."""
    keys = {label: ref_key(stat[label]) for label in trial.labels}
    return {
        x: (sum((p for y, p in trial.outcomes if keys[y] < keys[x]), F(0)),
            sum((p for y, p in trial.outcomes if keys[y] == keys[x]), F(0)))
        for x in trial.labels
    }


def ref_cdf(trial, values: dict) -> list:
    mass = defaultdict(F)
    for label, prob in trial.outcomes:
        mass[values[label]] += prob
    cdf, cum = [], F(0)
    for value in sorted(mass):
        cum += mass[value]
        cdf.append((value, cum))
    return cdf


def ref_classify(trial, values: dict):
    cdf = ref_cdf(trial, values)
    for value, cum in cdf:
        if cum > value:
            return Validity.NOT_PFUNCTION, value, cum
    return (Validity.RANGE_EXACT if all(cum == value for value, cum in cdf) else Validity.CONSERVATIVE), None, None


def ref_kinds(trial, values: dict) -> dict:
    cdf = dict(ref_cdf(trial, values))
    return {x: "exact" if cdf[v] == v else "conservative" if cdf[v] < v else "invalid" for x, v in values.items()}


def ref_exactness_cdf(pairs: dict, trial, eps) -> Fraction:
    total = F(0)
    for label, prob in trial.outcomes:
        low, atom = pairs[label]
        share = min(F(1), max(F(0), (eps - low) / atom)) if atom > 0 else F(1 if low <= eps else 0)
        total += prob * share
    return total


def ref_sweep(pairs: dict, trial, levels) -> tuple:
    masses, jumps, slopes = defaultdict(F), defaultdict(F), defaultdict(F)
    for label, prob in trial.outcomes:
        masses[pairs[label]] += prob
    for (low, atom), mass in masses.items():
        if mass and atom > 0:
            slopes[low] += mass / atom
            slopes[low + atom] -= mass / atom
        elif mass:
            jumps[low] += mass
    points = sorted({F(0), F(1), *levels, *slopes, *jumps})
    failing, first, cdf, rate, prev = set(), None, F(0), F(0), points[0]
    for p in points:
        cdf += rate * (p - prev)
        left = cdf
        cdf += jumps.get(p, 0)
        rate += slopes.get(p, 0)
        prev = p
        if 0 <= p <= 1:
            if cdf != p:
                failing.add(p)
            if first is None and (cdf != p or (p > 0 and left != p)):
                first = p
    return first, [e for e in levels if e in failing]


def classified(result) -> tuple:
    return result.kind, result.witness, result.witness_mass


# ---------------------------------------------------------------------------


class TestGridAgainstFractions:
    @settings(max_examples=200, deadline=None)
    @given(trial_and_statistic())
    def test_induced_results(self, case):
        trial, stat = case
        split = ref_split(trial, stat)
        phat = {x: low + atom for x, (low, atom) in split.items()}
        assert sum(trial.weights) == trial.denominator
        assert [F(w, trial.denominator) for w in trial.weights] == [p for _, p in trial.outcomes]
        induced = induce_phat(trial, stat)
        assert induced.values == phat
        rpf = build_randomized(trial, stat)
        assert rpf.values == split
        measure = sorted({ref_key(stat[x]): atom for x, (_, atom) in split.items()}.items())
        assert [(ref_key(v), m) for v, m in induced_measure(trial, stat)] == measure
        assert induced == PFunction(phat) and induced.denominator == trial.denominator
        assert induced != PFunction({**phat, "extra": 1}) and PFunction({**phat, "extra": 1}) != induced
        for pfunc in (induced, PFunction(phat)):  # on the trial's D, and on the lcm of the values' own denominators
            assert check_idempotence(trial, pfunc)
            assert classified(classify_pfunction(trial, pfunc)) == ref_classify(trial, phat)
            assert pvalue_kinds(trial, pfunc) == ref_kinds(trial, phat)
        mids = {x: low + atom / 2 for x, (low, atom) in split.items()}
        midp = mid_pfunction(trial, rpf)
        assert midp == PFunction(mids) and midp.denominator == 2 * trial.denominator
        assert classified(midp_validity_check(trial, rpf)) == ref_classify(trial, mids)

    @settings(max_examples=200, deadline=None)
    @given(trials(), st.data())
    def test_candidate_pfunctions_off_the_grid(self, trial, data):
        values = {x: data.draw(off_grid(), label=x) for x in trial.labels}
        pfunc = PFunction(values)
        assert classified(classify_pfunction(trial, pfunc)) == ref_classify(trial, values)
        assert pvalue_kinds(trial, pfunc) == ref_kinds(trial, values)
        reinduced = {x: low + atom for x, (low, atom) in ref_split(trial, pfunc.as_statistic()).items()}
        assert check_idempotence(trial, pfunc) == (reinduced == values)

    def test_invalid_candidate_has_its_witness(self):
        trial = FiniteTrial((("a", F(1, 3)), ("b", F(2, 3))))
        got = classify_pfunction(trial, PFunction({"a": F(1, 5), "b": F(1, 2)}))
        assert classified(got) == (Validity.NOT_PFUNCTION, F(1, 5), F(1, 3))

    @settings(max_examples=200, deadline=None)
    @given(trial_and_statistic(), st.data())
    def test_exactness_at_any_eps_on_any_split(self, case, data):
        trial, stat = case
        pairs = dict(build_randomized(trial, stat).values)
        for x in data.draw(st.lists(st.sampled_from(trial.labels), max_size=2), label="corrupted"):
            pairs[x] = (data.draw(off_grid(-1, 1)), data.draw(off_grid(-1, 1)))
        rpf = RandomizedPFunction(pairs)
        eps = data.draw(off_grid(), label="eps")
        assert exactness_cdf(rpf, trial, eps) == ref_exactness_cdf(pairs, trial, eps)
        levels = data.draw(st.lists(off_grid(), max_size=4), label="levels")
        assert exactness_sweep(rpf, trial, GRID + levels) == ref_sweep(pairs, trial, GRID + levels)
        mids = {x: low + atom / 2 for x, (low, atom) in pairs.items()}
        if all(0 <= v <= 1 for v in mids.values()):
            assert classified(midp_validity_check(trial, rpf)) == ref_classify(trial, mids)
        else:
            with pytest.raises(InvalidPFunctionError):
                midp_validity_check(trial, rpf)

    @settings(max_examples=200, deadline=None)
    @given(trial_and_statistic(), st.integers(0, 8), st.sampled_from((1, 2, 3, 2**31 - 1)))
    def test_wrong_split_still_fails(self, case, i, step):
        trial, stat = case
        pairs = dict(build_randomized(trial, stat).values)
        positive = [x for x, p in trial.outcomes if p > 0]
        x = positive[i % len(positive)]
        low, atom = pairs[x]
        pairs[x] = (low + F(1, step * 7 * trial.denominator), atom)  # shifted off every grid in play
        rpf = RandomizedPFunction(pairs)
        first, bad = exactness_sweep(rpf, trial, GRID)
        assert first is not None
        assert (first, bad) == ref_sweep(pairs, trial, GRID)
