"""Randomized and mid p-values over finite trials.

A randomized p-value splits each outcome's induced p-value into the mass
strictly below, low(x) = P[f < f(x)], plus a uniformly drawn share of the
tie mass atom(x) = P[f = f(x)]. The closed form low(x) + r*atom(x) and the
lexicographic construction (refine f by a uniform tie-breaking coordinate,
then induce) define the same function; ``lex_equivalence_check`` verifies
that identity by exact enumeration on a rational grid. The randomized
p-function is exact: P[value <= eps] = eps for every eps in [0, 1].
The probability is piecewise linear in eps with knots at each outcome's
low and low + atom: ``exactness_cdf`` evaluates it at one eps, and
``exactness_sweep`` decides the identity on all of [0, 1] at once. Mid
p-values replace the random share by 1/2 and are checked, not assumed, to
be valid. All of this is int arithmetic on the trial's grid: a split built
from the trial is held as ints k over D, a mid-p-value is k/2D, and a split
given as Fractions is held over the lcm of its own denominators.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .order import Rational, exact_fraction, lex_tuple, on_grid
from .trial import (
    FiniteTrial,
    MissingOutcomeError,
    PFunction,
    PFunctionClass,
    Statistic,
    TrialError,
    _cumulative,
    _Held,
    _on_outcomes,
    classify_pfunction,
    induce_phat,
    product_trial,
)


class ROutOfRangeError(TrialError):
    """The tie-breaking number r must lie in [0, 1]."""


class EpsOutOfRangeError(TrialError):
    """The level eps must lie in [0, 1]."""


@dataclass(frozen=True)
class RandomizedPFunction(_Held):
    """Per-outcome (low, atom) pairs: P[f < f(x)] and P[f = f(x)], built as Fractions when read.

    ``split`` holds them as ints over ``denominator``: the trial's D, or the lcm of the given pairs'.
    """

    values: dict

    def __post_init__(self):
        values = dict(self.values)
        d, parts = on_grid([part for pair in values.values() for part in pair])
        vars(self).update(values=values, denominator=d, split=dict(zip(values, zip(parts[::2], parts[1::2]))))

    def low(self, label: str) -> Fraction:
        return Fraction(self._on([label])[0][0], self.denominator)

    def atom(self, label: str) -> Fraction:
        return Fraction(self._on([label])[0][1], self.denominator)

    def _on(self, labels) -> list:
        try:
            return [self.split[label] for label in labels]
        except KeyError as e:
            raise MissingOutcomeError(f"unknown outcome label: {e.args[0]!r}") from None

    def __contains__(self, label) -> bool:
        return label in self.split


def build_randomized(trial: FiniteTrial, stat: Statistic) -> RandomizedPFunction:
    """Split each outcome's induced p-value into strict mass and tie mass, as ints over the trial's D."""
    keys, d = _on_outcomes(trial, stat.keys, "statistic"), trial.denominator
    pairs, below = {}, 0
    for key, at in _cumulative(keys, trial.weights).items():
        pairs[key] = below, at - below
        below = at
    split = dict(zip(trial.labels, map(pairs.__getitem__, keys)))
    return RandomizedPFunction._made(
        lambda: {label: (Fraction(low, d), Fraction(atom, d)) for label, (low, atom) in split.items()},
        denominator=d, split=split)


def randomized_pvalue(rpf: RandomizedPFunction, label: str, r) -> Fraction:
    """Closed form low(x) + r*atom(x) for an explicit r in [0, 1]."""
    r = exact_fraction(r)
    if not 0 <= r <= 1:
        raise ROutOfRangeError(f"r must be in [0, 1], got {r}")
    low, atom = rpf._on([label])[0]
    return (low + r * atom) / rpf.denominator


def mid_pvalue(rpf: RandomizedPFunction, label: str) -> Fraction:
    """low(x) + atom(x)/2: the mean of P[f < f(x)] and P[f <= f(x)]."""
    low, atom = rpf._on([label])[0]
    return Fraction(2 * low + atom, 2 * rpf.denominator)


def draw_uniform_r(seed: int) -> Fraction:
    """Deterministic r = k/2**64 from a seeded 64-bit draw."""
    k = random.Random(seed).getrandbits(64)
    return Fraction(k, 2**64)


def _sweep(rpf: RandomizedPFunction, trial: FiniteTrial, levels) -> tuple:
    """F(eps) = P[low + r*atom <= eps] under trial x Uniform[0,1], swept over its knots.

    Outcomes sharing a (low, atom) with atom > 0 add slope mass/atom on
    [low, low + atom], and those with atom <= 0 a jump of their mass at low.
    The masses are summed from the trial, not taken to be atom, so a wrong
    split shows. Points are ints t over q, the lcm of the split's grid and
    the levels' denominators; F is the int m*q*D*F, where m clears the
    slopes' denominators (1 for a split built from the trial).

    Returns (the levels, F at each, the first point p in [0, 1] where F(p)
    or its left limit is not p, or None).
    """
    levels = [exact_fraction(e) for e in levels]
    for eps in levels:
        if not 0 <= eps.numerator <= eps.denominator:
            raise EpsOutOfRangeError(f"eps must be in [0, 1], got {eps}")
    q, d, masses = lcm(rpf.denominator, *{eps.denominator for eps in levels}), trial.denominator, defaultdict(int)
    marks, scale = [eps.numerator * (q // eps.denominator) for eps in levels], q // rpf.denominator
    for pair, weight in zip(rpf._on(trial.labels), trial.weights):
        masses[pair] += weight
    masses = {(low * scale, atom * scale): w for (low, atom), w in masses.items() if w}
    m = lcm(*(atom // gcd(q * w, atom) for (_, atom), w in masses.items() if atom > 0))
    jumps, slopes = defaultdict(int), defaultdict(int)
    for (low, atom), w in masses.items():
        if atom > 0:
            slopes[low] += m * q * w // atom
            slopes[low + atom] -= m * q * w // atom
        else:
            jumps[low] += m * q * w
    at, first, cdf, rate = {}, None, 0, 0
    points = sorted({0, q, *marks, *slopes, *jumps})
    for prev, p in zip(points[:1] + points, points):
        left = cdf = cdf + rate * (p - prev)
        cdf = at[p] = cdf + jumps.get(p, 0)
        rate += slopes.get(p, 0)
        if first is None and 0 <= p <= q and (cdf != m * d * p or p and left != m * d * p):
            first = Fraction(p, q)
    return levels, [Fraction(at[t], m * q * d) for t in marks], first


def exactness_cdf(rpf: RandomizedPFunction, trial: FiniteTrial, eps) -> Fraction:
    """P[randomized p-value <= eps] under trial x Uniform[0,1]; it is eps, as the p-function is exact.

    Each outcome adds its mass times clamp((eps - low)/atom, 0, 1) when
    atom > 0, else times the indicator of low <= eps.
    """
    return _sweep(rpf, trial, [eps])[1][0]


def exactness_sweep(rpf: RandomizedPFunction, trial: FiniteTrial, levels=()) -> tuple:
    """Decide P[randomized p-value <= eps] = eps on all of [0, 1] in one pass.

    At every knot, at 0, 1 and at each level p, both F(p) and its left
    limit are compared with p. F and eps are linear between consecutive
    points, so equality at all of them proves F(eps) = eps on [0, 1].

    Returns (first failing point or None, the levels e with F(e) != e).
    """
    levels, values, first = _sweep(rpf, trial, levels)
    return first, [e for e, value in zip(levels, values) if value != e]


def lex_equivalence_check(trial: FiniteTrial, stat: Statistic, grid_n: int) -> bool:
    """Exact identity of the lexicographic and closed-form definitions.

    Builds the product trial with a uniform grid {1/N, ..., N/N}, refines
    the statistic to (f(x), k/N) ordered lexicographically, induces the
    p-function on the product, and compares it with the closed form at
    every grid point. Must return True; False indicates a bug.
    """
    if grid_n < 1:
        raise ValueError(f"grid size must be >= 1, got {grid_n}")
    rpf = build_randomized(trial, stat)
    grid = [Fraction(k, grid_n) for k in range(1, grid_n + 1)]
    grid_trial = FiniteTrial(tuple((str(r), Fraction(1, grid_n)) for r in grid))
    prod = product_trial(trial, grid_trial)
    refined = Statistic(
        {
            f"({label},{r})": lex_tuple([stat[label], Rational(r)])
            for label in trial.labels
            for r in grid
        }
    )
    phat = induce_phat(prod, refined)
    return all(phat[f"({label},{r})"] == randomized_pvalue(rpf, label, r) for label in trial.labels for r in grid)


def mid_pfunction(trial: FiniteTrial, rpf: RandomizedPFunction) -> PFunction:
    """The mid-p-value low(x) + atom(x)/2 of every outcome, as ints over twice the split's denominator."""
    mids = (2 * low + atom for low, atom in rpf._on(trial.labels))
    return PFunction._over(dict(zip(trial.labels, mids)), 2 * rpf.denominator)


def midp_validity_check(trial: FiniteTrial, rpf: RandomizedPFunction) -> PFunctionClass:
    """Classify the mid-p-values of ``rpf``; NOT_PFUNCTION (with witness) is a legitimate verdict."""
    return classify_pfunction(trial, mid_pfunction(trial, rpf))
