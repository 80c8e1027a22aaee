"""Randomized and mid p-values over finite trials.

A randomized p-value splits each outcome's induced p-value into the mass
strictly below, low(x) = P[f < f(x)], plus a uniformly drawn share of the
tie mass atom(x) = P[f = f(x)]. The closed form low(x) + r*atom(x) and the
lexicographic construction (refine f by a uniform tie-breaking coordinate,
then induce) define the same function; ``lex_equivalence_check`` verifies
that identity by exact enumeration on a rational grid, and
``exactness_cdf`` verifies analytically that the randomized p-function is
exact: P[value <= eps] = eps for every eps. Mid p-values replace the random
share by 1/2 and are checked, not assumed, to be valid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .order import CompareContext, Rational, exact_fraction, lex_tuple
from .trial import (
    FiniteTrial,
    MissingOutcomeError,
    PFunction,
    PFunctionClass,
    Statistic,
    TrialError,
    classify_pfunction,
    induce_phat,
    product_trial,
    value_groups,
)


class ROutOfRangeError(TrialError):
    """The tie-breaking number r must lie in [0, 1]."""


class EpsOutOfRangeError(TrialError):
    """The level eps must lie in [0, 1]."""


@dataclass(frozen=True)
class RandomizedPFunction:
    """Per-outcome (low, atom) pairs: P[f < f(x)] and P[f = f(x)]."""

    values: dict

    def low(self, label: str) -> Fraction:
        return self._pair(label)[0]

    def atom(self, label: str) -> Fraction:
        return self._pair(label)[1]

    def _pair(self, label: str):
        try:
            return self.values[label]
        except KeyError:
            raise MissingOutcomeError(f"unknown outcome label: {label!r}") from None

    def __contains__(self, label) -> bool:
        return label in self.values


def build_randomized(trial: FiniteTrial, stat: Statistic, ctx: CompareContext | None = None) -> RandomizedPFunction:
    """Split each outcome's induced p-value into strict mass and tie mass."""
    out = {}
    below = Fraction(0)
    for _, members, mass in value_groups(trial, stat, ctx):
        out.update(dict.fromkeys(members, (below, mass)))
        below += mass
    return RandomizedPFunction(out)


def randomized_pvalue(rpf: RandomizedPFunction, label: str, r) -> Fraction:
    """Closed form low(x) + r*atom(x) for an explicit r in [0, 1]."""
    r = exact_fraction(r)
    if not 0 <= r <= 1:
        raise ROutOfRangeError(f"r must be in [0, 1], got {r}")
    low, atom = rpf._pair(label)
    return low + r * atom


def mid_pvalue(rpf: RandomizedPFunction, label: str) -> Fraction:
    """low(x) + atom(x)/2: the mean of P[f < f(x)] and P[f <= f(x)]."""
    low, atom = rpf._pair(label)
    return low + atom / 2


def draw_uniform_r(seed: int) -> Fraction:
    """Deterministic r = k/2**64 from a seeded 64-bit draw."""
    k = random.Random(seed).getrandbits(64)
    return Fraction(k, 2**64)


def exactness_cdf(rpf: RandomizedPFunction, trial: FiniteTrial, eps) -> Fraction:
    """P[randomized p-value <= eps] under trial x Uniform[0,1], in closed form.

    For each outcome the r-measure of {r : low + r*atom <= eps} is
    clamp((eps - low)/atom, 0, 1) when atom > 0, else the indicator of
    low <= eps (reachable only for zero-probability outcomes). The result
    equals eps exactly for every eps: the randomized p-function is exact.
    """
    eps = exact_fraction(eps)
    if not 0 <= eps <= 1:
        raise EpsOutOfRangeError(f"eps must be in [0, 1], got {eps}")
    total = Fraction(0)
    for label, prob in trial.outcomes:
        low, atom = rpf._pair(label)
        if atom > 0:
            share = min(Fraction(1), max(Fraction(0), (eps - low) / atom))
        else:
            share = Fraction(1 if low <= eps else 0)
        total += prob * share
    return total


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
    for label in trial.labels:
        for r in grid:
            if phat[f"({label},{r})"] != randomized_pvalue(rpf, label, r):
                return False
    return True


def midp_validity_check(trial: FiniteTrial, rpf: RandomizedPFunction) -> PFunctionClass:
    """Classify the mid-p-values of ``rpf``; NOT_PFUNCTION (with witness) is a legitimate verdict."""
    mid = PFunction({label: mid_pvalue(rpf, label) for label in trial.labels})
    return classify_pfunction(trial, mid)
