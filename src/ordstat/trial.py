"""Finite probability trials, statistics over them, and induced p-functions.

Probabilities are exact rationals end to end: the validity and exactness
classifications below are decided by exact comparisons, never by floats.
The central operation is ``induce_phat``, which maps a statistic f to the
p-function x -> P[f <= f(x)]; the classification machinery then checks the
properties this induced function provably has (self-inducing, range-exact)
and the properties arbitrary candidate p-functions may lack.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .order import (
    LexTuple,
    OrdValue,
    Rational,
    Score,
    exact_fraction,
    shape,
    sort_key,
)


class TrialError(Exception):
    """Base class for trial-level contract violations."""


class InvalidTrialError(TrialError):
    """The outcome list violates the finite-trial invariants."""


class InvalidStatisticError(TrialError):
    """The statistic values are empty or of mixed shape."""


class InvalidPFunctionError(TrialError):
    """A candidate p-function value falls outside [0, 1]."""


class MissingOutcomeError(TrialError):
    """A statistic or p-function is not total on the trial's outcomes."""


class ScaleBelowOneError(TrialError):
    """Scaling a p-function by c < 1 does not preserve validity."""


class TheoremCheckError(TrialError):
    """An identity that must hold by theorem failed: implementation bug."""


@dataclass(frozen=True)
class FiniteTrial:
    """Finite probability space with exact rational outcome probabilities.

    Outcomes are (label, probability) pairs; labels are distinct, every
    probability is >= 0 and the probabilities sum to exactly 1. Outcomes of
    probability zero are permitted (they never affect classifications) but
    are worth flagging in reports.
    """

    outcomes: tuple

    def __post_init__(self):
        pairs = tuple((label, exact_fraction(prob)) for label, prob in self.outcomes)
        if not pairs:
            raise InvalidTrialError("a trial needs at least one outcome")
        seen = set()
        for label, prob in pairs:
            if not isinstance(label, str) or not label:
                raise InvalidTrialError(f"outcome labels must be non-empty strings, got {label!r}")
            if label in seen:
                raise InvalidTrialError(f"duplicate outcome label: {label!r}")
            seen.add(label)
            if prob < 0:
                raise InvalidTrialError(f"negative probability for {label!r}: {prob}")
        total = sum(prob for _, prob in pairs)
        if total != 1:
            raise InvalidTrialError(f"probabilities sum to {total}, expected exactly 1")
        object.__setattr__(self, "outcomes", pairs)
        object.__setattr__(self, "_prob", dict(pairs))

    @classmethod
    def uniform(cls, labels) -> "FiniteTrial":
        labels = tuple(labels)
        n = len(labels)
        return cls(tuple((label, Fraction(1, n)) for label in labels))

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.outcomes)

    def prob(self, label: str) -> Fraction:
        try:
            return self._prob[label]
        except KeyError:
            raise MissingOutcomeError(f"unknown outcome label: {label!r}") from None

    def zero_probability_labels(self) -> tuple:
        return tuple(label for label, prob in self.outcomes if prob == 0)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __contains__(self, label) -> bool:
        return label in self._prob


@dataclass(frozen=True)
class Statistic:
    """Total map from outcome labels to ordered values of one shared shape."""

    values: dict

    def __post_init__(self):
        vals = dict(self.values)
        if not vals:
            raise InvalidStatisticError("a statistic needs at least one value")
        shapes = {shape(v) for v in vals.values()}
        if len(shapes) > 1:
            raise InvalidStatisticError(f"statistic values must share one shape, found {len(shapes)}")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, label) -> OrdValue:
        return self.values[label]

    def __contains__(self, label) -> bool:
        return label in self.values


@dataclass(frozen=True)
class PFunction:
    """Map from outcome labels to exact rationals in [0, 1]."""

    values: dict

    def __post_init__(self):
        vals = {label: exact_fraction(v) for label, v in dict(self.values).items()}
        if not vals:
            raise InvalidPFunctionError("a p-function needs at least one value")
        for label, v in vals.items():
            if not 0 <= v <= 1:
                raise InvalidPFunctionError(f"value for {label!r} outside [0, 1]: {v}")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, label) -> Fraction:
        return self.values[label]

    def as_statistic(self) -> Statistic:
        """View the p-function as a rational-valued statistic (for re-inducing)."""
        return Statistic({label: Rational(v) for label, v in self.values.items()})


class Validity(enum.Enum):
    NOT_PFUNCTION = "not-p-function"
    CONSERVATIVE = "conservative"
    RANGE_EXACT = "range-exact"


@dataclass(frozen=True)
class PFunctionClass:
    """Classification verdict; NOT_PFUNCTION carries the violating witness."""

    kind: Validity
    witness: Fraction | None = None
    witness_mass: Fraction | None = None


def _statistic_values(trial: FiniteTrial, stat: Statistic) -> list:
    missing = [label for label in trial.labels if label not in stat]
    if missing:
        raise MissingOutcomeError(f"statistic undefined on outcomes: {missing}")
    return [stat[label] for label in trial.labels]


def _has_score(s) -> bool:
    if isinstance(s, tuple):
        return any(_has_score(part) for part in s)
    return s == "score"


def _canonical(value: OrdValue):
    # Picks one of several equal values: the lowest precisions, then the lowest Decimal as_tuple().
    if isinstance(value, LexTuple):
        return tuple(_canonical(c) for c in value.components)
    if isinstance(value, Score):
        return value.precision, value.value.as_tuple()
    return ()


def value_groups(trial: FiniteTrial, stat: Statistic) -> list:
    """Ascending groups of (value, labels, mass) with equal statistic values merged.

    Values sort on ``order.sort_key`` and equal keys share a group, so the
    result does not depend on the order the outcomes are listed in, and
    labels inside a group keep the trial's outcome order. Equal Scores may
    differ in precision or exponent; such a group's value is the one with
    the lowest precisions, then the lowest ``Decimal.as_tuple()``.
    """
    values = _statistic_values(trial, stat)
    labels = trial.labels
    keys = [sort_key(v) for v in values]
    order = sorted(range(len(values)), key=keys.__getitem__)
    groups = [[order[0]]]
    for prev, i in zip(order, order[1:]):
        if keys[i] == keys[prev]:
            groups[-1].append(i)
        else:
            groups.append([i])
    scored = _has_score(shape(values[0]))
    return [
        (
            min((values[i] for i in g), key=_canonical) if scored else values[g[0]],
            [labels[i] for i in g],
            sum(trial.prob(labels[i]) for i in g),
        )
        for g in groups
    ]


def induce_phat(trial: FiniteTrial, stat: Statistic) -> PFunction:
    """Induced p-function: p(x) = total probability of {y : f(y) <= f(x)}.

    All values are exact rationals, and f(y) <= f(x) is decided exactly.
    """
    out = {}
    cum = Fraction(0)
    for _, members, mass in value_groups(trial, stat):
        cum += mass
        out.update(dict.fromkeys(members, cum))
    return PFunction(out)


def induced_measure(trial: FiniteTrial, stat: Statistic) -> list:
    """Distinct statistic values in ascending order with their total mass."""
    return [(value, mass) for value, _, mass in value_groups(trial, stat)]


def check_idempotence(trial: FiniteTrial, pfunc: PFunction) -> bool:
    """Whether inducing ``pfunc`` as a rational statistic reproduces it exactly.

    A theorem check on the p-function ``induce_phat`` returned: any induced
    p-function is self-induced, so False indicates a bug.
    """
    return induce_phat(trial, pfunc.as_statistic()) == pfunc


def attained_cdf(trial: FiniteTrial, pfunc: PFunction) -> list:
    """Ascending (value, P[pfunc <= value]) pairs over the attained values."""
    missing = [label for label in trial.labels if label not in pfunc.values]
    if missing:
        raise MissingOutcomeError(f"p-function undefined on outcomes: {missing}")
    mass = {}
    for label in trial.labels:
        mass[pfunc[label]] = mass.get(pfunc[label], Fraction(0)) + trial.prob(label)
    cdf = []
    cum = Fraction(0)
    for value in sorted(mass):
        cum += mass[value]
        cdf.append((value, cum))
    return cdf


def cdf_at(cdf: list, eps: Fraction) -> Fraction:
    """P[pfunc <= eps] from an attained CDF (step function, right-continuous)."""
    values = [value for value, _ in cdf]
    i = bisect_right(values, eps)
    return cdf[i - 1][1] if i else Fraction(0)


def classify_pfunction(trial: FiniteTrial, pfunc: PFunction) -> PFunctionClass:
    """Classify a candidate p-function by its exact attained-value CDF.

    Validity P[pfunc <= eps] <= eps for all eps in [0,1] holds iff it holds
    at every attained value (the CDF is constant between them); range-exact
    iff equality holds at every attained value; conservative iff valid but
    not range-exact. The first violating value (ascending) is the witness.
    """
    cdf = attained_cdf(trial, pfunc)
    for value, cum in cdf:
        if cum > value:
            return PFunctionClass(Validity.NOT_PFUNCTION, witness=value, witness_mass=cum)
    if all(cum == value for value, cum in cdf):
        return PFunctionClass(Validity.RANGE_EXACT)
    return PFunctionClass(Validity.CONSERVATIVE)


def pvalue_kinds(trial: FiniteTrial, pfunc: PFunction) -> dict:
    """Per-outcome verdict: 'exact' where P[pfunc <= value] equals the value.

    'conservative' where it is below the value, 'invalid' where it exceeds it.
    """
    cdf = dict(attained_cdf(trial, pfunc))
    kinds = {}
    for label in trial.labels:
        value = pfunc[label]
        kinds[label] = "exact" if cdf[value] == value else "conservative" if cdf[value] < value else "invalid"
    return kinds


def scale_pfunction(pfunc: PFunction, c) -> PFunction:
    """Pointwise min(1, c * value) for c >= 1; preserves validity."""
    c = exact_fraction(c)
    if c < 1:
        raise ScaleBelowOneError(f"scale factor must be >= 1, got {c}")
    return PFunction({label: min(Fraction(1), c * v) for label, v in pfunc.values.items()})


def product_trial(t1: FiniteTrial, t2: FiniteTrial) -> FiniteTrial:
    """Independent product; outcome labels are the pair "(left,right)".

    Pathological labels containing the separator can collide in the joined
    form; the FiniteTrial constructor rejects such collisions.
    """
    return FiniteTrial(
        tuple(
            (f"({l1},{l2})", p1 * p2)
            for l1, p1 in t1.outcomes
            for l2, p2 in t2.outcomes
        )
    )
