"""Finite probability trials, statistics over them, and induced p-functions.

Probabilities are exact rationals, held as int weights over D, the lcm of
a trial's denominators, and a p-function as int keys over a denominator
(D for an induced one, 2D for mid-p-values, else the lcm of its own
denominators): masses, induced p-values and the validity and exactness
classifications are int arithmetic, and Fractions are built when read.
The central operation is ``induce_phat``, which maps a statistic f to the
p-function x -> P[f <= f(x)]; the classification machinery then checks the
properties this induced function provably has (self-inducing, range-exact)
and the properties arbitrary candidate p-functions may lack. Every answer
sums masses through one kernel, ``_cumulative``: each distinct key in
ascending order with the weight of the outcomes at or below it. Induced
p-values, randomized splits (in ``randomized``), a p-function's CDF and
``value_groups``' masses are all read from that one table.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress

from .order import (
    LexTuple,
    OrdValue,
    Rational,
    Score,
    exact_fraction,
    grid_keys,
    on_grid,
    plain,
    shape,
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


class _Held:
    """``_made`` makes an instance of attributes already checked, whose ``values`` ``build()`` makes on first read."""

    @classmethod
    def _made(cls, build=None, **held):
        made = object.__new__(cls)
        vars(made).update(held, _build=build)
        return made

    def __getattr__(self, name):
        build = vars(self).get("_build")
        if name != "values" or build is None:
            raise AttributeError(name)
        values = vars(self)["values"] = build()
        return values


@dataclass(frozen=True)
class FiniteTrial(_Held):
    """Finite probability space with exact rational outcome probabilities.

    Outcomes are (label, probability) pairs; labels are distinct, every
    probability is >= 0 and the probabilities sum to exactly 1. Outcomes of
    probability zero are permitted but are worth flagging in reports: they
    never change an induced p-function's verdict, but a candidate's value
    attained only on them is checked like any other. The trial also holds
    ``labels``, the lcm D of the probabilities' denominators as
    ``denominator``, and each probability times D in ``weights``, in the
    order of ``labels``.
    """

    outcomes: tuple

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        if not outcomes:
            raise InvalidTrialError("a trial needs at least one outcome")
        probs = [exact_fraction(prob) for _, prob in outcomes]
        vars(self).update(self._checked(tuple(label for label, _ in outcomes), probs, *on_grid(probs)))

    @staticmethod
    def _checked(labels: tuple, probs: list, denominator: int, weights: list) -> dict:
        """The checked attributes of a trial whose Fraction ``probs`` are ``weights`` over their lcm ``denominator``."""
        prob = dict(zip(labels, probs)) if set(map(type, labels)) == {str} and all(labels) else {}
        if len(prob) < len(labels) or min(weights) < 0:  # name the first bad label or probability
            seen = set()
            for label, p, weight in zip(labels, probs, weights):
                if not isinstance(label, str) or not label:
                    raise InvalidTrialError(f"outcome labels must be non-empty strings, got {label!r}")
                if label in seen:
                    raise InvalidTrialError(f"duplicate outcome label: {label!r}")
                seen.add(label)
                if weight < 0:
                    raise InvalidTrialError(f"negative probability for {label!r}: {p}")
            prob = dict(zip(labels, probs))
        if sum(weights) != denominator:
            raise InvalidTrialError(f"probabilities sum to {Fraction(sum(weights), denominator)}, expected exactly 1")
        return dict(outcomes=tuple(zip(labels, probs)), labels=labels, weights=tuple(weights), denominator=denominator,
                    _prob=prob)

    @classmethod
    def uniform(cls, labels) -> "FiniteTrial":
        labels = tuple(labels)
        n = len(labels)
        return cls(tuple((label, Fraction(1, n)) for label in labels))

    def prob(self, label: str) -> Fraction:
        try:
            return self._prob[label]
        except KeyError:
            raise MissingOutcomeError(f"unknown outcome label: {label!r}") from None

    def zero_probability_labels(self) -> tuple:
        return tuple(compress(self.labels, map(operator.not_, self.weights)))

    def __len__(self) -> int:
        return len(self.outcomes)

    def __contains__(self, label) -> bool:
        return label in self._prob


@dataclass(frozen=True)
class Statistic(_Held):
    """Total map from outcome labels to ordered values of one shared shape.

    ``kind`` is the shape and ``keys`` each label's ``order.grid_keys`` over all its values.
    """

    values: dict

    def __post_init__(self):
        vals = dict(self.values)
        if not vals:
            raise InvalidStatisticError("a statistic needs at least one value")
        shapes = {shape(v) for v in vals.values()}
        vars(self).update(self._keyed(shapes, {label: plain(v) for label, v in vals.items()}), values=vals)

    @staticmethod
    def _keyed(shapes: set, literals: dict, at: dict | None = None) -> dict:
        """``kind``, the one shape in ``shapes``, and ``keys`` of each label x, whose ``plain`` data is
        ``literals[at[x]]``, or ``literals[x]`` without ``at``."""
        if len(shapes) > 1:
            raise InvalidStatisticError(f"statistic values must share one shape, found {len(shapes)}")
        (kind,) = shapes
        keys = dict(zip(literals, grid_keys(kind, list(literals.values()))))
        return {"kind": kind, "keys": keys if at is None else dict(zip(at, map(keys.__getitem__, at.values())))}

    def __getitem__(self, label) -> OrdValue:
        return self.values[label]

    def __contains__(self, label) -> bool:
        return label in self.keys


@dataclass(frozen=True)
class PFunction(_Held):
    """Map from outcome labels to exact rationals in [0, 1], held as int ``keys`` over ``denominator``.

    The denominator is the trial's D for ``induce_phat``, 2D for ``mid_pfunction`` and the lcm of
    the given values' denominators otherwise; ``values``, a dict of Fractions, is built when first
    read. Equal p-functions have the same labels and values, whatever their denominators.
    """

    values: dict

    def __post_init__(self):
        vals = {label: exact_fraction(v) for label, v in dict(self.values).items()}
        d, keys = on_grid(list(vals.values()))
        vars(self).update(self._checked(dict(zip(vals, keys)), d), values=vals)

    @classmethod
    def _over(cls, keys: dict, d: int) -> "PFunction":
        """The p-function x -> keys[x]/d, whose ``values`` share one Fraction per distinct key."""
        def build():
            shared = {k: Fraction(k, d) for k in set(keys.values())}
            return {label: shared[k] for label, k in keys.items()}
        return cls._made(build, **cls._checked(keys, d))

    @staticmethod
    def _checked(keys: dict, d: int) -> dict:
        if not keys:
            raise InvalidPFunctionError("a p-function needs at least one value")
        if not 0 <= min(keys.values()) <= max(keys.values()) <= d:  # name the first value outside [0, 1]
            for label, k in keys.items():
                if not 0 <= k <= d:
                    raise InvalidPFunctionError(f"value for {label!r} outside [0, 1]: {Fraction(k, d)}")
        return {"keys": keys, "denominator": d}

    def __eq__(self, other):
        if not isinstance(other, PFunction):
            return NotImplemented
        d, e = self.denominator, other.denominator
        return {x: k * e for x, k in self.keys.items()} == {x: k * d for x, k in other.keys.items()}

    def __getitem__(self, label) -> Fraction:
        return self.values[label]

    def as_statistic(self) -> Statistic:
        """View the p-function as a rational-valued statistic (for re-inducing), keyed by ``keys``."""
        return Statistic._made(lambda: {label: Rational(v) for label, v in self.values.items()},
                               kind="rational", keys=self.keys)


class Validity(enum.Enum):
    NOT_PFUNCTION = "not-p-function"
    CONSERVATIVE = "conservative"
    RANGE_EXACT = "range-exact"


@dataclass(frozen=True)
class PFunctionClass:
    """Classification verdict; NOT_PFUNCTION carries the violating witness, ``kinds`` each label's ``pvalue_kinds``."""

    kind: Validity
    witness: Fraction | None = None
    witness_mass: Fraction | None = None
    kinds: dict = field(default_factory=dict, compare=False, repr=False)


def _on_outcomes(trial: FiniteTrial, values: dict, what: str) -> list:
    try:
        return list(map(values.__getitem__, trial.labels))
    except KeyError:
        missing = [label for label in trial.labels if label not in values]
        raise MissingOutcomeError(f"{what} undefined on outcomes: {missing}") from None


def _canonical(value: OrdValue):
    # Picks one of several equal values: the lowest precisions, then the lowest Decimal as_tuple().
    if isinstance(value, LexTuple):
        return tuple(_canonical(c) for c in value.components)
    if isinstance(value, Score):
        return value.precision, value.value.as_tuple()
    return ()


def _cumulative(keys: list, weights) -> dict:
    """Each distinct key, ascending, with the total weight of the outcomes whose key is at or below it."""
    mass = dict.fromkeys(sorted(set(keys)), 0)
    for key, weight in zip(keys, weights):
        mass[key] += weight
    return dict(zip(mass, accumulate(mass.values())))


def value_groups(trial: FiniteTrial, stat: Statistic) -> list:
    """Ascending groups of (value, labels, weight) with equal statistic values merged; weight/D is the group's mass.

    Equal ``stat.keys`` are equal values and share a group, so the result
    does not depend on the order the outcomes are listed in, and labels
    inside a group keep the trial's outcome order. Equal Scores may differ
    in precision or exponent; such a group's value is the one with the
    lowest precisions, then the lowest ``Decimal.as_tuple()``.
    """
    keys = _on_outcomes(trial, stat.keys, "statistic")
    cum = _cumulative(keys, trial.weights)
    members = {key: [] for key in cum}
    for label, key in zip(trial.labels, keys):
        members[key].append(label)
    return [(min(map(stat.values.__getitem__, labels), key=_canonical), labels, at - below)
            for labels, at, below in zip(members.values(), cum.values(), [0, *cum.values()])]


def induce_phat(trial: FiniteTrial, stat: Statistic) -> PFunction:
    """Induced p-function: p(x) = total probability of {y : f(y) <= f(x)}.

    All values are exact rationals k/D, and f(y) <= f(x) is decided exactly.
    """
    keys = _on_outcomes(trial, stat.keys, "statistic")
    cum = _cumulative(keys, trial.weights)
    return PFunction._over(dict(zip(trial.labels, map(cum.__getitem__, keys))), trial.denominator)


def induced_measure(trial: FiniteTrial, stat: Statistic) -> list:
    """Distinct statistic values in ascending order with their total mass."""
    return [(value, Fraction(weight, trial.denominator)) for value, _, weight in value_groups(trial, stat)]


def check_idempotence(trial: FiniteTrial, pfunc: PFunction) -> bool:
    """Whether inducing ``pfunc`` as a rational statistic reproduces it exactly.

    A theorem check on the p-function ``induce_phat`` returned: any induced
    p-function is self-induced, so False indicates a bug.
    """
    return induce_phat(trial, pfunc.as_statistic()) == pfunc


def classify_pfunction(trial: FiniteTrial, pfunc: PFunction) -> PFunctionClass:
    """Classify a candidate p-function by its exact attained-value CDF, in one pass.

    Validity P[pfunc <= eps] <= eps for all eps in [0,1] holds iff it holds
    at every attained value (the CDF is constant between them); range-exact
    iff equality holds at every attained value; conservative iff valid but
    not range-exact. The first violating value (ascending) is the witness.
    ``kinds`` holds each outcome's ``pvalue_kinds`` verdict.
    """
    keys, g, d = _on_outcomes(trial, pfunc.keys, "p-function"), pfunc.denominator, trial.denominator
    kind, witness = {}, ()
    for key, cum in _cumulative(keys, trial.weights).items():
        excess = cum * g - key * d  # P[pfunc <= key/g] - key/g, times g*D
        kind[key] = "exact" if not excess else "invalid" if excess > 0 else "conservative"
        if excess > 0 and not witness:
            witness = Fraction(key, g), Fraction(cum, d)
    verdict = (Validity.NOT_PFUNCTION if witness else
               Validity.CONSERVATIVE if "conservative" in kind.values() else Validity.RANGE_EXACT)
    return PFunctionClass(verdict, *witness, kinds=dict(zip(trial.labels, map(kind.__getitem__, keys))))


def pvalue_kinds(trial: FiniteTrial, pfunc: PFunction) -> dict:
    """Per-outcome verdict: 'exact' where P[pfunc <= value] is the value, 'conservative' below it, 'invalid' above."""
    return classify_pfunction(trial, pfunc).kinds


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
    return FiniteTrial(tuple((f"({l1},{l2})", p1 * p2) for l1, p1 in t1.outcomes for l2, p2 in t2.outcomes))
