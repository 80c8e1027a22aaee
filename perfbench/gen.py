"""Seeded input generator: two-sample data and trial documents.

Pure Python on purpose: the benchmark times ordstat's import as set-up, so
nothing here may import ordstat. The same seed gives the same inputs.
"""

from __future__ import annotations

import json
import math
import random
from decimal import Decimal
from fractions import Fraction

# Exact p-values of score cascades are checked against answers recorded from
# the program (golden.json), keyed by the rank pattern of the x group. The
# generator therefore draws each sample's rank pattern from this many fixed
# patterns per size; the observation values themselves are fresh per seed.
PATTERNS_PER_SIZE = 12

_DENOMINATORS = (1, 2, 3, 4, 7, 8, 10, 16, 97, 1000)
_DECIMAL_DENOMINATORS = frozenset((1, 2, 4, 8, 10, 16, 1000))
_GROUP_LABELS = (("x", "y"), ("treated", "control"), ("a", "b"))


def rank_patterns(m: int, n: int) -> list:
    """Fixed x-group rank sets for an m-by-n sample, independent of any seed."""
    rng = random.Random(f"patterns:{m}:{n}")
    wanted = min(PATTERNS_PER_SIZE, math.comb(m + n, m))
    patterns = []
    while len(patterns) < wanted:
        ranks = tuple(sorted(rng.sample(range(1, m + n + 1), m)))
        if ranks not in patterns:
            patterns.append(ranks)
    return patterns


def distinct_rationals(rng: random.Random, count: int) -> list:
    """count pairwise-distinct exact rationals, ascending."""
    values = set()
    while len(values) < count:
        values.add(Fraction(rng.randint(-50_000, 50_000), rng.choice(_DENOMINATORS)))
    return sorted(values)


def literal(rng: random.Random, value: Fraction, decimals: bool = True) -> str:
    """A literal that parses back to exactly ``value``: p/q, or a terminating decimal where allowed."""
    if decimals and value.denominator in _DECIMAL_DENOMINATORS and rng.random() < 0.5:
        text = str(Decimal(value.numerator) / Decimal(value.denominator))
        if Fraction(text) == value:
            return text
    return f"{value.numerator}/{value.denominator}"


def two_sample(rng: random.Random, m: int, n: int) -> dict:
    """An m-by-n sample whose x group holds one of the fixed rank patterns.

    Returns the file text plus the exact values and the x ranks, which the
    answer checks use.
    """
    ranks = rng.choice(rank_patterns(m, n))
    values = distinct_rationals(rng, m + n)
    xs = [values[r - 1] for r in ranks]
    ys = [v for i, v in enumerate(values, start=1) if i not in ranks]
    rng.shuffle(xs)
    rng.shuffle(ys)
    xlab, ylab = rng.choice(_GROUP_LABELS)
    sep = rng.choice((",", " ", "\t"))
    rows = [(v, xlab) for v in xs[1:]] + [(v, ylab) for v in ys]
    rng.shuffle(rows)
    rows.insert(0, (xs[0], xlab))  # the first label seen is the x group
    lines = ["# generated two-sample data"]
    lines += [f"{literal(rng, v)}{sep}{label}" for v, label in rows]
    return {"text": "\n".join(lines) + "\n", "xs": xs, "ys": ys, "ranks": ranks}


def _weights_to_probs(rng: random.Random, n: int) -> list:
    weights = [rng.randint(1, 60) for _ in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _assign(rng: random.Random, n: int, pool: list) -> list:
    # Every pool value is used at least once; the rest repeat at random.
    picks = list(range(len(pool))) + [rng.randrange(len(pool)) for _ in range(n - len(pool))]
    rng.shuffle(picks)
    return [pool[i] for i in picks]


def trial_document(rng: random.Random, n: int, shape: str, ties: float) -> dict:
    """A trial of n outcomes whose statistic has about n*(1-ties) distinct values.

    ``shape`` is "rational", "rank" or "tuple" (nested [rank, [rational,
    rank]]); trial documents take rationals as p/q only. Returns the JSON text and, per label, its exact probability and
    a native Python sort key that orders like the statistic.
    """
    distinct = max(1, round(n * (1 - ties)))
    if shape == "rational":
        pool = [(literal(rng, v, decimals=False), v) for v in distinct_rationals(rng, distinct)]
    elif shape == "rank":
        pool = [(k, k) for k in rng.sample(range(-10 * n, 10 * n), distinct)]
    elif shape == "tuple":
        keys = set()
        while len(keys) < distinct:
            keys.add((rng.randint(0, 9), (Fraction(rng.randint(-99, 99), rng.randint(1, 9)), rng.randint(0, 3))))
        pool = [([a, [literal(rng, b, decimals=False), c]], (a, (b, c))) for a, (b, c) in sorted(keys)]
    else:
        raise ValueError(f"unknown statistic shape: {shape}")
    labels = [f"o{i}" for i in range(n)]
    probs = _weights_to_probs(rng, n)
    values = _assign(rng, n, pool)
    doc = {
        "outcomes": [{"label": lab, "prob": str(p)} for lab, p in zip(labels, probs)],
        "statistic": {lab: raw for lab, (raw, _) in zip(labels, values)},
    }
    return {
        "text": json.dumps(doc),
        "labels": labels,
        "probs": dict(zip(labels, probs)),
        "keys": {lab: key for lab, (_, key) in zip(labels, values)},
    }


def score_trial(rng: random.Random, n: int, ties: float) -> dict:
    """A trial whose statistic is a (score, rank) tuple, as plain data.

    Distinct scores differ by at least 1e-6 on a scale below 1e3, far
    outside the comparison threshold at any precision >= 12, so the
    program's threshold order and exact Decimal order agree.
    """
    distinct = max(1, round(n * (1 - ties)))
    keys = set()
    while len(keys) < distinct:
        keys.add((Decimal(rng.randint(-999_999_999, 999_999_999)) / Decimal(1_000_000), rng.randint(0, 2)))
    labels = [f"s{i}" for i in range(n)]
    probs = _weights_to_probs(rng, n)
    values = _assign(rng, n, sorted(keys))
    return {"labels": labels, "probs": dict(zip(labels, probs)), "keys": dict(zip(labels, values))}
