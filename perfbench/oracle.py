"""Answer checks that do not trust the program under test.

Rank-sum (Wilcoxon) answers are recomputed from the Mann-Whitney count
recursion; trial answers from a native-key sort of the generated statistic.
Reports are read by their answer keys only, so a later change to the rest
of the report format cannot break the checks. Pure Python: no ordstat.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

ANSWER_KEYS = frozenset(
    ("pvalue", "values", "distinct-values", "estimate", "classification", "value", "verify-exact")
)
ANSWER_PREFIXES = ("phat.", "midp.")


def answers(report: str) -> dict:
    """The answer fields of a key-value report; every other line is ignored."""
    out = {}
    for line in report.splitlines():
        key, sep, value = line.partition(": ")
        if sep and (key in ANSWER_KEYS or key.startswith(ANSWER_PREFIXES)):
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# Rank-sum null distribution


def mann_whitney_counts(m: int, n: int) -> list:
    """counts[u] = number of x-role assignments with U = u, U = W - m(m+1)/2.

    Mann & Whitney (1947): whether the largest pooled observation is an x
    (it then exceeds all n y's) or a y gives c(m, n, u) = c(m-1, n, u-n) +
    c(m, n-1, u), with c = [1] when either group is empty.
    """
    table = {}
    for i in range(m + 1):
        for j in range(n + 1):
            if i == 0 or j == 0:
                table[i, j] = [1]
                continue
            with_x = [0] * j + table[i - 1, j]
            with_y = table[i, j - 1]
            size = max(len(with_x), len(with_y))
            table[i, j] = [
                (with_x[u] if u < len(with_x) else 0) + (with_y[u] if u < len(with_y) else 0)
                for u in range(size)
            ]
    return table[m, n]


def rank_sum_cdf(m: int, n: int) -> list:
    """Ascending (w, #assignments with W <= w) over the attained rank sums."""
    base = m * (m + 1) // 2
    cum = 0
    out = []
    for u, c in enumerate(mann_whitney_counts(m, n)):
        if c:
            cum += c
            out.append((base + u, cum))
    return out


def wilcoxon_pvalue(m: int, n: int, w: int) -> Fraction:
    """P[W <= w] under random assignment."""
    below = [cum for value, cum in rank_sum_cdf(m, n) if value <= w]
    return Fraction(below[-1] if below else 0, math.comb(m + n, m))


def wilcoxon_bracket(m: int, n: int, w: int) -> tuple:
    """(P[W < w], P[W <= w]): any cascade that starts with W has its p-value in here."""
    return wilcoxon_pvalue(m, n, w - 1), wilcoxon_pvalue(m, n, w)


def wilcoxon_attainable(m: int, n: int) -> list:
    """The attainable p-values of the rank-sum statistic alone, ascending."""
    total = math.comb(m + n, m)
    return [Fraction(cum, total) for _, cum in rank_sum_cdf(m, n)]


# ---------------------------------------------------------------------------
# Finite trials


def induced(probs: dict, keys: dict) -> dict:
    """label -> P[f <= f(label)], with f ordered by the native keys."""
    mass = {}
    for label, p in probs.items():
        mass[keys[label]] = mass.get(keys[label], 0) + p
    cum, at = Fraction(0), {}
    for key in sorted(mass):
        cum += mass[key]
        at[key] = cum
    return {label: at[keys[label]] for label in probs}


def low_and_atom(probs: dict, keys: dict) -> dict:
    """label -> (P[f < f(label)], P[f = f(label)])."""
    phat = induced(probs, keys)
    atom = {}
    for label, p in probs.items():
        atom[keys[label]] = atom.get(keys[label], 0) + p
    return {label: (phat[label] - atom[keys[label]], atom[keys[label]]) for label in probs}


def classify(probs: dict, pvals: dict) -> str:
    """not-p-function / conservative / range-exact, from P[p <= v] at each attained v."""
    mass = {}
    for label, p in probs.items():
        mass[pvals[label]] = mass.get(pvals[label], 0) + p
    cum, exact = Fraction(0), True
    for value in sorted(mass):
        cum += mass[value]
        if cum > value:
            return "not-p-function"
        exact = exact and cum == value
    return "range-exact" if exact else "conservative"


def uniform_r(seed: int) -> Fraction:
    """The tie-breaking number ordstat documents for ``randomize --seed``: k/2**64."""
    return Fraction(random.Random(seed).getrandbits(64), 2**64)


# ---------------------------------------------------------------------------
# Checks: each returns None when the answer is right, else a reason.


def check_values(got: list, want: list):
    if got != want:
        return f"attainable values differ: {len(got)} values, expected {len(want)}"
    return None


def check_pvalue(p: Fraction, m: int, n: int, ranks, cascade: str, golden=None):
    """Exact p-value: oracle for rank sum alone, bracket plus recorded value otherwise."""
    w = sum(ranks)
    if cascade == "wilcoxon":
        want = wilcoxon_pvalue(m, n, w)
        return None if p == want else f"pvalue {p} != rank-sum count {want}"
    if cascade.startswith("wilcoxon,"):
        lo, hi = wilcoxon_bracket(m, n, w)
        if not lo < p <= hi:
            return f"pvalue {p} outside the rank-sum bracket ({lo}, {hi}]"
    if golden is None:
        return f"no recorded answer for {m}x{n} {cascade} ranks {ranks}"
    return None if p == golden else f"pvalue {p} != recorded {golden}"


def check_mc(count: int, draws: int, m: int, n: int, ranks, cascade: str):
    """Monte Carlo estimate: within six binomial deviations of the exact rank-sum bracket.

    Under the Gaussian null the rank sum is permutation distributed, so a
    cascade that starts with W has P[value <= observed] in the bracket.
    """
    if not 0 <= count <= draws:
        return f"count {count} outside [0, {draws}]"
    if not cascade.startswith("wilcoxon"):
        return None
    lo, hi = wilcoxon_bracket(m, n, sum(ranks))
    tol = 3 / math.sqrt(draws)  # six deviations of the largest binomial spread
    est = count / draws
    if not lo - tol <= est <= hi + tol:
        return f"estimate {est} far outside the rank-sum bracket [{float(lo)}, {float(hi)}]"
    return None


def check_trial_report(kind: str, report: dict, probs: dict, keys: dict, outcome=None, r=None):
    """induce / midp / randomize report against the native-key oracle."""
    if kind == "induce":
        phat = induced(probs, keys)
        for label, want in phat.items():
            if Fraction(report.get(f"phat.{label}", "-1")) != want:
                return f"phat.{label} {report.get(f'phat.{label}')} != {want}"
        if report.get("classification") != "range-exact" or classify(probs, phat) != "range-exact":
            return f"induced p-function classified {report.get('classification')}"
        return None
    parts = low_and_atom(probs, keys)
    if kind == "midp":
        midp = {label: low + atom / 2 for label, (low, atom) in parts.items()}
        for label, want in midp.items():
            if Fraction(report.get(f"midp.{label}", "-1")) != want:
                return f"midp.{label} {report.get(f'midp.{label}')} != {want}"
        want = classify(probs, midp)
        return None if report.get("classification") == want else f"midp classification {report.get('classification')} != {want}"
    low, atom = parts[outcome]
    want = low + r * atom
    if Fraction(report.get("value", "-1")) != want:
        return f"randomized value {report.get('value')} != {want}"
    if "verify-exact" in report and report["verify-exact"] != "pass":
        return f"verify-exact: {report['verify-exact']}"
    return None
