"""Two-sample rank statistics, lexicographic cascades, and exact permutation p-values.

The rank-sum statistic is the workhorse: rank the pooled observations
ascending, sum the ranks landing in the first group. Because its null
distribution over the C(m+n, m) equally likely group assignments is coarse,
a cascade appends further statistics that are only consulted to break ties
left by the earlier ones, i.e. the cascade value is the tuple of component
values compared lexicographically. Rank-based components (identity ranks,
expected normal order statistics, Gaussian quantiles, Laplace quantiles)
keep the test distribution-free and the enumeration exact; the Student t
component breaks every remaining tie but needs a Gaussian sampling null and
therefore a Monte Carlo p-value.

Per-rank scores are fixed-precision decimals built once per (scheme, pool
size, precision). The upper half of each score vector mirrors the lower
half with flipped sign, so the antisymmetry score(i) = -score(N+1-i) holds
bit for bit and mirror-image tie structure is preserved exactly. Each
vector is also held as exact ints at a common decimal exponent, so the rank
components of a cascade key are exact int sums (the rank sum for wilcoxon),
for enumeration, the observed value and Monte Carlo draws alike; only the t
component of a draw is compared in floats. Score sums u and v at precision
p with |u - v| * 10**p <= 100 * max(|u|, |v|) are treated as genuine ties;
this threshold is the rank cascades' own rule, as order.compare orders
Scores exactly. Exact p-values and Monte Carlo draws count inexact ties on a
CompareContext; a table's warning comes from its grouping alone, as ties are
symmetric and the keys sorted exactly (_grouped). Each key part gives the int
window of sums that tie with a sum, decided exactly, and one walk over those
windows (_walk) makes every comparison: of rank sets for p-values and draws,
of indices into the sorted key columns for a table. A wilcoxon-first exact
p-value counts the smaller rank sums from their Gaussian binomial and visits
only the observed rank sum's slice. A table is built over mirror-pair
classes, not assignments: every rank component's per-rank ints are
antisymmetric about the middle rank (checked; wilcoxon's once centred), so a
rank set's key depends only on its c-vector, c_j = [j in A] - [N+1-j in A],
and a class is one key with a multiplicity, the number of its rank sets. A
table is grouped and verified one slice at a time, with cumulative
multiplicities where positions were: a wilcoxon-first cascade has one slice
per rank sum, in rank-sum order, keyed by the parts after W alone; any other
cascade has one slice of all classes. A tie group holds its size and its
classes, and expands its members, the rank sets, only when they are read:
run by run in key order, each run's in combinations order; its value is
built from its first member when read. An attainable set is verified
range-exact at every size by a recount that bisects each slice's key
columns on the same windows and counts the classes' multiplicities. Grouping
builds each group's steps (the windows of its first key) once, keyed by its
first class; verification finds the class holding the first assignment of
each group from its count and size, reads the steps there, and builds any
that grouping did not. So the order check and the recount share grouping's
steps; their walks, bisections and counts are their own. The count of the
slices before it is carried from slice to slice; each slice's size is
checked against its Gaussian binomial coefficient, and the final carry
against C(m+n, m).
Score vectors and t values are computed with the decimal module alone, whose
exp, ln and sqrt are correctly rounded; each printed digit is decided by an
error interval or an exact bracket.
"""

from __future__ import annotations

import bisect
import decimal
import enum
import functools
import itertools
import math
import operator
import sys
from decimal import Decimal
from fractions import Fraction

from .order import (
    DEFAULT_MAX_ENUM,
    DEFAULT_PRECISION,
    MIN_PRECISION,
    LexTuple,
    Rank,
    RankTestError,
    Score,
    SizeLimitError,
    TheoremCheckError,
    _Record,
    _set,
    exact_fraction,
)


class CompareContext(_Record):
    """Count of rank-cascade score-sum ties that are not exact equalities."""

    __slots__ = _fields = ("imprecise_ties",)
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, imprecise_ties: int = 0):
        self.imprecise_ties = imprecise_ties

    def flag_imprecise(self) -> None:
        self.imprecise_ties += 1

    @property
    def imprecise(self) -> bool:
        return self.imprecise_ties > 0


class DuplicateObservationsError(RankTestError):
    """Pooled observations must be pairwise distinct."""


class DegenerateSpreadError(RankTestError):
    """The pooled spread S of the t statistic vanished."""


class InvalidCascadeError(RankTestError):
    """The cascade component list violates its construction rules."""


class TCascadeNotExactError(RankTestError):
    """Cascades containing the t component have no exact permutation p-value."""


class Component(enum.Enum):
    """Cascade building blocks; all but STUDENT_T depend on ranks only."""

    WILCOXON = "wilcoxon"
    FYT = "fyt"
    VDW = "vdw"
    LAPLACE = "laplace"
    STUDENT_T = "t"

    @property
    def rank_based(self) -> bool:
        return self is not Component.STUDENT_T


RANK_SCHEMES = (Component.WILCOXON, Component.FYT, Component.VDW, Component.LAPLACE)


class CascadeStatistic(_Record):
    """Ordered component list evaluated lexicographically.

    At most one STUDENT_T component is allowed and it must come last: the
    rank-based components preceding it stay distribution-free, while the t
    tie-break requires the Gaussian sampling null.
    """

    __slots__ = _fields = ("components",)

    def __init__(self, components: tuple):
        comps = tuple(components)
        if not comps:
            raise InvalidCascadeError("a cascade needs at least one component")
        for c in comps:
            if not isinstance(c, Component):
                raise InvalidCascadeError(f"not a cascade component: {c!r}")
        t_positions = [i for i, c in enumerate(comps) if c is Component.STUDENT_T]
        if len(t_positions) > 1:
            raise InvalidCascadeError("at most one t component is allowed")
        if t_positions and t_positions[0] != len(comps) - 1:
            raise InvalidCascadeError("the t component must be the last cascade component")
        _set(self, "components", comps)

    @classmethod
    def parse(cls, text: str) -> "CascadeStatistic":
        """Parse a comma-separated component list like "wilcoxon,fyt"."""
        names = [part.strip() for part in text.split(",") if part.strip()]
        by_name = {c.value: c for c in Component}
        unknown = [n for n in names if n not in by_name]
        if unknown:
            raise InvalidCascadeError(f"unknown cascade components: {unknown}")
        return cls(tuple(by_name[n] for n in names))

    @property
    def has_student_t(self) -> bool:
        return Component.STUDENT_T in self.components

    @property
    def rank_components(self) -> tuple:
        return tuple(c for c in self.components if c.rank_based)

    def label(self) -> str:
        return ",".join(c.value for c in self.components)


class TwoSample(_Record):
    """Two groups of pairwise distinct exact observations."""

    __slots__ = _fields = ("xs", "ys")

    def __init__(self, xs: tuple, ys: tuple):
        xs = tuple(exact_fraction(v) for v in xs)
        ys = tuple(exact_fraction(v) for v in ys)
        if not xs or not ys:
            raise RankTestError("both groups need at least one observation")
        pooled = xs + ys
        if len(set(pooled)) != len(pooled):
            seen, dup = set(), None
            for v in pooled:
                if v in seen:
                    dup = v
                    break
                seen.add(v)
            raise DuplicateObservationsError(f"observations must be pairwise distinct; {dup} repeats")
        self._hold(xs, ys)

    @property
    def m(self) -> int:
        return len(self.xs)

    @property
    def n(self) -> int:
        return len(self.ys)

    @property
    def pool(self) -> int:
        return self.m + self.n


def x_ranks(sample: TwoSample) -> tuple:
    """Ascending ranks (1-based, over the pooled sample) occupied by the first group."""
    rank_of = {v: i for i, v in enumerate(sorted(sample.xs + sample.ys), start=1)}
    return tuple(sorted(rank_of[v] for v in sample.xs))


def rank_sum(sample: TwoSample) -> int:
    """Sum of the first group's ranks within the pooled ascending ranking."""
    return sum(x_ranks(sample))


# ---------------------------------------------------------------------------
# Per-rank score vectors


# Guard digits tried in turn for a vector's lower half, until every value's
# rounding to `precision` digits is decided. The first FYT rung decided every
# vector checked (pools 2-200 at precisions 4-100); the later ones serve a
# rank whose error interval straddles a rounding boundary. Each rung works in
# a decimal context of precision + guard digits.
_FYT_GUARD_DIGITS = (15, 30, 60, 120)
_QUANTILE_GUARD_DIGITS = (15, 25)


def _lower_half(scheme: Component, pool: int, precision: int) -> list:
    # Scores of ranks 1..pool // 2 as Decimals correctly rounded to `precision` digits.
    fyt = scheme is Component.FYT
    rungs = _FYT_GUARD_DIGITS if fyt else _QUANTILE_GUARD_DIGITS
    for guard in rungs:
        with decimal.localcontext(decimal.Context(prec=precision + guard)):
            decimals = _folded_order_stats(pool, precision) if fyt else _quantiles(scheme, pool, precision)
        if decimals is not None:
            return decimals
    raise TheoremCheckError(
        f"{scheme.value} {'quadrature' if fyt else 'quantile'} at pool={pool} did not reach "
        f"{precision} digits with {precision + rungs[-1]} working digits"
    )


@functools.lru_cache(maxsize=None)
def _pi(digits: int) -> Decimal:
    # pi to `digits` digits, by the recipe of the decimal module's documentation.
    with decimal.localcontext(decimal.Context(prec=digits + 2)):
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return decimal.Context(prec=digits).plus(s)


_HALF = Decimal("0.5")


def _upper_tail(z: Decimal) -> tuple:
    # (q, phi, error) at z >= 0 in the current context: phi the standard normal
    # density and q = 1 - Phi(z) = 1/2 - phi(z) sum z^(2k+1)/(2k+1)!!, a series of
    # positive terms (Marsaglia 2004), with |q - (1 - Phi(z))| <= error. With u
    # = 10^(1-prec), twice the relative rounding, a sum of K terms is off by at
    # most 2Ku relative and phi(z) by (z^2/4 + 2)u, where z^2 <= 2K + 3 as the
    # terms grow while 2k + 1 < z^2; so phi * sum (at most 1/2) is off by less
    # than (2K + 4)u, plus phi times the terms left out, which decrease
    # geometrically from the first of them. The subtraction from 1/2 cancels
    # digits at large z; that loss is in the error, not hidden.
    z2 = z * z
    s = term = z
    odd = 1
    while True:
        odd += 2
        term = term * z2 / odd
        total = s + term
        if total == s:
            break
        s = total
    phi = (-z2 / 2).exp() / (2 * _pi(decimal.getcontext().prec)).sqrt()
    ratio = z2 / (odd + 2)
    rest = term / (1 - ratio) if ratio < 1 else Decimal(1)
    u = Decimal(1).scaleb(1 - decimal.getcontext().prec)
    return _HALF - phi * s, phi, (odd + 3) * u + phi * rest


def _max_degree(bits: int) -> int:
    # The last tanh-sinh level tried at `bits` binary digits: a slight overestimate of
    # the levels a smooth integrand needs, 6 up to 60 bits and one more per doubling.
    return int(4 + max(0, math.log2(bits / 30))) + 2


def _log10(x: Decimal) -> float:
    # log10 of a Decimal x >= 0, to float accuracy whatever its exponent; -inf at 0.
    if not x:
        return -math.inf
    e = x.adjusted()
    return e + math.log10(float(x.scaleb(-e)))


def _estimated_error(level: list, bits: int) -> Decimal:
    # Error estimate of the last of a rank's level sums, by the extrapolation
    # of Borwein, Bailey & Girgensohn: |I_2 - I_1| after two levels, then
    # 10^int(max(D1^2/D2, 2 D1, -bits)), at most 1, with D1, D2 the log10
    # differences of the last level to the one and two before it.
    if len(level) == 2:
        return abs(level[0] - level[1])
    if level[-1] == level[-2] == level[-3]:
        return Decimal(0)
    d1, d2 = (_log10(abs(level[-1] - level[k])) for k in (-2, -3))
    if d2 >= 0:  # levels a unit or more apart
        return Decimal(1)
    return Decimal(1).scaleb(int(min(0, max(d1 * d1 / d2, 2 * d1, -bits))))


def _float_quantile(p: float) -> float:
    # y with 1 - Phi(y) = p for 0 < p < 1/2, to about float accuracy: Abramowitz & Stegun 26.2.23 (error
    # below 4.5e-4) at t = sqrt(-2 ln p), then 4 Newton steps on 1 - Phi(y) = erfc(y / sqrt 2) / 2.
    t = math.sqrt(-2 * math.log(p))
    y = t - (2.515517 + 0.802853 * t + 0.010328 * t * t) / (1 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t ** 3)
    for _ in range(4):
        y += (0.5 * math.erfc(y / math.sqrt(2)) - p) / math.exp(-y * y / 2) * math.sqrt(2 * math.pi)
    return y


def _quantiles(scheme: Component, pool: int, precision: int):
    # vdw: the Gaussian quantile -y, 1 - Phi(y) = p; laplace: the unit Laplace
    # quantile ln(2p). Both at p = i / (pool + 1) < 1/2, in the current
    # context; None when a rounding is undecided. ln is correctly rounded, so
    # ln(2i) - ln(pool + 1) is within an ulp of ln(pool + 1) plus half an ulp
    # of its own. y is solved by Newton's method from _float_quantile, and
    # its rounding d is accepted only when the monotone 1 - Phi brackets p on
    # the cell of values that round to d: 1 - Phi(|d| - h) > p > 1 - Phi(|d| + h).
    half, digits = pool // 2, decimal.getcontext().prec
    decimals = []
    if scheme is Component.LAPLACE:
        top = Decimal(pool + 1).ln()
        error = 3 * Decimal(1).scaleb(top.adjusted() + 1 - digits) / 2
        for i in range(1, half + 1):
            decimals.append(_rounded(Decimal(2 * i).ln() - top, error, precision))
        return None if None in decimals else decimals
    ulp = Decimal(1).scaleb(-digits)
    for i in range(1, half + 1):
        p = Decimal(i) / (pool + 1)
        y = Decimal(_float_quantile(i / (pool + 1)))
        for _ in range(8):
            q, phi, _ = _upper_tail(y)
            step = (q - p) / phi
            y += step
            if abs(step) <= y * ulp * 100:
                break
        d = _round(y, precision)
        low, high = _cell(d, precision)
        (q_low, _, e_low), (q_high, _, e_high) = _upper_tail(low), _upper_tail(high)
        # p and the two differences each carry at most half an ulp of rounding.
        decided = q_low - e_low - p > 2 * ulp and p - q_high - e_high > 2 * ulp
        decimals.append(d.copy_negate() if decided else None)
    return None if None in decimals else decimals


def _folded_order_stats(pool: int, precision: int):
    # E of the i-th order statistic of `pool` iid standard normals for every
    # i <= pool // 2, by one tanh-sinh level loop over [0, inf) (Takahasi &
    # Mori 1974; Bailey, Jeyabalan & Li 2005), in the current context. The
    # half z < 0 is folded onto z > 0 by z -> -z, which swaps Phi and 1 - Phi
    # and negates z, so
    # E X_(i) = c_i int_0^inf f_i, f_i = z phi(z) (Phi^(i-1) (1-Phi)^(pool-i) - (1-Phi)^(i-1) Phi^(pool-i)),
    # c_i = pool C(pool-1, i-1). The level sums carry c_i, so the error
    # extrapolation, applied to each rank's levels, is relative to its value.
    # The nodes are the tanh-sinh abscissas x = tanh(pi/2 sinh t), t = h, 3h,
    # ... at level h = 2^-degree (and t = 0, 2h, ... at the first), mapped by
    # z = 2/(x+1) - 1, in closed form: z = exp(+-pi sinh t) with weight
    # pi cosh(t) z. A node costs one 1 - Phi (_upper_tail), and its rank
    # terms follow by running products. A node z > cut is skipped: its weight
    # is at most (z+1)^2 and, by the Mills ratio 1 - Phi(z) < phi(z)/z,
    # |c_i f_i(z)| <= c_i z phi(z) (phi(z)/z)^(i-1), both decreasing in z, so
    # each skipped node adds its bound at cut to every level's error. An
    # error e in 1 - Phi moves c_i f_i by at most 2 pool (pool-1) z phi(z) e,
    # as c_i times each derivative of the two products in 1 - Phi is pool
    # (pool-1) times a sum of two binomial probabilities; that too is added.
    # The loop stops at the first level where every error is at most
    # 10^-(precision+3) of its value. None unless both ends of every value's
    # error interval then round alike.
    digits = decimal.getcontext().prec
    bits = round((digits + 1) * math.log2(10))  # binary digits of `digits` decimal ones, plus one
    half, pi = pool // 2, _pi(digits)
    coeffs = [pool * math.comb(pool - 1, i) for i in range(half)]
    cut = (2 * digits * Decimal(10).ln()).sqrt() + 2
    phi_cut = _upper_tail(cut)[1]
    bounds = [(cut + 1) ** 2 * cut * phi_cut * c * (phi_cut / cut) ** i for i, c in enumerate(coeffs)]
    tolerance = Decimal(1).scaleb(-(precision + 3))
    last = 2 ** (bits + 11)  # a level's nodes end where 1 - x = 2/(z+1) <= 2^(-bits-10)
    levels = [[] for _ in range(half)]
    skipped, tail = 0, Decimal(0)
    for degree in range(1, _max_degree(bits) + 1):
        h = Decimal(1) / 2**degree
        sums = [Decimal(0)] * half
        nodes = [(Decimal(1), pi)] if degree == 1 else []
        # ea - eb = pi/2 sinh t and ea + eb = pi/2 cosh t at t = h, then every 2h (every h at degree 1).
        grow = h.exp()
        ea, eb = pi / 4 * grow, pi / 4 / grow
        if degree > 1:
            grow *= grow
        for _ in range(20 * 2**degree + 1):
            z = (2 * (ea - eb)).exp()
            if z >= last:
                break
            weight = 2 * (ea + eb)
            nodes.append((1 / z, weight / z))
            nodes.append((z, weight * z))
            ea *= grow
            eb /= grow
        for z, w in nodes:
            if z > cut:
                skipped += 1
                continue
            lo, phi, error = _upper_tail(z)
            if lo < error:
                lo = error  # then 1 - Phi(z) lies in [0, 2 error]
            hi = 1 - lo
            g = w * z * phi
            tail += g * error
            a, b, up, down = g * lo ** (pool - 1), g * hi ** (pool - 1), hi / lo, lo / hi
            for i in range(half):
                sums[i] += a - b
                a *= up
                b *= down
        for c, s, level in zip(coeffs, sums, levels):
            level.append((level[-1] / 2 if level else 0) + h * c * s)
        if degree == 1:
            continue
        fixed = h * (2 * pool * (pool - 1) * tail)
        errors = [_estimated_error(level, bits) + h * skipped * bound + fixed for level, bound in zip(levels, bounds)]
        if all(e <= tolerance * abs(level[-1]) for e, level in zip(errors, levels)):
            decimals = [_rounded(level[-1], e, precision) for e, level in zip(errors, levels)]
            return None if None in decimals else decimals
    return None


def _round(x: Decimal, precision: int) -> Decimal:
    # x to `precision` significant digits, half away from zero, trailing zeros kept.
    ctx = decimal.Context(prec=precision, rounding=decimal.ROUND_HALF_UP)
    d = ctx.plus(x)
    if len(d.as_tuple().digits) < precision:  # an exact x of fewer digits
        d = d.quantize(Decimal(1).scaleb(d.adjusted() + 1 - precision), context=ctx)
    return d


def _cell(d: Decimal, precision: int) -> tuple:
    # (low, high): the magnitudes that _round takes to |d| are exactly [low, high).
    ctx, m = decimal.Context(prec=precision), d.copy_abs()
    return tuple(_EXACT.multiply(_EXACT.add(m, next_m), _HALF) for next_m in (ctx.next_minus(m), ctx.next_plus(m)))


def _rounded(x: Decimal, error: Decimal, precision: int):
    # x rounded to `precision` digits, or None when x - error and x + error round apart.
    low, high = _round(x - error, precision), _round(x + error, precision)
    return low if low == high else None


@functools.lru_cache(maxsize=None)
def scheme_scores(scheme: Component, pool: int, precision: int = DEFAULT_PRECISION) -> tuple:
    """Per-rank scores for one scheme at one pool size, as exact decimals.

    The vector is strictly increasing in rank (verified) and antisymmetric
    around the mid-rank by construction: only the lower half is computed
    and the upper half is its mirrored negation, so exact tie structure
    between mirror-image rank configurations survives any precision.
    Every lower-half score is rounded half away from zero and certified.
    An FYT vector comes from one tanh-sinh level loop over [0, inf) for
    all lower-half ranks, the negative half folded onto it, stopped at the
    first level where every rank's error estimate (with proven bounds on
    the skipped tail and on 1 - Phi's rounding) is at most
    10^-(precision+3) of its value; both ends of each error interval must
    round alike. It is recomputed with 30, 60, then 120 guard digits
    instead of 15 while a rank misses that or its rounding is undecided.
    vdw digits are proven by a bracket: 1 - Phi, decreasing, straddles p on
    the cell of values that round to the score. laplace digits are proven
    by the correct rounding of Decimal.ln: both ends of the value's
    one-and-a-half-ulp interval round alike. Both are evaluated once more
    with 10 more digits when a rounding is undecided. TheoremCheckError is
    raised when the last rung does not decide.
    Every scheme but wilcoxon needs precision >= MIN_PRECISION (RankTestError).
    """
    if not scheme.rank_based:
        raise InvalidCascadeError("the t component has no per-rank scores")
    if pool < 1:
        raise RankTestError(f"pool size must be >= 1, got {pool}")
    if scheme is Component.WILCOXON:
        return tuple(Decimal(i) for i in range(1, pool + 1))
    if precision < MIN_PRECISION:
        raise RankTestError(f"score components need precision >= {MIN_PRECISION}, got {precision}")
    decimals = _lower_half(scheme, pool, precision)
    if pool % 2:
        decimals.append(Decimal(0))
    # copy_negate is context-free: the upper half mirrors the lower exactly.
    decimals.extend(d.copy_negate() for d in reversed(decimals[: pool // 2]))
    for a, b in zip(decimals, decimals[1:]):
        if not a < b:
            raise RankTestError(
                f"{scheme.value} scores not strictly increasing at pool={pool}, precision={precision}"
            )
    return tuple(decimals)


def score_sum(sample: TwoSample, scheme: Component, precision: int = DEFAULT_PRECISION) -> Score:
    """Sum of the scheme's scores over the first group's ranks."""
    return _score_part(scheme_scores(scheme, sample.pool, precision), precision).value(x_ranks(sample))


def student_t(sample: TwoSample, precision: int = DEFAULT_PRECISION) -> Score:
    """t = (mean(xs) - mean(ys)) / S with S the root pooled sum of squares, correctly rounded.

    The conventional constant factor is irrelevant for ordering and is
    omitted. Distinct observations make S > 0 whenever m + n >= 3. t^2 and
    the sign of t are exact Fractions; |t| is Decimal.sqrt of t^2, rounded
    to ``precision`` digits (half away from zero), and that rounding d is
    taken only when the exact t^2 lies in the squared cell of magnitudes
    that round to |d|, else the root is taken again with twice the guard
    digits. A zero t is Decimal("0.0").
    """
    xbar, ybar = sum(sample.xs) / sample.m, sum(sample.ys) / sample.n
    spread2 = sum((v - xbar) ** 2 for v in sample.xs) + sum((v - ybar) ** 2 for v in sample.ys)
    if spread2 == 0:
        raise DegenerateSpreadError("pooled spread S is zero; t is undefined")
    t2 = (xbar - ybar) ** 2 / spread2
    if not t2:
        return Score(Decimal("0.0"), precision)
    guard = 10
    while True:
        ctx = decimal.Context(prec=precision + guard)
        d = _round(ctx.divide(t2.numerator, t2.denominator).sqrt(ctx), precision)
        low, high = _cell(d, precision)
        if Fraction(low) ** 2 <= t2 < Fraction(high) ** 2:
            return Score(d if xbar > ybar else d.copy_negate(), precision)
        guard *= 2


# ---------------------------------------------------------------------------
# Exact integer cascade keys


class _RankSum:
    """Key part of the wilcoxon component: the rank sum, compared exactly."""

    total = staticmethod(sum)

    @staticmethod
    def window(v: int) -> tuple:
        return v, v

    @staticmethod
    def value(ranks) -> Rank:
        return Rank(sum(ranks))

    @staticmethod
    def terms(pool: int) -> list:
        """Per-rank ints, centred: 2r - (pool + 1) orders the rank sets of one size as their sums do."""
        return [2 * r - pool - 1 for r in range(1, pool + 1)]


# scaleb under this context only moves the exponent, and add never rounds.
_EXACT = decimal.Context(prec=decimal.MAX_PREC)


class _ScoreSum:
    """Key part of a score component: score sums as exact ints.

    Every score of the vector is an int multiple of 10**exponent, where
    exponent is the smallest Decimal exponent among the scores and 0, so
    rank-set sums are plain int sums and mirror negation stays exact.
    scheme_scores holds the precision to MIN_PRECISION (4) or more, so the
    threshold's relative distance is below 1 and each sum's tie window
    excludes 0.
    """

    def __init__(self, scores: tuple, precision: int):
        self.precision = precision
        self.scale = 10**precision
        # Index 0 stands for the Decimal(0) a sum starts from; ranks index the rest.
        self.decimals = (Decimal(0),) + scores
        exponent = min(d.as_tuple().exponent for d in self.decimals)
        self.ints = tuple(int(d.scaleb(-exponent, _EXACT)) for d in self.decimals)
        self.total = lambda ranks, score=self.ints.__getitem__: sum(map(score, ranks))

    def window(self, v: int) -> tuple:
        """(lo, hi): the sums u that tie with v, |u - v| * 10**p <= 100 * max(|u|, |v|), decided exactly."""
        if v < 0:  # the mirror of window(-v)
            return -(-v * self.scale // (self.scale - 100)), -v * 100 // self.scale + v
        return v - v * 100 // self.scale, v * self.scale // (self.scale - 100)

    def value(self, ranks) -> Score:
        """The exact Decimal sum: it keeps the smallest exponent of its terms and of Decimal(0)."""
        total = functools.reduce(_EXACT.add, map(self.decimals.__getitem__, ranks), Decimal(0))
        return Score(total, self.precision)

    def terms(self, pool: int) -> list:
        """Per-rank ints: the scores' own, ``pool`` of them."""
        return list(self.ints[1:])


@functools.lru_cache(maxsize=None)
def _score_part(scores: tuple, precision: int) -> _ScoreSum:
    return _ScoreSum(scores, precision)


def _key_parts(cascade: CascadeStatistic, pool: int, precision: int) -> tuple:
    """One key part per rank component; a trailing t component has none."""
    return tuple(
        _RankSum if c is Component.WILCOXON else _score_part(scheme_scores(c, pool, precision), precision)
        for c in cascade.rank_components
    )


def _steps(parts: tuple, observed, columns: tuple | None = None) -> tuple:
    """(total, lo, hi, observed total) per key part: a total is LT below lo, EQ on [lo, hi], GT above hi.

    ``observed`` is a rank set, or an index when the sorted key columns are given: then a total reads column[index].
    """
    steps = []
    for i, part in enumerate(parts):
        total = part.total if columns is None else columns[i].__getitem__
        want = total(observed)
        lo, hi = part.window(want)
        steps.append((total, lo, hi, want))
    return tuple(steps)


def _walk(steps: tuple, ranks, ctx: CompareContext) -> int:
    """Sign of the key of ``ranks`` (or of a sorted index) minus the steps' one: -1 or 1 at the first part out of its window, else 0."""
    for key_total, lo, hi, want in steps:
        s = key_total(ranks)
        if s < lo:
            return -1
        if s > hi:
            return 1
        if s != want:
            ctx.flag_imprecise()
    return 0


def _value(parts: tuple, ranks) -> LexTuple:
    return LexTuple(tuple(part.value(ranks) for part in parts))


# ---------------------------------------------------------------------------
# Exact permutation enumeration


def _check_enum_size(m: int, n: int, max_enum: int) -> int:
    if m < 1 or n < 1:
        raise RankTestError(f"both groups need at least one observation, got m={m}, n={n}")
    total = math.comb(m + n, m)
    if total > max_enum:
        try:
            count = f"= {total}"
        except ValueError:  # more digits than str() may print (sys.get_int_max_str_digits)
            count = f"has more than {sys.get_int_max_str_digits()} digits and"
        raise SizeLimitError(f"C({m + n},{m}) {count} exceeds the enumeration cap {max_enum}")
    return total


def observed_cascade_value(sample: TwoSample, cascade: CascadeStatistic, precision: int = DEFAULT_PRECISION) -> LexTuple:
    """The cascade value of the sample as given (x-role = first group)."""
    ranks = x_ranks(sample)
    values = tuple(part.value(ranks) for part in _key_parts(cascade, sample.pool, precision))
    if cascade.has_student_t:
        values += (student_t(sample, precision),)
    return LexTuple(values)


def exact_perm_pvalue(
    sample: TwoSample,
    cascade: CascadeStatistic,
    precision: int = DEFAULT_PRECISION,
    max_enum: int = DEFAULT_MAX_ENUM,
    ctx: CompareContext | None = None,
) -> Fraction:
    """P[cascade value of a random assignment <= observed], counted exactly.

    Every assignment of m of the pooled observations to the x-role is
    equally likely, and rank-based cascades see only its ranks; a
    wilcoxon-first cascade visits only the rank sets at the observed sum.
    Cascades containing the t component are rejected: their null
    calibration is the Gaussian sampling model (use mc_gaussian_pvalue).
    """
    if cascade.has_student_t:
        raise TCascadeNotExactError("t cascades have no exact permutation p-value; use mc_gaussian_pvalue")
    total = _check_enum_size(sample.m, sample.n, max_enum)
    steps = _steps(_key_parts(cascade, sample.pool, precision), x_ranks(sample))
    own = ctx if ctx is not None else CompareContext()
    count, combos = 0, itertools.combinations(range(1, sample.pool + 1), sample.m)
    if cascade.components[0] is Component.WILCOXON:
        # Rank sums tie only when equal, so every imprecise tie lies on the slice W = w_obs.
        w, steps = steps[0][3], steps[1:]
        count = _rank_sum_below(sample.m, sample.pool, w if steps else w + 1)
        k, pool = min(sample.m, sample.n), sample.pool
        if k < sample.m:  # visit the smaller y group's slice: an x-side sum is the part's total over all ranks less y's
            steps = tuple((lambda ys, t=t, whole=t(range(1, pool + 1)): whole - t(ys), lo, hi, want) for t, lo, hi, want in steps)
            w = pool * (pool + 1) // 2 - w
        combos = _rank_sum_slice(k, pool, w) if steps else ()
    count += sum(_walk(steps, combo, own) <= 0 for combo in combos)
    return Fraction(count, total)


def _gaussian_binomial(m: int, pool: int, d: int) -> list:
    """The first d coefficients of the Gaussian binomial [pool, m]_q.

    Coefficient t counts the m-subsets of 1..pool with rank sum m(m+1)/2 + t.
    """
    # W - m(m+1)/2 has generating function prod (1 - x^(pool-k+i)) / (1 - x^i), i <= k: k*d steps.
    k = min(m, pool - m)
    c = ([1] + [0] * d)[:d]
    for i in range(1, k + 1):
        c[pool - k + i :] = [a - b for a, b in zip(c[pool - k + i :], c)]
        for r in range(i):
            c[r::i] = itertools.accumulate(c[r::i])
    return c


def _rank_sum_below(m: int, pool: int, w: int) -> int:
    """The m-subsets of 1..pool with rank sum < w, read off the Gaussian binomial [pool, m]_q (Andrews 1976, ch. 3)."""
    # The coefficients are symmetric about top/2: the d first give the tail below t or the mirror of the tail from t.
    t, top = w - m * (m + 1) // 2, m * (pool - m)
    c = _gaussian_binomial(m, pool, max(0, min(t, top + 1 - t)))
    return sum(c) if 2 * t <= top + 1 else math.comb(pool, m) - sum(c)


def _rank_sum_slice(m: int, pool: int, w: int, prefix: tuple = (), low: int = 1):
    """The m-subsets of 1..pool with the attained rank sum w after prefix, in combinations order; m - 2 levels deep."""
    # m - 1 distinct ranks above r reach every sum from their least to `most`: no prefix is a dead end.
    most = (m - 1) * (2 * pool - m + 2) // 2
    for r in range(max(low, w - most), (w - m * (m - 1) // 2) // m + 1):
        if m > 2:
            yield from _rank_sum_slice(m - 1, pool, w - r, prefix + (r,), r + 1)
        else:  # the last rank, or the last two
            yield prefix + (r, w - r)[:m]


class TieGroup(_Record):
    """Assignments sharing one cascade value; cum_count counts those <= it.

    A table's group holds its size and its mirror-pair classes (_sorted_keys), and expands its members, the rank
    sets, when they are first read (_expanded); its value is built from the first member when read.
    """

    # _table is (parts, m, pool), one tuple per table; __dict__ holds the cached value.
    __slots__ = ("_table", "cum_count", "size", "classes", "_members", "__dict__")
    _fields = ("members", "cum_count")  # parts, the cascade's key parts, is neither compared nor shown

    def __init__(self, parts: tuple, members: tuple, cum_count: int):
        self._hold((parts, None, None), cum_count, len(members), None, members)

    @property
    def parts(self) -> tuple:
        return self._table[0]

    @property
    def members(self) -> tuple:
        try:
            return self._members
        except AttributeError:  # a table's group, not read before
            _set(self, "_members", _expanded(*self._table[1:], self.classes))
            return self._members

    @functools.cached_property
    def value(self) -> LexTuple:
        return _value(self.parts, self.members[0])


# A table's groups are made by filling these slots (_grouped), past __init__ and its _set calls.
_PUT_TABLE, _PUT_COUNT, _PUT_SIZE, _PUT_CLASSES = (getattr(TieGroup, name).__set__ for name in TieGroup.__slots__[:4])


def _layout(m: int, pool: int) -> tuple:
    """The low fields of a class int (_sorted_keys): (the bits of k, the bits of a rank or 0, the shift of the parts).

    Above k and z, a class's ranks in no full pair are held in min(m, pool - m) fields of a rank each, or as a mask
    (bit r - 1 for rank r) when that is narrower: the fields serve a small group against a large pool.
    """
    most, width = min(m, pool - m), pool.bit_length()
    if most * width >= pool:
        width = 0
    return most.bit_length(), width, most.bit_length() + 1 + (most * width or pool)


def _class_members(key: int, m: int, pool: int) -> list:
    """The m-subsets of 1..pool in a class, in combinations order: its ranks in no full pair, and free pairs."""
    kbits, width, _ = _layout(m, pool)
    k, z, held, half = key & (1 << kbits) - 1, key >> kbits & 1, key >> kbits + 1, pool // 2
    if width:
        ranks = [held >> i * width & (1 << width) - 1 for i in range(k)]
    else:
        ranks = [r for r, bit in enumerate(bin(held & (1 << pool) - 1)[:1:-1], 1) if bit == "1"]
    taken = {r if r <= half else pool + 1 - r for r in ranks}
    free = [(j, pool + 1 - j) for j in range(1, half + 1) if j not in taken]
    ranks += [half + 1] * z
    # Pair choices in combinations order give rank sets in combinations order, as high ranks lie above every low one.
    filled = itertools.combinations(free, (m - k - z) // 2)
    return [tuple(sorted([*ranks, *itertools.chain.from_iterable(pairs)])) for pairs in filled]


def _expanded(m: int, pool: int, classes: tuple) -> tuple:
    """A table group's members: run by run in key order, each run's rank sets in combinations order."""
    shift = _layout(m, pool)[2]
    runs = itertools.groupby(classes, key=lambda key: key >> shift)  # classes of one run have equal part fields
    return tuple(itertools.chain.from_iterable(
        sorted(itertools.chain.from_iterable(_class_members(key, m, pool) for key in run)) for _, run in runs
    ))


class AttainableSet(_Record):
    """Grouped permutation distribution of a rank-based cascade.

    The induced p-function attains exactly the cumulative probabilities at
    the group boundaries; groups with more than one member are residual
    ties the cascade failed to break.
    """

    __slots__ = _fields = ("m", "n", "cascade", "precision", "total", "groups", "imprecise")

    def __init__(self, m: int, n: int, cascade: CascadeStatistic, precision: int, total: int, groups: tuple,
                 imprecise: bool):
        self._hold(m, n, cascade, precision, total, groups, imprecise)

    @property
    def values(self) -> tuple:
        return tuple(Fraction(g.cum_count, self.total) for g in self.groups)

    @property
    def residual_ties(self) -> tuple:
        return tuple(g for g in self.groups if g.size > 1)

    def breaks_all_ties(self) -> bool:
        return len(self.groups) == self.total


def _walked(parts: tuple) -> tuple:
    """The key parts a slice's keys can differ on, and have columns for: all but a leading W."""
    return parts[1:] if parts[0] is _RankSum else parts


def _sorted_keys(parts: tuple, m: int, pool: int):
    """A table's slices in ascending key order: (the size it must have, one column per walked part, offsets, classes).

    Every part's per-rank ints are antisymmetric, term(pool + 1 - j) = -term(j), which puts 0 at the middle rank of
    an odd pool (checked here; wilcoxon's once centred). So a rank set's key depends only on its mirror-pair
    c-vector, c_j = [j in A] - [pool + 1 - j in A] for j <= pool // 2: it is the sum over the ranks in no full pair.
    A class is the m-subsets of one c-vector. With k nonzero c_j, and z = 1 when they hold the middle rank, it holds
    C(pool // 2 - k, (m - k - z) / 2) subsets, one per choice of the free pairs they fill. The classes are built over
    the pairs, each with k nonzero c_j from one with k - 1 before its last pair, so their number, not 3^(pool // 2),
    sets the cost; k <= min(m, pool - m). A class is one int: from the lowest bits, k, z, its ranks in no full pair
    (_layout), then one field per part, the first part highest, each the part's sum plus a bias that keeps it in
    [0, 2 bias]. So sums add field by field, and the ints order as the keys do, lexicographically. A slice's offsets
    count the subsets of the classes before each of its classes, and after its last, on from those of the slices
    before it.
    A wilcoxon-first cascade has one slice per rank sum W, in W order, which must hold W's Gaussian binomial
    coefficient of subsets: W = m(pool + 1)/2 + sum of c_j (j - (pool + 1)/2) is one per class. W is constant on
    a slice, so its columns, the walked parts (_walked), are the parts after W. Any other cascade has one slice of
    all C(pool, m) subsets. Threshold (near-)equality is grouping's business.
    """
    half, most = pool // 2, min(m, pool - m)
    terms = [part.terms(pool) for part in parts]
    for i, t in enumerate(terms):
        if t != [-v for v in reversed(t)]:
            raise TheoremCheckError(f"key part {i + 1}'s per-rank ints are not antisymmetric at pool={pool}")
    kbits, width, shift = _layout(m, pool)
    low = kbits + 1  # past k and the middle rank's flag
    # A rank adds 1 to k, itself to the mask or its rank field, and its terms.
    rank = [1] * pool if width else [1 + (1 << low + r) for r in range(pool)]
    fields, base = [], 0
    for t in reversed(terms):
        bias = sum(map(abs, t))
        rank = list(map(operator.add, rank, map(operator.lshift, t, itertools.repeat(shift))))
        fields.append((shift, (1 << (2 * bias).bit_length()) - 1, bias))
        base += bias << shift
        shift += (2 * bias).bit_length()
    fields.reverse()
    by_k = [[base]]  # by_k[k]: the classes with k nonzero c_j, by the pair j of the last, each from one before j
    for k in range(1, most + 1):
        fewer, field = by_k[-1], low + (k - 1) * width  # the field of the k-th nonzero c_j's rank
        by_k.append([
            x + t
            for j in range(k, half + 1)
            for before in (fewer[: math.comb(j - 1, k - 1) << k - 1],)  # fewer's classes of the pairs before j
            for r in (j, pool + 1 - j)
            for t in (rank[r - 1] + (r << field if width else 0),)
            for x in before
        ])
    middle = 1 << kbits if pool % 2 else 0
    classes, multiplicity = [], [0] * (1 << kbits)
    for k, found in enumerate(by_k):
        z = (m - k) % 2  # the middle rank fills what pairs cannot; an even pool has none
        if z and not middle:
            continue
        classes += map(operator.add, found, itertools.repeat(middle)) if z else found
        multiplicity[k] = math.comb(half - k, (m - k - z) // 2)
    del by_k
    classes.sort()
    ks = map(operator.and_, classes, itertools.repeat(len(multiplicity) - 1))
    counts = list(itertools.accumulate(map(multiplicity.__getitem__, ks), initial=0))
    if parts[0] is _RankSum:  # W = m(m + 1)/2 + t has the centred sum 2t - m(pool - m), held plus bias
        spread = m * (pool - m)
        sizes = _gaussian_binomial(m, pool, spread + 1)
        s, _, bias = fields[0]
        above = map(operator.lshift, range(bias - spread + 1, bias + spread + 2, 2), itertools.repeat(s))
        ends = list(map(bisect.bisect_left, itertools.repeat(classes), above))  # past each W's classes
    else:
        sizes, ends = [math.comb(pool, m)], [len(classes)]
    columns = [
        tuple(map(operator.sub, map(operator.and_, map(operator.rshift, classes, itertools.repeat(s)),
                                    itertools.repeat(ones)), itertools.repeat(bias)))
        for s, ones, bias in fields[len(parts) - len(_walked(parts)) :]
    ]
    spans = list(map(slice, [0, *ends], ends))
    column_spans = zip(*(map(column.__getitem__, spans) for column in columns)) if columns else itertools.repeat(())
    offsets = map(counts.__getitem__, map(slice, [0, *ends], [end + 1 for end in ends]))
    return zip(sizes, column_spans, offsets, map(tuple(classes).__getitem__, spans))


def _grouped(table: tuple, slice_: tuple, carry: int, ctx: CompareContext) -> tuple:
    """(the tie groups of one slice, counting on from the ``carry`` assignments before it, their steps by start).

    A group is a run of the slice's classes, and its start the index of its first class. ``table`` is (key parts,
    m, pool), which the groups keep to expand their members.
    """
    # A run of equal sorted keys joins the group if it walks to 0 against its first key. Only grouping flags a table's
    # imprecise ties, as tie windows are intervals, ties symmetric and keys sorted exactly: if keys a < b first differ
    # at part d and tie there (all the order check or recount can meet), the first run r after a greater at d ties a
    # there, and r walked against a start equal to a through d, or a joined a start it differs from by d: one flagged.
    # Keys of two slices differ on W, exactly. With no walked part (wilcoxon alone) a slice is one group.
    _, columns, offsets, classes = slice_
    walked, built, base = _walked(table[0]), {0: ()}, carry - offsets[0]
    if walked:  # else the slice is one group, of no steps
        steps = built[0] = _steps(walked, 0, columns)
        keys = columns[0] if len(columns) == 1 else list(zip(*columns))
        differs = map(operator.ne, itertools.islice(keys, 1, None), keys)  # key i + 1 from key i
        for start in itertools.compress(range(1, len(classes)), differs):  # where a run of equal keys starts
            if _walk(steps, start, ctx) != 0:
                steps = built[start] = _steps(walked, start, columns)
    groups, bounds = [], [*built, len(classes)]
    for a, b in zip(bounds, bounds[1:]):
        group = object.__new__(TieGroup)
        _PUT_TABLE(group, table)
        _PUT_COUNT(group, base + offsets[b])
        _PUT_SIZE(group, offsets[b] - offsets[a])
        _PUT_CLASSES(group, classes[a:b])
        groups.append(group)
    return tuple(groups), built


def _count_not_above(steps: tuple, columns: tuple, offsets: tuple, start: int, stop: int, depth: int = 0) -> int:
    """The assignments of classes start..stop-1 whose _walk(steps, class) is not 1, by bisection.

    The keys at start..stop-1 must be exactly equal on the components before
    ``depth``, so they ascend on component ``depth``. There the walk ties
    on the closed window [lo, hi] of the step, goes to -1 below it and to
    1 above it, so two bisections on the window's ends split the classes,
    and the offsets count their assignments. With no component left, every
    key ties.
    It flags no imprecise tie: any it meets, grouping has flagged (_grouped).
    """
    if depth == len(steps):
        return offsets[stop] - offsets[start]
    _, lo, hi, _ = steps[depth]
    column = columns[depth]
    first = bisect.bisect_left(column, lo, start, stop)
    last = bisect.bisect_right(column, hi, first, stop)
    if depth + 1 == len(steps):
        return offsets[last] - offsets[start]
    count = offsets[first] - offsets[start]
    while first < last:
        block = bisect.bisect_right(column, column[first], first, last)
        count += _count_not_above(steps, columns, offsets, first, block, depth + 1)
        first = block
    return count


def _verify_range_exact(parts: tuple, slice_: tuple, groups: tuple, carry: int, total: int, built: dict) -> int:
    """Check one slice's groups, after the ``carry`` assignments of the slices before it; return the carry past it.

    The slice's classes must hold its size, its Gaussian binomial coefficient
    (or all ``total`` assignments), and its groups must hold the slice. A
    group starts at the class that holds the assignment its count and size
    put first; its steps are those grouping ``built`` at that start, or are
    built here if grouping made none there.
    """
    size, columns, offsets, _ = slice_
    walked = _walked(parts)
    if offsets[-1] - offsets[0] != size:
        raise TheoremCheckError(
            f"a slice holds {offsets[-1] - offsets[0]} assignments, not its Gaussian binomial coefficient {size}"
        )
    sizes = [g.size for g in groups]
    if sum(sizes) != size:
        raise TheoremCheckError("group sizes do not add up to the assignment count")
    base = carry - offsets[0]
    firsts = [g.cum_count - base - k for g, k in zip(groups, sizes)]  # in offsets' terms
    starts = list(built)  # grouping's starts, if each is the class that starts at its group's first assignment
    if list(map(offsets.__getitem__, starts)) == firsts:
        group_steps = list(built.values())
    else:
        starts = [bisect.bisect_right(offsets, first) - 1 for first in firsts]
        group_steps = [built[start] if start in built else _steps(walked, start, columns) for start in starts]
    unread = CompareContext()  # the ties it meets are grouping's (_grouped)
    for start, steps in zip(starts, group_steps[1:]):
        if _walk(steps, start, unread) != -1:
            raise TheoremCheckError("attainable groups are not strictly ascending")
    # Independent recount of P[value <= group value] at every group: the
    # slices before it, then a bisection of this one. The groups up to each
    # one must hold exactly that many assignments.
    held, classes = carry, len(offsets) - 1
    for g, k, steps in zip(groups, sizes, group_steps):
        count = carry + _count_not_above(steps, columns, offsets, 0, classes)
        held += k
        if count != g.cum_count:
            raise TheoremCheckError(f"range-exactness failed at {g.cum_count}/{total}: recounted {count}")
        if held != g.cum_count:
            raise TheoremCheckError(f"range-exactness failed at {g.cum_count}/{total}: groups up to it hold {held}")
    return held


def attainable_set(
    m: int,
    n: int,
    cascade: CascadeStatistic,
    precision: int = DEFAULT_PRECISION,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> AttainableSet:
    """Grouped attainable p-values of a rank-based cascade, verified range-exact one slice at a time."""
    if cascade.has_student_t:
        raise TCascadeNotExactError("t cascades have no data-free permutation distribution")
    total = _check_enum_size(m, n, max_enum)
    parts = _key_parts(cascade, m + n, precision)
    ctx, groups, carry, table = CompareContext(), [], 0, (parts, m, m + n)
    for slice_ in _sorted_keys(parts, m, m + n):
        found, built = _grouped(table, slice_, carry, ctx)
        carry = _verify_range_exact(parts, slice_, found, carry, total, built)
        groups += found
    if carry != total:
        raise TheoremCheckError(f"the slices hold {carry} assignments, not C({m + n},{m}) = {total}")
    return AttainableSet(
        m=m,
        n=n,
        cascade=cascade,
        precision=precision,
        total=total,
        groups=tuple(groups),
        imprecise=ctx.imprecise,
    )


def attainable_pvalues(
    m: int,
    n: int,
    cascade: CascadeStatistic,
    precision: int = DEFAULT_PRECISION,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> list:
    """Sorted attainable p-values {P[V <= v] : v attained}; data-independent."""
    return list(attainable_set(m, n, cascade, precision, max_enum).values)


# ---------------------------------------------------------------------------
# Published reference values for m = n = 6 (Pratt & Gibbons, 1981, Table 5.1)


class ReferenceTable(_Record):
    """Attainable values claimed by the published table inside a window.

    The source table was computed at limited numeric precision; where the
    exact enumeration disagrees the discrepancy is reported, not hidden.
    """

    __slots__ = _fields = ("source", "window_hi", "values")

    def __init__(self, source: str, window_hi: Fraction, values: frozenset):
        self._hold(source, window_hi, values)


def _ref(nums, window_hi) -> ReferenceTable:
    return ReferenceTable(
        source="Pratt-Gibbons 1981 Table 5.1",
        window_hi=Fraction(window_hi, 924),
        values=frozenset(Fraction(k, 924) for k in nums),
    )


_WILCOXON_66 = (1, 2, 4, 7, 12, 19, 30, 43, 61)
_FYT_ADDED_66 = (5, 8, 10, 14, 15, 17, 21, 22, 24, 26, 28, 32, 34, 35, 37, 39, 40, 42, 48, 49)

REFERENCE_TABLES_66 = {
    ("wilcoxon",): _ref(_WILCOXON_66, 61),
    ("wilcoxon", "fyt"): _ref(tuple(k for k in _WILCOXON_66 if k <= 49) + _FYT_ADDED_66, 49),
    ("wilcoxon", "fyt", "vdw"): _ref(
        tuple(k for k in _WILCOXON_66 if k <= 49) + _FYT_ADDED_66 + (41,), 49
    ),
}


def reference_for(m: int, n: int, cascade: CascadeStatistic) -> ReferenceTable | None:
    if (m, n) != (6, 6):
        return None
    return REFERENCE_TABLES_66.get(tuple(c.value for c in cascade.components))


class ReferenceMismatch(_Record):
    """One attainable value on which exact enumeration and the reference differ."""

    __slots__ = _fields = ("value", "in_ours", "groups")  # in_ours, else listed by the reference only

    def __init__(self, value: Fraction, in_ours: bool, groups: tuple):
        self._hold(value, in_ours, groups)


def _deciding_groups(att: AttainableSet, k: int) -> tuple:
    # Groups that decide whether k/total is attained: the first group whose
    # cumulative count reaches k, plus the next one at an exact boundary.
    groups = att.groups
    i = bisect.bisect_left(groups, k, key=lambda g: g.cum_count)
    if i == len(groups):
        return (groups[-1],)
    return groups[i:i + 2] if groups[i].cum_count == k else (groups[i],)


def compare_with_reference(att: AttainableSet, reference: ReferenceTable) -> list:
    """Mismatches between the exact attainable set and a published reference window."""
    # Window membership and attainment are decided on int counts over att.total; only a mismatch makes a Fraction.
    window, total = reference.window_hi, att.total
    ours = {g.cum_count for g in att.groups if g.cum_count * window.denominator <= window.numerator * total}
    listed, mismatches = set(), []
    for value in reference.values:
        k = value.numerator * (total // value.denominator)  # value's count, if its denominator divides total
        if total % value.denominator == 0 and k in ours:
            listed.add(k)
        else:
            mismatches.append((value, False, k))
    mismatches += [(Fraction(k, total), True, k) for k in ours - listed]  # no value is in both lists
    return [ReferenceMismatch(value, in_ours, _deciding_groups(att, k)) for value, in_ours, k in sorted(mismatches)]


# ---------------------------------------------------------------------------
# Monte Carlo calibration for t cascades


class MonteCarloResult(_Record):
    __slots__ = _fields = ("estimate", "ci95", "count", "draws", "seed")

    def __init__(self, estimate: float, ci95: tuple, count: int, draws: int, seed: int):
        self._hold(estimate, ci95, count, draws, seed)

    @property
    def pvalue(self) -> Fraction:
        """(count + 1) / (draws + 1): a valid p-value, never 0 (Phipson & Smyth 2010).

        Under the Gaussian null the observed sample is exchangeable with the
        draws, so counting it among them makes P[pvalue <= eps] <= eps.
        """
        return Fraction(self.count + 1, self.draws + 1)


def _wilson_ci95(count: int, draws: int) -> tuple:
    z = 1.959963984540054
    phat = count / draws
    denom = 1 + z * z / draws
    center = (phat + z * z / (2 * draws)) / denom
    half = z * math.sqrt(phat * (1 - phat) / draws + z * z / (4 * draws * draws)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _float_t(xs, ys) -> float:
    """student_t's t of one draw, in floats."""
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    spread = math.sqrt(sum((v - xbar) ** 2 for v in xs) + sum((v - ybar) ** 2 for v in ys))
    if spread == 0:
        raise DegenerateSpreadError("pooled spread S is zero; t is undefined")
    return (xbar - ybar) / spread


def _normals(seed: int):
    """The floats random.Random(seed).gauss(0.0, 1.0) returns, its Box-Muller pairs inlined.

    Each pair of uniforms gives the cos value, then the sin value, which
    gauss holds over to its next call; a draw of odd size splits a pair
    across two draws just as that carry does. gauss adds 0.0 to each value,
    which only turns a -0.0 into 0.0: the two rank and sum alike. random
    is imported here, so that tables and exact p-values never load it.
    """
    import random

    uniform = random.Random(seed).random
    cos, sin, log, sqrt, tau = math.cos, math.sin, math.log, math.sqrt, math.tau
    while True:
        x2pi = uniform() * tau
        g2rad = sqrt(-2.0 * log(1.0 - uniform()))
        yield cos(x2pi) * g2rad
        yield sin(x2pi) * g2rad


def mc_gaussian_pvalue(
    sample: TwoSample,
    cascade: CascadeStatistic,
    num_draws: int,
    seed: int,
    precision: int = DEFAULT_PRECISION,
    ctx: CompareContext | None = None,
) -> MonteCarloResult:
    """Gaussian-calibrated p-value estimate for a cascade ending in t.

    Draws num_draws pooled samples from the standard normal, assigns the
    first m draws to the x-role, and estimates P[cascade value <= observed].
    Deterministic for a fixed seed: the draws are the stream of
    random.Random(seed).gauss(0.0, 1.0), bit for bit, with its Box-Muller
    pairs inlined (_normals). The rank components use the exact int keys
    under the order of exact mode: the observed ranks come from the exact
    data, a draw's ranks from its float order, and imprecise score ties
    are flagged on ``ctx``. The t component is compared in floats, against
    student_t's 50-digit value of the observed sample rounded to a float,
    and only for draws whose rank components all tie with the observed ones.
    """
    if not cascade.has_student_t:
        raise InvalidCascadeError("the Gaussian Monte Carlo path is for t cascades; use exact_perm_pvalue")
    if num_draws < 1:
        raise RankTestError(f"num_draws must be >= 1, got {num_draws}")
    m, pool = sample.m, sample.pool
    observed_t = float(student_t(sample, 50).value)
    steps = _steps(_key_parts(cascade, pool, precision), x_ranks(sample))
    own = ctx if ctx is not None else CompareContext()
    normals = _normals(seed)
    count, ranks = 0, ()
    for _ in range(num_draws):
        draw = list(itertools.islice(normals, pool))
        if steps:  # a t-only cascade never reads the ranks
            ordered = sorted(draw)
            ranks = [bisect.bisect(ordered, v) for v in draw[:m]]
        order = _walk(steps, ranks, own)
        if order < 0 or order == 0 and _float_t(draw[:m], draw[m:]) <= observed_t:
            count += 1  # t decides only where every rank component ties
    return MonteCarloResult(
        estimate=count / num_draws,
        ci95=_wilson_ci95(count, num_draws),
        count=count,
        draws=num_draws,
        seed=seed,
    )
