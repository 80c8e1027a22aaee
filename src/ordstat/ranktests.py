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
p with |u - v| * 10**p <= 100 * max(|u|, |v|) are treated as genuine ties
and counted on a CompareContext; this threshold is the rank cascades' own
rule, as order.compare orders Scores exactly. Each key part gives the int
window of sums that tie with a sum, decided exactly, and one walk over those
windows (_walk) makes every comparison: of rank sets for p-values and draws,
of indices into the sorted key columns for a table. A wilcoxon-first exact
p-value counts the smaller rank sums from their Gaussian binomial and visits
only the observed rank sum's slice. An attainable set builds a tie group's
value when it is read, and is verified range-exact at every size by an
independent recount that bisects the key columns on the same windows.
mpmath is loaded at the first score-vector or t build, never at import.
"""

from __future__ import annotations

import bisect
import decimal
import enum
import functools
import itertools
import math
import random
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from .order import (
    DEFAULT_PRECISION,
    MIN_PRECISION,
    LexTuple,
    Rank,
    Score,
    exact_fraction,
    format_ord,
)
from .trial import TheoremCheckError

DEFAULT_MAX_ENUM = 10_000_000


@dataclass
class CompareContext:
    """Count of rank-cascade score-sum ties that are not exact equalities."""

    imprecise_ties: int = 0

    def flag_imprecise(self) -> None:
        self.imprecise_ties += 1

    @property
    def imprecise(self) -> bool:
        return self.imprecise_ties > 0


class RankTestError(Exception):
    """Base class for two-sample rank-test errors."""


class DuplicateObservationsError(RankTestError):
    """Pooled observations must be pairwise distinct."""


class DegenerateSpreadError(RankTestError):
    """The pooled spread S of the t statistic vanished."""


class InvalidCascadeError(RankTestError):
    """The cascade component list violates its construction rules."""


class TCascadeNotExactError(RankTestError):
    """Cascades containing the t component have no exact permutation p-value."""


class SizeLimitError(RankTestError):
    """The enumeration C(m+n, m) exceeds the configured cap."""


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


@dataclass(frozen=True)
class CascadeStatistic:
    """Ordered component list evaluated lexicographically.

    At most one STUDENT_T component is allowed and it must come last: the
    rank-based components preceding it stay distribution-free, while the t
    tie-break requires the Gaussian sampling null.
    """

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
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
        object.__setattr__(self, "components", comps)

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


@dataclass(frozen=True)
class TwoSample:
    """Two groups of pairwise distinct exact observations."""

    xs: tuple
    ys: tuple

    def __post_init__(self):
        xs = tuple(exact_fraction(v) for v in self.xs)
        ys = tuple(exact_fraction(v) for v in self.ys)
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
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

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


def _mpf_fraction(f: Fraction):
    import mpmath
    return mpmath.mpf(f.numerator) / f.denominator


# Guard digits tried in turn for a vector's lower half, until every value's
# rounding to `precision` digits is decided. The first FYT rung decided every
# vector checked (pools 2-200 at precisions 4-100); the later ones serve a
# rank whose error interval straddles a rounding boundary.
_FYT_GUARD_DIGITS = (15, 30, 60, 120)
_QUANTILE_GUARD_DIGITS = (15, 25)


def _lower_half(scheme: Component, pool: int, precision: int) -> list:
    # Scores of ranks 1..pool // 2 as Decimals correctly rounded to `precision` digits.
    import mpmath
    fyt = scheme is Component.FYT
    rungs = _FYT_GUARD_DIGITS if fyt else _QUANTILE_GUARD_DIGITS
    for guard in rungs:
        with mpmath.workdps(precision + guard):
            decimals = _folded_order_stats(pool, precision) if fyt else _quantiles(scheme, pool, precision)
        if decimals is not None:
            return decimals
    raise TheoremCheckError(
        f"{scheme.value} {'quadrature' if fyt else 'quantile'} at pool={pool} did not reach "
        f"{precision} digits with {precision + rungs[-1]} working digits"
    )


def _quantiles(scheme: Component, pool: int, precision: int):
    # vdw: the Gaussian quantile sqrt(2) erfinv(2p - 1); laplace: the unit
    # Laplace quantile ln(2p). Both at p = i / (pool + 1) < 1/2, each taken to
    # be within a relative 10^-(precision+10); None when a rounding is undecided.
    import mpmath
    decimals = []
    for i in range(1, pool // 2 + 1):
        p = mpmath.mpf(i) / (pool + 1)
        x = mpmath.sqrt(2) * mpmath.erfinv(2 * p - 1) if scheme is Component.VDW else mpmath.log(2 * p)
        decimals.append(_rounded(x, abs(x) * mpmath.mpf(10) ** -(precision + 10), precision))
    return None if None in decimals else decimals


def _folded_order_stats(pool: int, precision: int):
    # E of the i-th order statistic of `pool` iid standard normals for every
    # i <= pool // 2, by one tanh-sinh level loop over [0, inf) (Takahasi &
    # Mori 1974; Bailey, Jeyabalan & Li 2005). The half z < 0 is folded onto
    # z > 0 by z -> -z, which swaps Phi and 1 - Phi and negates z, so
    # E X_(i) = c_i int_0^inf f_i, f_i = z phi(z) (Phi^(i-1) (1-Phi)^(pool-i) - (1-Phi)^(i-1) Phi^(pool-i)),
    # c_i = pool C(pool-1, i-1). The level sums carry c_i, so quad's error
    # extrapolation, applied to each rank's levels, is relative to its value.
    # A node costs one erfc and one exp, and its rank terms follow by running
    # products. A node z > cut is skipped: its weight is at most (z+1)^2 and,
    # by the Mills ratio 1 - Phi(z) < phi(z)/z, |c_i f_i(z)| <= c_i z phi(z)
    # (phi(z)/z)^(i-1), both decreasing in z, so each skipped node adds its
    # bound at cut to every level's error. The loop stops at the first level
    # where every error is at most 10^-(precision+3) of its value. None unless
    # both ends of every value's error interval then round alike.
    import mpmath
    ctx = mpmath.mp
    rule, prec, half = mpmath.calculus.quadrature.TanhSinh(ctx), ctx.prec, pool // 2
    coeffs = [pool * math.comb(pool - 1, i) for i in range(half)]
    cut = mpmath.sqrt(2 * ctx.dps * mpmath.ln10) + 2
    phi_cut = mpmath.npdf(cut)
    bounds = [(cut + 1) ** 2 * cut * phi_cut * c * (phi_cut / cut) ** i for i, c in enumerate(coeffs)]
    tolerance = mpmath.mpf(10) ** -(precision + 3)
    c1, c2 = 1 / mpmath.sqrt(2), 1 / mpmath.sqrt(2 * mpmath.pi)
    levels = [[] for _ in range(half)]
    skipped = 0
    for degree in range(1, rule.guess_degree(prec) + 1):
        sums = [0] * half
        for z, w in rule.get_nodes(0, mpmath.inf, degree, prec):
            if z > cut:
                skipped += 1
                continue
            lo = mpmath.erfc(z * c1) / 2
            hi = 1 - lo
            g = w * z * mpmath.exp(-z * z / 2) * c2
            a, b, up, down = g * lo ** (pool - 1), g * hi ** (pool - 1), hi / lo, lo / hi
            for i in range(half):
                sums[i] += a - b
                a *= up
                b *= down
        h = mpmath.ldexp(1, -degree)
        for c, s, level in zip(coeffs, sums, levels):
            level.append((level[-1] / 2 if level else 0) + h * c * s)
        if degree == 1:
            continue
        errors = [rule.estimate_error(level, prec, ctx.eps) + h * skipped * bound for level, bound in zip(levels, bounds)]
        if all(e <= tolerance * abs(level[-1]) for e, level in zip(errors, levels)):
            decimals = [_rounded(level[-1], e, precision) for e, level in zip(errors, levels)]
            return None if None in decimals else decimals
    return None


def _decimal_from_mpf(x, precision: int) -> Decimal:
    import mpmath
    return Decimal(mpmath.nstr(x, precision, strip_zeros=False))


def _rounded(x, error, precision: int):
    # x rounded to `precision` digits, or None when x - error and x + error round apart.
    low, high = _decimal_from_mpf(x - error, precision), _decimal_from_mpf(x + error, precision)
    return low if low == high else None


@functools.lru_cache(maxsize=None)
def scheme_scores(scheme: Component, pool: int, precision: int = DEFAULT_PRECISION) -> tuple:
    """Per-rank scores for one scheme at one pool size, as exact decimals.

    The vector is strictly increasing in rank (verified) and antisymmetric
    around the mid-rank by construction: only the lower half is computed
    and the upper half is its mirrored negation, so exact tie structure
    between mirror-image rank configurations survives any precision.
    Every lower-half score is certified: both ends of the interval of its
    error estimate round alike at `precision` digits. An FYT vector comes
    from one tanh-sinh level loop over [0, inf) for all lower-half ranks,
    the negative half folded onto it, stopped at the first level where
    every rank's error estimate is at most 10^-(precision+3) of its value.
    It is recomputed with 30, 60, then 120 guard digits instead of 15 while
    a rank misses that or its rounding is undecided. vdw and laplace
    quantiles are taken to be within 10^-(precision+10) of their values,
    and are evaluated once more with 10 more digits when a rounding is
    undecided. TheoremCheckError is raised when the last rung does not decide.
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
    """t = (mean(xs) - mean(ys)) / S with S the root pooled sum of squares.

    The conventional constant factor is irrelevant for ordering and is
    omitted. Distinct observations make S > 0 whenever m + n >= 3.
    """
    import mpmath
    with mpmath.workdps(precision + 10):
        xs = [_mpf_fraction(v) for v in sample.xs]
        ys = [_mpf_fraction(v) for v in sample.ys]
        xbar = mpmath.fsum(xs) / len(xs)
        ybar = mpmath.fsum(ys) / len(ys)
        spread = mpmath.sqrt(
            mpmath.fsum((v - xbar) ** 2 for v in xs) + mpmath.fsum((v - ybar) ** 2 for v in ys)
        )
        if spread == 0:
            raise DegenerateSpreadError("pooled spread S is zero; t is undefined")
        t = (xbar - ybar) / spread
        return Score(_decimal_from_mpf(t, precision), precision)


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
        if v < 0:
            lo, hi = self.window(-v)
            return -hi, -lo
        return v - v * 100 // self.scale, v * self.scale // (self.scale - 100)

    def value(self, ranks) -> Score:
        """The exact Decimal sum: it keeps the smallest exponent of its terms and of Decimal(0)."""
        total = functools.reduce(_EXACT.add, map(self.decimals.__getitem__, ranks), Decimal(0))
        return Score(total, self.precision)


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


def _rank_sum_below(m: int, pool: int, w: int) -> int:
    """The m-subsets of 1..pool with rank sum < w, read off the Gaussian binomial [pool, m]_q (Andrews 1976, ch. 3)."""
    # W - m(m+1)/2 has generating function prod (1 - x^(pool-k+i)) / (1 - x^i), i <= k, symmetric about top/2: its
    # d first coefficients give the tail below t or the mirror of the tail from t, in some k*d <= k*(top/2 + 1) steps.
    k, t, top = min(m, pool - m), w - m * (m + 1) // 2, m * (pool - m)
    d = max(0, min(t, top + 1 - t))
    c = ([1] + [0] * d)[:d]
    for i in range(1, k + 1):
        c[pool - k + i :] = [a - b for a, b in zip(c[pool - k + i :], c)]
        for r in range(i):
            c[r::i] = itertools.accumulate(c[r::i])
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


@dataclass(frozen=True)
class TieGroup:
    """Assignments sharing one cascade value, built from the first member when read; cum_count counts those <= it."""

    parts: tuple = field(repr=False, compare=False)
    members: tuple
    cum_count: int

    @property
    def size(self) -> int:
        return len(self.members)

    @functools.cached_property
    def value(self) -> LexTuple:
        return _value(self.parts, self.members[0])


@dataclass(frozen=True)
class AttainableSet:
    """Grouped permutation distribution of a rank-based cascade.

    The induced p-function attains exactly the cumulative probabilities at
    the group boundaries; groups with more than one member are residual
    ties the cascade failed to break.
    """

    m: int
    n: int
    cascade: CascadeStatistic
    precision: int
    total: int
    groups: tuple
    imprecise: bool

    @property
    def values(self) -> tuple:
        return tuple(Fraction(g.cum_count, self.total) for g in self.groups)

    @property
    def residual_ties(self) -> tuple:
        return tuple(g for g in self.groups if g.size > 1)

    def breaks_all_ties(self) -> bool:
        return len(self.groups) == self.total


def _sorted_keys(m: int, n: int, cascade: CascadeStatistic, precision: int, max_enum: int) -> tuple:
    """(key parts, one column per part, rank sets), all in ascending key order, over all assignments."""
    if cascade.has_student_t:
        raise TCascadeNotExactError("t cascades have no data-free permutation distribution")
    _check_enum_size(m, n, max_enum)
    parts, ranks = _key_parts(cascade, m + n, precision), range(1, m + n + 1)
    columns = [list(map(sum, itertools.combinations([part.total((r,)) for r in ranks], m))) for part in parts]
    # Exact int keys, sorted stably on each column from the last one: the
    # lexicographic order. Threshold (near-)equality is grouping's business.
    order = range(len(columns[0]))
    for column in reversed(columns):
        order = sorted(order, key=column.__getitem__)
    combos = list(itertools.combinations(ranks, m))
    return parts, tuple(tuple(map(column.__getitem__, order)) for column in columns), tuple(map(combos.__getitem__, order))


def _grouped(parts: tuple, columns: tuple, combos: tuple, ctx: CompareContext) -> tuple:
    # A run of equal sorted keys joins the group if it walks to 0 against its first key; its imprecise ties count
    # per key when it joins, once when it opens a group (its other keys equal the first).
    starts, start, steps = [0], 0, _steps(parts, 0, columns)
    for _, run in itertools.groupby(zip(*columns)):
        size = len(list(run))
        before = ctx.imprecise_ties
        if _walk(steps, start, ctx) == 0:
            ctx.imprecise_ties += (ctx.imprecise_ties - before) * (size - 1)
        else:
            starts.append(start)
            steps = _steps(parts, start, columns)
        start += size
    return tuple(TieGroup(parts, combos[a:b], b) for a, b in zip(starts, starts[1:] + [len(combos)]))


def _count_not_above(steps: tuple, columns: tuple, ctx: CompareContext, start: int, stop: int, depth: int = 0) -> int:
    """#{i in start..stop-1 : _walk(steps, i) is not 1}, by bisection.

    The keys at start..stop-1 must be exactly equal on the components before
    ``depth``, so they ascend on component ``depth``. There the walk ties
    on the closed window [lo, hi] of the step, goes to -1 below it and to
    1 above it, so two bisections on the window's ends split the slice.
    Each window member that is not exactly equal is one imprecise tie.
    """
    _, lo, hi, want = steps[depth]
    column = columns[depth]
    first = bisect.bisect_left(column, lo, start, stop)
    last = bisect.bisect_right(column, hi, first, stop)
    exact = bisect.bisect_right(column, want, first, last) - bisect.bisect_left(column, want, first, last)
    ctx.imprecise_ties += last - first - exact
    count = first - start
    if depth + 1 == len(steps):
        return count + last - first
    while first < last:
        block = bisect.bisect_right(column, column[first], first, last)
        count += _count_not_above(steps, columns, ctx, first, block, depth + 1)
        first = block
    return count


def _verify_range_exact(parts: tuple, columns: tuple, groups: tuple, ctx: CompareContext) -> None:
    total = len(columns[0])
    if sum(g.size for g in groups) != total:
        raise TheoremCheckError("group sizes do not add up to the assignment count")
    starts = [g.cum_count - g.size for g in groups]
    group_steps = [_steps(parts, start, columns) for start in starts]
    for start, steps in zip(starts, group_steps[1:]):
        if _walk(steps, start, ctx) != -1:
            raise TheoremCheckError("attainable groups are not strictly ascending")
    # Independent recount of P[value <= group value] at every group; the
    # groups up to each one must hold exactly that many assignments.
    held = 0
    for g, steps in zip(groups, group_steps):
        count = _count_not_above(steps, columns, ctx, 0, total)
        held += g.size
        if count != g.cum_count:
            raise TheoremCheckError(f"range-exactness failed at {g.cum_count}/{total}: recounted {count}")
        if held != g.cum_count:
            raise TheoremCheckError(f"range-exactness failed at {g.cum_count}/{total}: groups up to it hold {held}")


def attainable_set(
    m: int,
    n: int,
    cascade: CascadeStatistic,
    precision: int = DEFAULT_PRECISION,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> AttainableSet:
    """Grouped attainable p-values of a rank-based cascade, verified range-exact."""
    ctx = CompareContext()
    parts, columns, combos = _sorted_keys(m, n, cascade, precision, max_enum)
    groups = _grouped(parts, columns, combos, ctx)
    _verify_range_exact(parts, columns, groups, ctx)
    return AttainableSet(
        m=m,
        n=n,
        cascade=cascade,
        precision=precision,
        total=len(combos),
        groups=groups,
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


@dataclass(frozen=True)
class ReferenceTable:
    """Attainable values claimed by the published table inside a window.

    The source table was computed at limited numeric precision; where the
    exact enumeration disagrees the discrepancy is reported, not hidden.
    """

    source: str
    window_hi: Fraction
    values: frozenset


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


@dataclass(frozen=True)
class ReferenceMismatch:
    """One attainable value on which exact enumeration and the reference differ."""

    value: Fraction
    in_ours: bool
    in_reference: bool
    groups: tuple


def _deciding_groups(att: AttainableSet, k: int) -> tuple:
    # Groups that decide whether k/total is attained: the group reaching or
    # spanning cumulative count k, plus the next one at an exact boundary.
    for i, g in enumerate(att.groups):
        if g.cum_count >= k:
            if g.cum_count == k and i + 1 < len(att.groups):
                return (g, att.groups[i + 1])
            return (g,)
    return (att.groups[-1],)


def compare_with_reference(att: AttainableSet, reference: ReferenceTable) -> list:
    """Mismatches between the exact attainable set and a published reference window."""
    window = reference.window_hi
    ours = {v for v in att.values if v <= window}
    mismatches = []
    for value in sorted(ours.symmetric_difference(reference.values)):
        k = value.numerator * (att.total // value.denominator)
        mismatches.append(
            ReferenceMismatch(
                value=value,
                in_ours=value in ours,
                in_reference=value in reference.values,
                groups=_deciding_groups(att, k),
            )
        )
    return mismatches


def format_ranks(ranks) -> str:
    return ",".join(str(r) for r in ranks)


def format_tie_group(group: TieGroup, total: int) -> str:
    members = "|".join(format_ranks(m) for m in group.members)
    p = Fraction(group.cum_count, total)
    return (
        f"p={p} cum-count={group.cum_count} size={group.size}"
        f" value={format_ord(group.value)} members={members}"
    )


def describe_mismatch(mismatch: ReferenceMismatch, total: int) -> list:
    """Deterministic report lines: the verdict, then one line per deciding tie group."""
    verdict = (
        f"value={mismatch.value} ours={'attained' if mismatch.in_ours else 'absent'}"
        f" reference={'listed' if mismatch.in_reference else 'absent'}"
    )
    return [verdict] + [format_tie_group(g, total) for g in mismatch.groups]


# ---------------------------------------------------------------------------
# Monte Carlo calibration for t cascades


@dataclass(frozen=True)
class MonteCarloResult:
    estimate: float
    ci95: tuple
    count: int
    draws: int
    seed: int

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
    which only turns a -0.0 into 0.0: the two rank and sum alike.
    """
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
