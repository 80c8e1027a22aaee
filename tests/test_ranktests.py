import bisect
import decimal
import itertools
import json
import math
import random
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ordstat import (
    CascadeStatistic,
    CompareContext,
    Component,
    DegenerateSpreadError,
    DuplicateObservationsError,
    InvalidCascadeError,
    LexTuple,
    Ordering,
    Rank,
    RankTestError,
    Score,
    SizeLimitError,
    TCascadeNotExactError,
    TheoremCheckError,
    TwoSample,
    attainable_pvalues,
    attainable_set,
    compare,
    exact_perm_pvalue,
    format_ord,
    mc_gaussian_pvalue,
    observed_cascade_value,
    rank_sum,
    scheme_scores,
    score_sum,
    student_t,
    ranktests,
    x_ranks,
)
from ordstat.ranktests import (
    DEFAULT_MAX_ENUM,
    RANK_SCHEMES,
    TieGroup,
    _count_not_above,
    _deciding_groups,
    _grouped,
    _key_parts,
    _normals,
    _rank_sum_below,
    _rank_sum_slice,
    _ScoreSum,
    _sorted_keys,
    _steps,
    _value,
    _verify_range_exact,
    _walk,
    _walked,
    compare_with_reference,
    reference_for,
)

F = Fraction


def mp_decimal(x, precision: int) -> Decimal:
    """An mpmath value as a Decimal of ``precision`` significant digits, the independent oracles' rounding."""
    return Decimal(mpmath.nstr(x, precision, strip_zeros=False))


W = CascadeStatistic((Component.WILCOXON,))
WF = CascadeStatistic((Component.WILCOXON, Component.FYT))


def sample(xs, ys) -> TwoSample:
    return TwoSample(tuple(F(v) for v in xs), tuple(F(v) for v in ys))


def ranking_oracle(s: TwoSample):
    pooled = sorted(s.xs + s.ys)
    return sorted(pooled.index(v) + 1 for v in s.xs)


class TestTwoSample:
    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateObservationsError):
            sample([1, 2], [2, 3])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            TwoSample((0.5,), (F(1),))

    def test_empty_group_rejected(self):
        from ordstat import RankTestError

        with pytest.raises(RankTestError):
            TwoSample((), (F(1),))


class TestRankSum:
    def test_smallest_block(self):
        s = sample([1, 2, 3], [4, 5, 6, 7])
        assert rank_sum(s) == 3 * 4 // 2

    def test_largest_block(self):
        s = sample([5, 6, 7], [1, 2, 3, 4])
        assert rank_sum(s) == sum(range(5, 8))

    def test_interleaved(self):
        s = sample(["1.0", "3.0"], ["2.0", "4.0"])
        assert x_ranks(s) == (1, 3)
        assert rank_sum(s) == 4
        assert list(x_ranks(s)) == ranking_oracle(s)


class TestSchemeScores:
    @pytest.mark.parametrize("scheme", [Component.FYT, Component.VDW, Component.LAPLACE])
    @pytest.mark.parametrize("pool", [2, 3, 7, 12])
    def test_strictly_increasing_and_antisymmetric(self, scheme, pool):
        scores = scheme_scores(scheme, pool, 50)
        assert len(scores) == pool
        assert all(a < b for a, b in zip(scores, scores[1:]))
        assert all(scores[i].copy_negate() == scores[pool - 1 - i] for i in range(pool))

    def test_wilcoxon_is_identity(self):
        assert scheme_scores(Component.WILCOXON, 5, 50) == tuple(Decimal(i) for i in range(1, 6))

    def _close(self, got: Decimal, want: Decimal, digits=45):
        scale = max(abs(got), abs(want), Decimal(1))
        assert abs(got - want) <= scale * Decimal(10) ** -digits

    def test_fyt_closed_forms(self):
        # E of the extreme order statistic has closed forms: -1/sqrt(pi) for
        # a pool of two, -3/(2 sqrt(pi)) for a pool of three.
        with mpmath.workdps(70):
            want2 = Decimal(mpmath.nstr(-1 / mpmath.sqrt(mpmath.pi), 55))
            want3 = Decimal(mpmath.nstr(-3 / (2 * mpmath.sqrt(mpmath.pi)), 55))
        self._close(scheme_scores(Component.FYT, 2, 50)[0], want2)
        got3 = scheme_scores(Component.FYT, 3, 50)
        self._close(got3[0], want3)
        assert got3[1] == 0

    def test_laplace_closed_form_pool_three(self):
        with mpmath.workdps(70):
            want = Decimal(mpmath.nstr(mpmath.log(mpmath.mpf(1) / 2), 55))
        got = scheme_scores(Component.LAPLACE, 3, 50)
        self._close(got[0], want)
        assert got[1] == 0
        assert got[2] == got[0].copy_negate()

    def test_vdw_midpoint_zero_for_odd_pool(self):
        assert scheme_scores(Component.VDW, 7, 50)[3] == 0

    @pytest.mark.parametrize("scheme", [Component.VDW, Component.LAPLACE])
    def test_undecided_quantile_is_evaluated_again(self, monkeypatch, scheme):
        want = scheme_scores.__wrapped__(scheme, 9, 12)
        digits = undecided_at(monkeypatch, {27})
        assert scheme_scores.__wrapped__(scheme, 9, 12) == want
        assert digits == [27] * 4 + [37] * 4

    @pytest.mark.parametrize("scheme", [Component.VDW, Component.LAPLACE])
    def test_undecided_quantile_fails(self, monkeypatch, scheme):
        digits = undecided_at(monkeypatch, {27, 37})
        with pytest.raises(TheoremCheckError, match=f"{scheme.value} quantile at pool=9 did not reach 12 digits"):
            scheme_scores.__wrapped__(scheme, 9, 12)
        assert digits == [27] * 4 + [37] * 4


class TestScoreSum:
    def test_wilcoxon_equals_rank_sum(self):
        s = sample([1, 4, 6], [2, 3, 5])
        got = score_sum(s, Component.WILCOXON)
        assert got.value == rank_sum(s)

    def test_vdw_extreme_ranks_cancel(self):
        s = sample([0, 10], [1, 2])  # ranks 1 and 4 of a pool of 4
        assert x_ranks(s) == (1, 4)
        assert score_sum(s, Component.VDW).value == 0

    def test_laplace_pool_three(self):
        s = sample([1], [2, 3])  # rank 1 of pool 3: score ln(1/2)
        got = score_sum(s, Component.LAPLACE)
        with mpmath.workdps(70):
            want = Decimal(mpmath.nstr(mpmath.log(mpmath.mpf(1) / 2), 55))
        assert abs(got.value - want) <= abs(want) * Decimal("1e-45")


class TestStudentT:
    def test_hand_example(self):
        s = sample([0, 2], [1, 3])
        got = student_t(s)
        # independent arithmetic oracle in exact rationals:
        # numerator = -1, S^2 = (1 + 1) + (1 + 1) = 4, so t = -1/2
        xbar, ybar = F(1), F(2)
        s_squared = sum((v - xbar) ** 2 for v in s.xs) + sum((v - ybar) ** 2 for v in s.ys)
        assert s_squared == 4
        assert (xbar - ybar) ** 2 / s_squared == F(1, 4)
        assert got.value == Decimal("-0.5")

    def test_role_swap_negates(self):
        a = student_t(sample([0, 2], [1, 3, 7]))
        b = student_t(sample([1, 3, 7], [0, 2]))
        assert a.value == b.value.copy_negate()

    def test_symmetric_groups_give_zero(self):
        got = student_t(sample([-1, 1], [-2, 2]))
        assert got.value == 0
        assert format_ord(got) == "0E-1~p50"  # Decimal("0.0"), as the zero t has always printed

    def test_single_pair_degenerate(self):
        with pytest.raises(DegenerateSpreadError):
            student_t(sample([1], [2]))


class TestCascade:
    def test_parse(self):
        c = CascadeStatistic.parse("wilcoxon, fyt,vdw")
        assert [x.value for x in c.components] == ["wilcoxon", "fyt", "vdw"]

    def test_unknown_component(self):
        with pytest.raises(InvalidCascadeError):
            CascadeStatistic.parse("wilcoxon,median")

    def test_empty(self):
        with pytest.raises(InvalidCascadeError):
            CascadeStatistic.parse("")

    def test_t_must_be_last(self):
        with pytest.raises(InvalidCascadeError):
            CascadeStatistic.parse("t,wilcoxon")

    def test_at_most_one_t(self):
        with pytest.raises(InvalidCascadeError):
            CascadeStatistic.parse("wilcoxon,t,t")


class TestExactPermPValue:
    def test_single_pair(self):
        assert exact_perm_pvalue(sample([1], [2]), W) == F(1, 2)

    def test_smallest_block_is_minimal(self):
        s = sample([1, 2, 3], [4, 5, 6])
        assert exact_perm_pvalue(s, W) == F(1, math.comb(6, 3))

    def test_t_cascade_rejected(self):
        with pytest.raises(TCascadeNotExactError):
            exact_perm_pvalue(sample([1, 2], [3, 4]), CascadeStatistic.parse("wilcoxon,t"))

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            exact_perm_pvalue(sample([1, 2], [3, 4]), W, max_enum=3)

    def test_size_cap_past_int_digit_limit(self):
        # C(16000,8000) has more digits than str() may print; the cap error says so instead of printing it.
        message = (rf"^C\(16000,8000\) has more than {sys.get_int_max_str_digits()} digits "
                   rf"and exceeds the enumeration cap {DEFAULT_MAX_ENUM}$")
        with pytest.raises(SizeLimitError, match=message):
            exact_perm_pvalue(sample(range(1, 16000, 2), range(2, 16001, 2)), W)
        with pytest.raises(SizeLimitError, match=message):
            attainable_set(8000, 8000, W)

    def test_invariant_under_increasing_transform(self):
        s = sample([1, 4, 6], [2, 3, 5])
        cubed = TwoSample(tuple(v**3 for v in s.xs), tuple(v**3 for v in s.ys))
        for cascade in (W, WF):
            assert exact_perm_pvalue(s, cascade) == exact_perm_pvalue(cubed, cascade)

    @pytest.mark.parametrize("xs,ys", [([1, 4], [2, 3, 5]), ([2, 3, 9], [1, 5, 7])])
    def test_role_swap_identity(self, xs, ys):
        # p(sample) + p(swapped) = 1 + P[V = observed] for the rank sum
        s = sample(xs, ys)
        swapped = TwoSample(s.ys, s.xs)
        total = math.comb(s.pool, s.m)
        observed = rank_sum(s)
        import itertools

        at_observed = sum(
            1
            for combo in itertools.combinations(range(1, s.pool + 1), s.m)
            if sum(combo) == observed
        )
        assert exact_perm_pvalue(s, W) + exact_perm_pvalue(swapped, W) == 1 + F(at_observed, total)

    def test_matches_attainable_cum(self):
        s = sample([1, 2, 4], [3, 5, 6])
        p = exact_perm_pvalue(s, WF)
        att = attainable_set(3, 3, WF)
        assert p in set(att.values)


def brute_force_range_exact(att):
    """Independent oracle: each assignment's p-value is its group cum; check
    P[p <= eps] == eps by recounting at every attained eps."""
    pvalues = []
    for g in att.groups:
        pvalues.extend([F(g.cum_count, att.total)] * g.size)
    for eps in att.values:
        assert F(sum(1 for p in pvalues if p <= eps), att.total) == eps


class TestAttainable:
    def test_one_one(self):
        assert attainable_pvalues(1, 1, W) == [F(1, 2), F(1)]

    def test_wilcoxon_66_prefix(self):
        values = attainable_pvalues(6, 6, W)
        assert values[:9] == [F(k, 924) for k in (1, 2, 4, 7, 12, 19, 30, 43, 61)]

    def test_refinement_monotonicity(self):
        for m, n in [(2, 3), (3, 3), (4, 2)]:
            base = set(attainable_pvalues(m, n, W))
            for extra in ("wilcoxon,fyt", "wilcoxon,vdw", "wilcoxon,laplace", "wilcoxon,fyt,vdw"):
                refined = set(attainable_pvalues(m, n, CascadeStatistic.parse(extra)))
                assert base <= refined

    def test_range_exact_brute_force(self):
        for cascade in (W, WF):
            brute_force_range_exact(attainable_set(3, 4, cascade))

    def test_rank_sum_distribution_symmetric(self):
        for m, n in [(2, 3), (4, 4), (6, 6)]:
            att = attainable_set(m, n, W)
            sizes = [g.size for g in att.groups]
            assert sizes == sizes[::-1]
            center = F(m * (m + n + 1), 2)
            values = [g.value.components[0].value for g in att.groups]
            assert all(F(a + b, 2) == center for a, b in zip(values, values[::-1]))

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            attainable_pvalues(6, 6, W, max_enum=100)

    def test_groups_are_strictly_ascending(self):
        att = attainable_set(4, 4, WF)
        for a, b in zip(att.groups, att.groups[1:]):
            assert compare(a.value, b.value) is Ordering.LT

    def test_groups_hold_every_assignment_once(self):
        for cascade in (W, WF, CascadeStatistic.parse("laplace")):
            att = attainable_set(4, 3, cascade)
            members = [ranks for g in att.groups for ranks in g.members]
            assert sorted(members) == list(itertools.combinations(range(1, 8), 4))
            counts = [g.cum_count for g in att.groups]
            assert counts == sorted(set(counts)) and counts[-1] == att.total == math.comb(7, 4)

    @pytest.mark.parametrize("precision", [0, 1, 2, 3])
    def test_score_components_need_precision_four(self, precision):
        for scheme in (Component.FYT, Component.VDW, Component.LAPLACE):
            with pytest.raises(RankTestError, match="precision >= 4"):
                scheme_scores(scheme, 6, precision)
        assert scheme_scores(Component.WILCOXON, 6, precision) == tuple(Decimal(i) for i in range(1, 7))
        fyt = CascadeStatistic.parse("fyt")
        with pytest.raises(RankTestError, match="precision >= 4"):
            attainable_set(3, 3, fyt, precision=precision)
        with pytest.raises(RankTestError, match="precision >= 4"):
            exact_perm_pvalue(sample([1, 2, 3], [4, 5, 6]), WF, precision)
        assert len(attainable_set(3, 3, W, precision=precision).groups) == 10


class TestReferenceComparison:
    def test_wilcoxon_66_matches_reference(self):
        att = attainable_set(6, 6, W)
        ref = reference_for(6, 6, W)
        assert compare_with_reference(att, ref) == []

    def test_fyt_66_disagreements_are_exactly_documented(self):
        # Exact enumeration vs the published table: the disputed cumulative
        # counts are pinned so any change in the enumeration surfaces here.
        att = attainable_set(6, 6, WF)
        ref = reference_for(6, 6, WF)
        mismatches = compare_with_reference(att, ref)
        ours_only = sorted(m.value * 924 for m in mismatches if m.in_ours)
        ref_only = sorted(m.value * 924 for m in mismatches if not m.in_ours)
        assert ours_only == [36, 41, 44]
        assert ref_only == [35, 40, 42, 48, 49]
        for m in mismatches:
            assert m.groups, "every mismatch carries its deciding tie groups"

    @staticmethod
    def linear_deciding_groups(att, k) -> tuple:
        """The linear scan that _deciding_groups' bisection replaced, kept as its reference."""
        for i, g in enumerate(att.groups):
            if g.cum_count >= k:
                if g.cum_count == k and i + 1 < len(att.groups):
                    return (g, att.groups[i + 1])
                return (g,)
        return (att.groups[-1],)

    @pytest.mark.parametrize("m, n, cascade", [(1, 1, "wilcoxon"), (5, 5, "wilcoxon"), (4, 4, "wilcoxon,fyt"),
                                               (6, 6, "wilcoxon,fyt"), (3, 5, "laplace")])
    def test_deciding_groups_bisection_matches_linear_scan(self, m, n, cascade):
        # every k, past the last group's count included, not only the values a reference disputes
        att = attainable_set(m, n, CascadeStatistic.parse(cascade), precision=10)
        for k in range(att.total + 2):
            assert _deciding_groups(att, k) == self.linear_deciding_groups(att, k)

    def test_no_reference_off_registry(self):
        assert reference_for(5, 5, W) is None
        assert reference_for(6, 6, CascadeStatistic.parse("wilcoxon,laplace")) is None


class TestMonteCarlo:
    def test_requires_t_component(self):
        with pytest.raises(InvalidCascadeError):
            mc_gaussian_pvalue(sample([1], [2]), W, 10, seed=1)

    def test_deterministic(self):
        s = sample([1, 4], [2, 3])
        cascade = CascadeStatistic.parse("wilcoxon,t")
        a = mc_gaussian_pvalue(s, cascade, 2000, seed=11)
        b = mc_gaussian_pvalue(s, cascade, 2000, seed=11)
        assert a == b
        c = mc_gaussian_pvalue(s, cascade, 2000, seed=12)
        assert a != c

    def test_extreme_observed_t_near_one(self):
        s = sample([1000, 1001], [0, 1])
        got = mc_gaussian_pvalue(s, CascadeStatistic.parse("t"), 2000, seed=3)
        assert got.estimate >= 0.999

    def test_agrees_with_exact_rank_component(self):
        # The rank component is distribution-free under the Gaussian null.
        # With a unique assignment at the observed rank-sum the tie atom is
        # 1/C, so a wilcoxon,t estimate sits within that band (plus noise)
        # of the exact wilcoxon p-value.
        s = sample([1, 2, 3, 5], [4, 6, 7, 8])
        assert rank_sum(s) == 11  # achieved by exactly one rank subset
        cascade = CascadeStatistic.parse("wilcoxon,t")
        draws = 4000
        got = mc_gaussian_pvalue(s, cascade, draws, seed=29)
        exact = exact_perm_pvalue(s, W)
        se = math.sqrt(float(exact) * (1 - float(exact)) / draws)
        band = 1 / math.comb(8, 4)
        assert abs(got.estimate - float(exact)) <= 3 * se + band

    def test_ci_brackets_estimate(self):
        got = mc_gaussian_pvalue(sample([1, 4], [2, 3]), CascadeStatistic.parse("t"), 500, seed=5)
        lo, hi = got.ci95
        assert 0 <= lo <= got.estimate <= hi <= 1

    @pytest.mark.parametrize("cascade", ["t", "wilcoxon,t"])
    def test_degenerate_spread_rejected(self, cascade):
        with pytest.raises(DegenerateSpreadError):
            mc_gaussian_pvalue(sample([1], [2]), CascadeStatistic.parse(cascade), 10, seed=1)

    @staticmethod
    def inline_walk_count(s, cascade, num_draws, seed, precision):
        """(count, imprecise ties) from the draw loop with the walk over the observed steps written inline."""
        m, pool = s.m, s.pool
        observed_t = float(student_t(s, 50).value)
        steps = _steps(_key_parts(cascade, pool, precision), x_ranks(s))
        ctx, normals, count = CompareContext(), _normals(seed), 0
        for _ in range(num_draws):
            draw = list(itertools.islice(normals, pool))
            if steps:
                ordered = sorted(draw)
                ranks = [bisect.bisect(ordered, v) for v in draw[:m]]
            for key_total, lo, hi, want in steps:
                total = key_total(ranks)
                if total < lo:
                    count += 1
                    break
                if total > hi:
                    break
                if total != want:
                    ctx.flag_imprecise()
            else:
                if ranktests._float_t(draw[:m], draw[m:]) <= observed_t:
                    count += 1
        return count, ctx.imprecise_ties

    @pytest.mark.parametrize("cascade", ["wilcoxon,t", "wilcoxon,fyt,t", "wilcoxon,laplace,t"])
    @pytest.mark.parametrize("precision", [4, 50])
    @pytest.mark.parametrize("seed", [7, 1000])
    def test_shared_walk_counts_as_the_inline_loop(self, cascade, precision, seed):
        # At precision 4 this sample's fyt draws (both seeds) and laplace draws (seed 7) tie imprecisely.
        s = sample([2, 5, 6, 7, 11, 12, 14], [1, 3, 4, 8, 9, 10, 13])
        parsed = CascadeStatistic.parse(cascade)
        ctx = CompareContext()
        got = mc_gaussian_pvalue(s, parsed, 800, seed, precision, ctx)
        assert (got.count, ctx.imprecise_ties) == self.inline_walk_count(s, parsed, 800, seed, precision)

    def test_pvalue_counts_the_observed_sample(self):
        # Every x far below every y: no draw is at or below the observed value.
        s = sample([1, 2, 3], [1000, 1001, 1002])
        got = mc_gaussian_pvalue(s, CascadeStatistic.parse("wilcoxon,t"), 300, seed=2)
        assert (got.count, got.estimate, got.pvalue) == (0, 0.0, F(1, 301))


class TestObservedValue:
    def test_components_line_up(self):
        s = sample([1, 4], [2, 3])
        value = observed_cascade_value(s, CascadeStatistic.parse("wilcoxon,fyt,t"))
        assert value.components[0].value == rank_sum(s)
        assert value.components[1].value == score_sum(s, Component.FYT).value
        assert value.components[2].value == student_t(s).value
        assert observed_cascade_value(s, CascadeStatistic.parse("t")) == LexTuple((student_t(s),))


class TestEmptyGroups:
    @pytest.mark.parametrize("m,n", [(0, 3), (3, 0)])
    def test_rejected(self, m, n):
        with pytest.raises(RankTestError):
            attainable_set(m, n, W)


# ---------------------------------------------------------------------------
# The integer kernel against brute force on Decimal values

RANK_CASCADES = tuple(CascadeStatistic(c) for k in (1, 2, 3) for c in itertools.permutations(RANK_SCHEMES, k))
PRECISIONS = (4, 6, 8, 12, 50)


def decimal_value(ranks, cascade, pool, precision) -> LexTuple:
    """Reference cascade value from exact Decimal score sums, independent of the int keys."""
    parts = []
    for comp in cascade.components:
        if comp is Component.WILCOXON:
            parts.append(Rank(sum(ranks)))
            continue
        scores = scheme_scores(comp, pool, precision)
        with localcontext() as c:
            c.prec = precision + 40
            c.traps[Inexact] = True
            total = Decimal(0)
            for r in ranks:
                total += scores[r - 1]
        parts.append(Score(total, precision))
    return LexTuple(tuple(parts))


_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def threshold_compare(a, b, ctx) -> Ordering:
    """Reference rank-cascade order of Decimal values, decided exactly.

    Scores u != v at precisions p and q tie, and flag ctx, when
    |u - v| * 10**min(p, q) <= 100 * max(|u|, |v|).
    """
    if isinstance(a, LexTuple):
        for x, y in zip(a.components, b.components):
            o = threshold_compare(x, y, ctx)
            if o is not Ordering.EQ:
                return o
        return Ordering.EQ
    u, v = a.value, b.value
    if u == v:
        return Ordering.EQ
    if isinstance(a, Score):
        with localcontext(_EXACT):
            within = abs(u - v).scaleb(min(a.precision, b.precision)) <= 100 * max(abs(u), abs(v))
        if within:
            ctx.flag_imprecise()
            return Ordering.EQ
    return Ordering.LT if u < v else Ordering.GT


def pairwise_recount(values, group_value, ctx) -> int:
    """The quadratic recount: every value compared with the group value."""
    return sum(1 for v in values if threshold_compare(v, group_value, ctx) is not Ordering.GT)


def table_slices(cascade, m, n, precision, ctx=None) -> tuple:
    """(key parts, [(carry, slice, groups)]): every slice of the table, grouped on ``ctx`` and not verified."""
    parts, carry, grouped = _key_parts(cascade, m + n, precision), 0, []
    for slice_ in _sorted_keys(parts, m, m + n):
        grouped.append((carry, slice_, _grouped(parts, slice_, carry, ctx if ctx is not None else CompareContext())))
        carry += len(slice_[2])
    return parts, grouped


def check_grouping_and_recount(cascade, m, n, precision) -> int:
    """Slice-wise int-key sort, grouping and bisection recount equal the Decimal brute force.

    Returns grouping's imprecise ties. Grouping walks each run of equal keys once, so the reference compares each
    distinct key once. The recount flags nothing: grouping's flag alone must equal the reference's grouping-or-recount
    flag.
    """
    ctx, ref, recount = CompareContext(), CompareContext(), CompareContext()
    parts, grouped = table_slices(cascade, m, n, precision, ctx)
    walked = _walked(parts)
    combos = [c for _, (_, _, sl), _ in grouped for c in sl]
    assert sorted(combos) == list(itertools.combinations(range(1, m + n + 1), m))
    for _, (size, columns, sl), _ in grouped:
        assert len(sl) == size
        assert [list(column) for column in columns] == [[part.total(c) for c in sl] for part in walked]
        if walked != parts:  # a slice per rank sum
            assert len({sum(c) for c in sl}) == 1
    values = [decimal_value(c, cascade, m + n, precision) for c in combos]
    exact = [tuple(p.value for p in v.components) for v in values]
    assert exact == sorted(exact)
    groups = [g for _, _, found in grouped for g in found]
    starts = []
    for i, v in enumerate(values):
        if i and exact[i] == exact[i - 1]:
            continue
        if not starts or threshold_compare(v, values[starts[-1]], ref) is not Ordering.EQ:
            starts.append(i)
    assert [g.cum_count for g in groups] == starts[1:] + [len(values)]
    assert ctx.imprecise_ties == ref.imprecise_ties
    for carry, (size, columns, _), found in grouped:
        for g in found:
            start = g.cum_count - g.size
            # format_ord prints every coefficient digit, so this pins the Decimal exponent too.
            assert format_ord(g.value) == format_ord(values[start])
            got = carry + _count_not_above(_steps(walked, start - carry, columns), columns, 0, size)
            assert got == pairwise_recount(values, values[start], recount)
    assert ctx.imprecise == (ref.imprecise or recount.imprecise)
    return ref.imprecise_ties


def whole_table(cascade, m, n, precision) -> tuple:
    """(key parts, columns, groups, imprecise): one sort and one grouping of all assignments, a table before slices."""
    parts, ranks = _key_parts(cascade, m + n, precision), range(1, m + n + 1)
    columns = [list(map(sum, itertools.combinations([part.total((r,)) for r in ranks], m))) for part in parts]
    order = range(len(columns[0]))
    for column in reversed(columns):
        order = sorted(order, key=column.__getitem__)
    combos = list(itertools.combinations(ranks, m))
    columns = tuple(tuple(map(column.__getitem__, order)) for column in columns)
    combos = tuple(map(combos.__getitem__, order))
    ctx, starts, start, steps = CompareContext(), [0], 0, _steps(parts, 0, columns)
    for _, run in itertools.groupby(zip(*columns)):
        if _walk(steps, start, ctx) != 0:
            starts.append(start)
            steps = _steps(parts, start, columns)
        start += len(list(run))
    groups = tuple(TieGroup(parts, combos[a:b], b) for a, b in zip(starts, starts[1:] + [len(combos)]))
    return parts, columns, groups, ctx.imprecise


def check_pvalues(cascade, m, n, precision, observed_sets) -> int:
    """exact_perm_pvalue equals a compare count over every rank subset; returns the imprecise ties."""
    pool = m + n
    values = [decimal_value(c, cascade, pool, precision) for c in itertools.combinations(range(1, pool + 1), m)]
    ties = 0
    for observed in observed_sets:
        sample = TwoSample(tuple(observed), tuple(r for r in range(1, pool + 1) if r not in observed))
        ctx, ref = CompareContext(), CompareContext()
        got = exact_perm_pvalue(sample, cascade, precision, ctx=ctx)
        want = decimal_value(observed, cascade, pool, precision)
        assert got == F(pairwise_recount(values, want, ref), len(values))
        assert ctx.imprecise_ties == ref.imprecise_ties
        assert format_ord(observed_cascade_value(sample, cascade, precision)) == format_ord(want)
        ties += ref.imprecise_ties
    return ties


class TestIntegerKernel:
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_every_cascade_exhaustively_at_two_by_three(self, precision):
        for cascade in RANK_CASCADES:
            check_grouping_and_recount(cascade, 2, 3, precision)
            check_pvalues(cascade, 2, 3, precision, itertools.combinations(range(1, 6), 2))

    @pytest.mark.parametrize(
        "cascade,m,n,precision",
        [
            ("laplace", 3, 4, 4),
            ("wilcoxon,fyt", 4, 5, 4),
            ("fyt,laplace", 5, 5, 4),
            ("wilcoxon,fyt,laplace", 5, 4, 4),
            ("laplace,wilcoxon,fyt", 5, 5, 6),
        ],
    )
    def test_with_imprecise_ties(self, cascade, m, n, precision):
        cascade = CascadeStatistic.parse(cascade)
        assert check_grouping_and_recount(cascade, m, n, precision) > 0
        assert check_pvalues(cascade, m, n, precision, itertools.combinations(range(1, m + n + 1), m)) > 0

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(RANK_CASCADES), st.integers(1, 5), st.integers(1, 5), st.sampled_from(PRECISIONS))
    def test_grouping_and_recount_match_pairwise(self, cascade, m, n, precision):
        check_grouping_and_recount(cascade, m, n, precision)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(RANK_CASCADES),
        st.integers(1, 5),
        st.integers(1, 5),
        st.sampled_from(PRECISIONS),
        st.data(),
    )
    def test_pvalue_matches_brute_force(self, cascade, m, n, precision, data):
        observed = sorted(data.draw(st.permutations(range(1, m + n + 1)))[:m])
        check_pvalues(cascade, m, n, precision, [observed])

    def test_score_order_equals_compare_at_the_threshold(self):
        # At precision 4 the threshold is a relative distance of 1/100. 9900
        # and 10000 sit exactly on it. 10**16 - 10**14 - 1 and 10**16 sit just
        # above it, at a relative distance of 0.01 + 10**-16, and the reference
        # decides that exactly, with no rounding of the distance.
        parts = (_ScoreSum((Decimal("0.0001"),), 4),)
        ints = [*range(9890, 9910), *range(9990, 10010), *range(10090, 10110)]
        ints += [10**16, 10**16 - 10**14 - 1, 10**16 - 10**14 - 2, 10**16 - 10**14]
        ints += [-v for v in ints]
        columns, order = (ints,), {-1: Ordering.LT, 0: Ordering.EQ, 1: Ordering.GT}
        for j, b in enumerate(ints):
            steps = _steps(parts, j, columns)
            for i, a in enumerate(ints):
                fast, slow = CompareContext(), CompareContext()
                want = threshold_compare(Score(Decimal(a).scaleb(-4), 4), Score(Decimal(b).scaleb(-4), 4), slow)
                assert order[_walk(steps, i, fast)] is want
                assert fast.imprecise_ties == slow.imprecise_ties

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.integers(-10**60, 10**60), st.integers(-10**6, 10**6), st.just(0)),
        st.sampled_from((4, 5, 8, 20, 50, 100)),
        st.integers(-30, 30),
    )
    def test_window_is_the_eq_set_of_compare(self, v, precision, exponent):
        # The window's ends compare EQ with v, and the ints just outside it do not.
        lo, hi = _ScoreSum((Decimal("0.0001"),), precision).window(v)
        assert lo <= v <= hi

        def score(u):
            return Score(Decimal(u).scaleb(exponent, Context(prec=MAX_PREC)), precision)

        for u, eq in ((lo, True), (hi, True), (lo - 1, False), (hi + 1, False)):
            assert (threshold_compare(score(u), score(v), CompareContext()) is Ordering.EQ) is eq

    def test_corrupted_grouping_rejected_at_every_size(self):
        # 8x8 wilcoxon,vdw lies above the size bound under which the recount used to run.
        parts, grouped = table_slices(CascadeStatistic.parse("wilcoxon,vdw"), 8, 8, 50)
        total = math.comb(16, 8)
        assert total * sum(len(found) for _, _, found in grouped) > 2_000_000
        for carry, slice_, found in grouped:
            assert _verify_range_exact(parts, slice_, found, carry, total) == carry + slice_[0]
        carry, slice_, found = grouped[len(grouped) // 2]
        i = len(found) // 2
        a, b = found[i], found[i + 1]
        merged = TieGroup(parts=a.parts, members=a.members + b.members, cum_count=a.cum_count)
        with pytest.raises(TheoremCheckError):
            _verify_range_exact(parts, slice_, found[:i] + (merged,) + found[i + 2 :], carry, total)


class TestSliceWiseTable:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(RANK_CASCADES), st.integers(1, 7), st.integers(1, 7), st.sampled_from((4, 8, 50)))
    @example(CascadeStatistic.parse("wilcoxon,fyt,vdw"), 7, 7, 4)  # a slice's groups out of order
    @example(CascadeStatistic.parse("laplace,vdw"), 7, 7, 50)  # the one slice's groups out of order
    @example(CascadeStatistic.parse("wilcoxon,laplace"), 7, 7, 8)  # imprecise ties
    @example(W, 7, 7, 50)
    def test_slices_equal_the_whole_table(self, cascade, m, n, precision):
        # Group boundaries, member order, printed values and the imprecise flag, or the same failed order check.
        parts, columns, groups, imprecise = whole_table(cascade, m, n, precision)
        try:
            att = attainable_set(m, n, cascade, precision)
        except TheoremCheckError as e:
            starts = [g.cum_count - g.size for g in groups]
            ascending = all(_walk(_steps(parts, b, columns), a, CompareContext()) == -1
                            for a, b in zip(starts, starts[1:]))
            assert (str(e), ascending) == ("attainable groups are not strictly ascending", False)
            return
        assert [g.cum_count for g in att.groups] == [g.cum_count for g in groups]
        assert [g.members for g in att.groups] == [g.members for g in groups]
        assert [format_ord(g.value) for g in att.groups] == [format_ord(g.value) for g in groups]
        assert att.imprecise == imprecise


def _group(like, members, cum_count) -> TieGroup:
    return TieGroup(like.parts, members, cum_count)


# Corruptions of two adjacent groups a, b of one slice, and the message of the one check that rejects each.
CORRUPTIONS = {
    "drop a member": (lambda a, b: (_group(a, a.members[1:], a.cum_count), b), r"group sizes do not add up"),
    "swap": (lambda a, b: (b, a), r"attainable groups are not strictly ascending"),
    "merge": (lambda a, b: (_group(a, a.members + b.members, b.cum_count),), r"recounted \d+"),
    # b's count takes in the moved member, so every group's first key stays in its own group.
    "move a's last member into b": (
        lambda a, b: (_group(a, a.members[:-1], a.cum_count), _group(a, a.members[-1:] + b.members, b.cum_count + 1)),
        r"groups up to it hold \d+",
    ),
}


def sorted_slice(parts, size, combos) -> tuple:
    """A slice of ``combos`` that claims ``size``, its rank sets sorted on their walked keys as _sorted_keys sorts."""
    walked = _walked(parts)
    combos = tuple(sorted(combos, key=lambda c: tuple(part.total(c) for part in walked)))
    return size, tuple(tuple(part.total(c) for c in combos) for part in walked), combos


class TestRangeExactChecks:
    @pytest.fixture(scope="class")
    def table(self):
        return table_slices(CascadeStatistic.parse("wilcoxon,vdw"), 8, 8, 50)

    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    def test_each_check_rejects_its_corruption(self, table, corruption):
        parts, grouped = table
        total = math.comb(16, 8)
        carry, slice_, found = next(
            t for t in grouped[len(grouped) // 2 :] if any(g.size > 1 for g in t[2][:-1])
        )
        assert _verify_range_exact(parts, slice_, found, carry, total) == carry + slice_[0]
        corrupt, message = CORRUPTIONS[corruption]
        i = next(i for i, g in enumerate(found[:-1]) if g.size > 1)
        corrupted = found[:i] + corrupt(found[i], found[i + 1]) + found[i + 2 :]
        with pytest.raises(TheoremCheckError, match=message):
            _verify_range_exact(parts, slice_, corrupted, carry, total)

    def test_slice_size_check_rejects_a_moved_assignment(self, table):
        # An assignment moved from its rank-sum slice to the next keeps the total, and each slice groups and recounts
        # consistently: only the Gaussian binomial coefficient of the slice it left rejects it.
        parts, grouped = table
        total = math.comb(16, 8)
        i = len(grouped) // 2
        (carry, (size, _, combos), _), (_, (size_next, _, combos_next), _) = grouped[i : i + 2]
        short = sorted_slice(parts, size, combos[1:])
        long = sorted_slice(parts, size_next, combos_next + combos[:1])
        ctx = CompareContext()
        found, found_next = _grouped(parts, short, carry, ctx), _grouped(parts, long, carry + size - 1, ctx)
        message = rf"a slice holds {size - 1} assignments, not its Gaussian binomial coefficient {size}$"
        with pytest.raises(TheoremCheckError, match=message):
            _verify_range_exact(parts, short, found, carry, total)
        # Held to their own lengths, both slices pass every other check, and together they hold the same total.
        after = _verify_range_exact(parts, (size - 1,) + short[1:], found, carry, total)
        end = _verify_range_exact(parts, (size_next + 1,) + long[1:], found_next, after, total)
        assert end == carry + size + size_next

    def test_final_carry_rejects_a_lost_slice(self, monkeypatch):
        # Every slice passes its own checks when the last one goes missing; only the carry against C(N, m) rejects it.
        sorted_keys = ranktests._sorted_keys
        monkeypatch.setattr(ranktests, "_sorted_keys", lambda *args: list(sorted_keys(*args))[:-1])
        with pytest.raises(TheoremCheckError, match=r"^the slices hold 3431 assignments, not C\(14,7\) = 3432$"):
            attainable_set(7, 7, WF)


# ---------------------------------------------------------------------------
# Wilcoxon-first exact p-values against full enumeration


def full_enumeration_pvalue(s: TwoSample, cascade, precision) -> tuple:
    """(p-value, imprecise ties) by visiting every rank subset, the loop exact_perm_pvalue ran for every cascade."""
    steps = _steps(_key_parts(cascade, s.pool, precision), x_ranks(s))
    ctx, count = CompareContext(), 0
    for combo in itertools.combinations(range(1, s.pool + 1), s.m):
        for key_total, lo, hi, want in steps:
            total = key_total(combo)
            if total < lo:
                count += 1
                break
            if total > hi:
                break
            if total != want:
                ctx.flag_imprecise()
        else:
            count += 1
    return F(count, math.comb(s.pool, s.m)), ctx.imprecise_ties


def rank_sum_slices(m: int, pool: int) -> dict:
    """Rank sum -> the m-subsets of 1..pool with that sum, in the order of itertools.combinations."""
    slices = {}
    for combo in itertools.combinations(range(1, pool + 1), m):
        slices.setdefault(sum(combo), []).append(combo)
    return slices


WILCOXON_FIRST = tuple(c for c in RANK_CASCADES if c.components[0] is Component.WILCOXON)


class TestRankSumSlices:
    @pytest.mark.parametrize("pool", range(1, 13))
    def test_counts_below_are_brute_force_counts(self, pool):
        # Every rank sum from below the least to above the greatest, either group the smaller.
        for m in range(1, pool + 1):
            sums = sorted(map(sum, itertools.combinations(range(1, pool + 1), m)))
            for w in range(sums[0] - 1, sums[-1] + 3):
                assert _rank_sum_below(m, pool, w) == bisect.bisect_left(sums, w)
            assert _rank_sum_below(m, pool, sums[-1] + 1) == math.comb(pool, m)

    @pytest.mark.parametrize("pool", range(2, 13))
    def test_slice_is_combinations_filtered_on_the_sum(self, pool):
        # The smaller group of a sample, the only one exact_perm_pvalue slices: m - 2 levels of recursion.
        for m in range(1, pool // 2 + 1):
            for w, combos in rank_sum_slices(m, pool).items():
                assert list(_rank_sum_slice(m, pool, w)) == combos

    @pytest.mark.parametrize("cascade", WILCOXON_FIRST, ids=CascadeStatistic.label)
    def test_pvalue_equals_full_enumeration(self, cascade):
        # Every observed set up to pool 9, where fyt and vdw sums tie
        # imprecisely at precision 4, and for the unbalanced 1-2 x 10-13
        # shapes and their mirrors, where the larger x group is counted from
        # the y group's slice; otherwise the first and last subset of the two
        # least, the two central and the two greatest rank sums.
        unbalanced = [(k, n) for k in (1, 2) for n in range(10, 14)]
        shapes = [(m, n) for m in range(1, 8) for n in range(1, 8)] + unbalanced + [(n, k) for k, n in unbalanced]
        for m, n in shapes:
            slices = rank_sum_slices(m, m + n)
            sums = sorted(slices)
            centre = len(sums) // 2
            observed_sets = [c for w in sums for c in slices[w]] if m + n <= 9 or min(m, n) <= 2 else {
                c for w in {*sums[:2], *sums[max(0, centre - 1) : centre + 1], *sums[-2:]}
                for c in (slices[w][0], slices[w][-1])
            }
            for observed in observed_sets:
                s = TwoSample(observed, tuple(r for r in range(1, m + n + 1) if r not in observed))
                for precision in (4, 50):
                    ctx = CompareContext()
                    got = exact_perm_pvalue(s, cascade, precision, ctx=ctx)
                    assert (got, ctx.imprecise_ties) == full_enumeration_pvalue(s, cascade, precision)

    @pytest.mark.parametrize("m,n", [(1, 1999), (1999, 1), (2, 298), (298, 2)])
    def test_small_group_against_a_large_pool(self, m, n):
        # The counts and the slice go through the smaller group, whichever it is.
        pool, k = m + n, min(m, n)
        for start in (1, pool // 3, pool - k + 1):
            small = tuple(range(start, start + k))
            rest = tuple(r for r in range(1, pool + 1) if r not in small)
            s = TwoSample(small, rest) if m == k else TwoSample(rest, small)
            w = sum(small)
            want = [c for c in itertools.combinations(range(1, pool + 1), k) if sum(c) == w]
            assert list(_rank_sum_slice(k, pool, w)) == want
            for cascade in (W, CascadeStatistic.parse("wilcoxon,laplace")):
                ctx = CompareContext()
                got = exact_perm_pvalue(s, cascade, 4, ctx=ctx)
                assert (got, ctx.imprecise_ties) == full_enumeration_pvalue(s, cascade, 4)

    def test_size_cap_still_counts_every_assignment(self):
        s = sample([1, 2, 3], [4, 5, 6])
        for cascade in WILCOXON_FIRST[:2]:
            with pytest.raises(SizeLimitError):
                exact_perm_pvalue(s, cascade, max_enum=math.comb(6, 3) - 1)
            assert exact_perm_pvalue(s, cascade, max_enum=math.comb(6, 3)) == F(1, 20)


class TestTieGroupValues:
    def test_built_only_when_read(self, monkeypatch):
        built = []

        def spy(parts, ranks):
            built.append(ranks)
            return _value(parts, ranks)

        monkeypatch.setattr(ranktests, "_value", spy)
        att = attainable_set(8, 8, CascadeStatistic.parse("wilcoxon,vdw"), 50)
        assert built == []
        group = att.groups[len(att.groups) // 2]
        value = group.value
        assert built == [group.members[0]]
        assert group.value is value and len(built) == 1

    @pytest.mark.parametrize(
        "m,n,cascade,precision", [(4, 4, "wilcoxon,fyt", 8), (5, 4, "laplace", 4), (4, 5, "fyt,wilcoxon,vdw", 50)]
    )
    def test_value_is_that_of_the_first_member(self, m, n, cascade, precision):
        cascade = CascadeStatistic.parse(cascade)
        parts = _key_parts(cascade, m + n, precision)
        for g in attainable_set(m, n, cascade, precision).groups:
            assert format_ord(g.value) == format_ord(_value(parts, g.members[0]))


# ---------------------------------------------------------------------------
# Monte Carlo counts against brute force on Decimal values

T_CASCADES = tuple(
    CascadeStatistic(c + (Component.STUDENT_T,)) for k in (0, 1, 2) for c in itertools.permutations(RANK_SCHEMES, k)
)


def mc_reference(s: TwoSample, cascade, draws, seed, precision):
    """(count, imprecise ties) of draws whose cascade value compares not GT with the observed one.

    Rank components are exact Decimal sums compared by threshold_compare with
    those of the exact observed ranks; t is compared in floats, against the
    observed t at 50 digits, where the rank components tie.
    """
    ranked = cascade.rank_components
    observed = decimal_value(ranking_oracle(s), CascadeStatistic(ranked), s.pool, precision) if ranked else None
    observed_t = float(student_t(s, 50).value)
    rng = random.Random(seed)
    ctx, count = CompareContext(), 0
    for _ in range(draws):
        draw = [rng.gauss(0.0, 1.0) for _ in range(s.pool)]
        xs, ys = draw[: s.m], draw[s.m :]
        order = Ordering.EQ
        if ranked:
            ranks = sorted(sorted(draw).index(v) + 1 for v in xs)
            order = threshold_compare(decimal_value(ranks, CascadeStatistic(ranked), s.pool, precision), observed, ctx)
        if order is Ordering.EQ:
            xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
            t = (xbar - ybar) / math.sqrt(sum((v - xbar) ** 2 for v in xs) + sum((v - ybar) ** 2 for v in ys))
            order = Ordering.GT if t > observed_t else Ordering.EQ
        count += order is not Ordering.GT
    return count, ctx.imprecise_ties


def check_mc(s, cascade, draws, seed, precision) -> int:
    ctx = CompareContext()
    got = mc_gaussian_pvalue(s, cascade, draws, seed, precision, ctx)
    assert (got.count, ctx.imprecise_ties) == mc_reference(s, cascade, draws, seed, precision)
    return got.count


class TestMonteCarloKernel:
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_every_cascade_at_four_by_four(self, precision):
        # Ranks 1,3,6,7 of 8: laplace sums ln(2/9) - ln(4/9) here, equal in exact arithmetic to ln(4/9) - ln(8/9).
        s = sample([1, 3, 6, 7], [2, 4, 5, 8])
        for cascade in T_CASCADES:
            check_mc(s, cascade, 300, 97, precision)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(T_CASCADES),
        st.integers(1, 4),
        st.integers(1, 4),
        st.sampled_from(PRECISIONS),
        st.integers(0, 10**6),
        st.data(),
    )
    def test_counts_match_brute_force(self, cascade, m, n, precision, seed, data):
        assume(m + n >= 3)
        values = data.draw(st.permutations(range(1, m + n + 1)))
        check_mc(sample(values[:m], values[m:]), cascade, 300, seed, precision)

    def test_laplace_log_identity_ties(self):
        # Float sums would order these exact laplace ties by rounding noise (and count 194).
        s = sample([1, 3, 6, 7], [2, 4, 5, 8])
        ctx = CompareContext()
        got = mc_gaussian_pvalue(s, CascadeStatistic.parse("laplace,t"), 600, seed=662, ctx=ctx)
        assert (got.count, ctx.imprecise_ties) == (208, 18)

    def test_above_the_property_range(self):
        # Pool 17 is odd, so Box-Muller pairs split across draws, and 1001 draws is odd too.
        values = random.Random(17).sample(range(1, 1000), 17)
        check_mc(sample(values[:9], values[9:]), CascadeStatistic.parse("wilcoxon,fyt,t"), 1001, 4, 20)

    @pytest.mark.parametrize("seed", [0, 1, 2**40])
    def test_draw_stream_is_gauss(self, seed):
        rng = random.Random(seed)
        want = [rng.gauss(0.0, 1.0).hex() for _ in range(10001)]
        assert [v.hex() for v in itertools.islice(_normals(seed), 10001)] == want

    @pytest.mark.parametrize(
        "m, n, seed, draws, count, estimate",
        [
            (2, 2, 0, 500, 172, "0x1.604189374bc6ap-2"),
            (3, 4, 7, 1000, 490, "0x1.f5c28f5c28f5cp-2"),
            (6, 6, 1000, 2000, 1904, "0x1.e76c8b4395810p-1"),
            (5, 9, 2**40, 1001, 738, "0x1.797a806234aefp-1"),
            (9, 8, 4, 777, 233, "0x1.33117647d3311p-2"),
        ],
    )
    def test_t_only_unchanged_without_ranks(self, m, n, seed, draws, count, estimate):
        # Recorded when every draw was still ranked: a t-only cascade skips the ranking, not a draw.
        values = random.Random(seed + m * n).sample(range(1, 1000), m + n)
        got = mc_gaussian_pvalue(sample(values[:m], values[m:]), CascadeStatistic.parse("t"), draws, seed)
        assert (got.count, got.estimate.hex()) == (count, estimate)

    def test_observed_ranks_from_exact_data(self):
        # 1 + 10**-20 and 1 are one float: ranked in floats, W would read 4 (and the estimate 1275/4000).
        s = TwoSample((1 + F(1, 10**20), F(3)), (F(1), F(4)))
        cascade = CascadeStatistic.parse("wilcoxon,t")
        assert observed_cascade_value(s, cascade).components[0] == Rank(5)
        got = mc_gaussian_pvalue(s, cascade, 4000, seed=1)
        # P[W < 5] = 2/6 and P[W <= 5] = 4/6 bracket P[(W, t) <= observed].
        assert F(1, 3) < F(got.count, got.draws) <= F(2, 3)
        assert got.count == check_mc(s, cascade, 4000, 1, 50)


FYT_FIXTURE = {
    (e["pool"], e["precision"]): e["scores"]
    for e in json.loads((Path(__file__).parent / "data" / "fyt_scores.json").read_text())
}


class TestFytFixture:
    """FYT vectors equal, digit for digit, those of the per-rank quadrature (tests/data/make_fyt_scores.py)."""

    @pytest.mark.parametrize("pool,precision", sorted(FYT_FIXTURE))
    def test_bit_identical(self, pool, precision):
        assert [str(d) for d in scheme_scores(Component.FYT, pool, precision)] == FYT_FIXTURE[pool, precision]

    @pytest.mark.parametrize("precision", [4, 8, 20, 50, 100])
    @pytest.mark.parametrize("pool", [2, 3, 4, 5])
    def test_closed_forms(self, pool, precision):
        # mu_ij = E of the i-th smallest of j iid standard normals, for the
        # upper half of pools 2-5 (Bose & Gupta 1959; Godwin 1949).
        with mpmath.workdps(precision + 40):
            root_pi = mpmath.sqrt(mpmath.pi)
            mu44 = 6 * mpmath.atan(mpmath.sqrt(2)) / root_pi ** 3
            mu55 = 5 / (4 * root_pi) * (1 + 6 / mpmath.pi * mpmath.asin(mpmath.mpf(1) / 3))
            upper = {
                2: [1 / root_pi],
                3: [3 / (2 * root_pi)],
                4: [mu44, 6 / root_pi - 3 * mu44],
                5: [mu55, 5 * mu44 - 4 * mu55],
            }[pool]
            lower = [mp_decimal(-mu, precision) for mu in upper]
        want = lower + [Decimal(0)] * (pool % 2) + [d.copy_negate() for d in reversed(lower)]
        assert [str(d) for d in scheme_scores(Component.FYT, pool, precision)] == [str(d) for d in want]

    def test_node_memo_local_to_one_build(self):
        # Nodes such as z = 1 recur at every precision; nodes or factors kept
        # across builds must be those of the build's working precision.
        # The uncached builds leave the process-wide score cache as it is.
        for precision in (8, 50, 8):
            got = scheme_scores.__wrapped__(Component.FYT, 6, precision)
            assert [str(d) for d in got] == FYT_FIXTURE[6, precision]

    @pytest.mark.parametrize(
        "pool,precision,first,want",
        [
            # Reference: the integrand over both half-lines, split at
            # -8, -7.5, ..., 8, maxdegree 10, precision + 30 digits. The
            # per-rank quadrature stopped on an absolute error estimate and
            # needed 30 guard digits for these ranks: with 15, its estimate
            # first exceeded 10^-(precision+3) of the value at rank 19 of pool
            # 80 and rank 14 of pool 100, and the pinned ranks printed wrong
            # digits. The level loop stops on relative estimates and reaches
            # them on its first rung.
            (80, 12, 33, ["-0.236548212693", "-0.204528830695", "-0.172718162350", "-0.141081637303",
                          "-0.109585948608", "-0.0781987924943", "-0.0468886270168", "-0.0156244447607"]),
            (100, 20, 48, ["-0.062570561353685321792", "-0.037526639852607337510",
                           "-0.012506267234992093711"]),
        ],
    )
    def test_large_pools_take_more_guard_digits(self, pool, precision, first, want):
        got = scheme_scores(Component.FYT, pool, precision)
        assert [str(d) for d in got[first - 1 : pool // 2]] == want

    @pytest.mark.parametrize(
        "pool,precision,first,last",
        [
            # Recorded from the per-rank quadrature, which reached these
            # digits only on its third (pool 120) and fourth (pool 200) rung.
            (120, 12, ["-2.57208514101", "-2.22037607267", "-2.02384659900"],
             ["-0.0521508065456", "-0.0312813970782", "-0.0104256192696"]),
            (200, 10, ["-2.746042447", "-2.413654842", "-2.229995102"],
             ["-0.03130415767", "-0.01878053002", "-0.006259849349"]),
        ],
    )
    def test_large_pools_finish_on_the_first_rung(self, monkeypatch, pool, precision, first, last):
        rungs = spy_rungs(monkeypatch)
        got = [str(d) for d in scheme_scores.__wrapped__(Component.FYT, pool, precision)]
        assert rungs == [(precision + 15, True)]
        assert got[:3] == first
        assert got[pool // 2 - 3 : pool // 2] == last

    def test_straddled_rounding_moves_to_the_next_rung(self, monkeypatch):
        rungs = spy_rungs(monkeypatch)
        monkeypatch.setattr(ranktests, "_estimated_error", straddling_rank_5_of_14({22}))
        got = scheme_scores.__wrapped__(Component.FYT, 14, 7)
        assert rungs == [(22, False), (37, True)]
        assert str(got[4]) == "-0.4555660"

    def test_straddled_rounding_fails_after_the_last_rung(self, monkeypatch):
        rungs = spy_rungs(monkeypatch)
        monkeypatch.setattr(ranktests, "_estimated_error", straddling_rank_5_of_14({22, 37, 67, 127}))
        with pytest.raises(TheoremCheckError, match="fyt quadrature at pool=14 did not reach 7 digits"):
            scheme_scores.__wrapped__(Component.FYT, 14, 7)
        assert rungs == [(22, False), (37, False), (67, False), (127, False)]

    @pytest.mark.parametrize("pool,precision", [(13, 7), (13, 33), (31, 7), (40, 33)])
    def test_matches_per_rank_quadrature(self, pool, precision):
        # An independent reference: one mpmath.quad per rank over both
        # half-lines, the binomial coefficient inside the integrand, at
        # precision + 30 digits.
        with mpmath.workdps(precision + 30):
            want, factors = [], {}
            for i in range(1, pool // 2 + 1):
                c = pool * math.comb(pool - 1, i - 1)

                def integrand(z):
                    if z not in factors:
                        factors[z] = (z * mpmath.npdf(z), mpmath.ncdf(z), mpmath.ncdf(-z))
                    w, below, above = factors[z]
                    return c * w * below ** (i - 1) * above ** (pool - i)

                value = mpmath.quad(integrand, [-mpmath.inf, 0, mpmath.inf])
                want.append(str(mp_decimal(value, precision)))
        assert [str(d) for d in scheme_scores(Component.FYT, pool, precision)[: pool // 2]] == want


QUANTILE_FIXTURE = {}
for e in json.loads((Path(__file__).parent / "data" / "quantile_scores.json").read_text()):
    QUANTILE_FIXTURE.setdefault((e["scheme"], e["precision"]), []).append((e["pool"], e["lower"]))


class TestQuantileFixture:
    """vdw and laplace vectors equal, digit for digit, those of the mpmath quantiles (tests/data/make_quantile_scores.py)."""

    @pytest.mark.parametrize("scheme,precision", sorted(QUANTILE_FIXTURE))
    def test_bit_identical(self, scheme, precision):
        for pool, lower in QUANTILE_FIXTURE[scheme, precision]:
            want = lower + ["0"] * (pool % 2) + [d[1:] for d in reversed(lower)]
            assert [str(d) for d in scheme_scores.__wrapped__(Component(scheme), pool, precision)] == want, pool


def mp_quantiles(scheme: Component, pool: int, precision: int) -> list:
    # The lower half by mpmath at precision + 40 digits: sqrt(2) erfinv(2p - 1) or ln(2p), p = i/(pool + 1).
    with mpmath.workdps(precision + 40):
        ps = [mpmath.mpf(i) / (pool + 1) for i in range(1, pool // 2 + 1)]
        xs = [mpmath.sqrt(2) * mpmath.erfinv(2 * p - 1) if scheme is Component.VDW else mpmath.log(2 * p) for p in ps]
        return [str(mp_decimal(x, precision)) for x in xs]


def mp_student_t(s: TwoSample, precision: int) -> Decimal:
    # t from its exact square and sign, its root taken by mpmath at precision + 40 digits.
    xbar, ybar = sum(s.xs) / s.m, sum(s.ys) / s.n
    t2 = (xbar - ybar) ** 2 / (sum((v - xbar) ** 2 for v in s.xs) + sum((v - ybar) ** 2 for v in s.ys))
    with mpmath.workdps(precision + 40):
        root = mpmath.sqrt(mpmath.mpf(t2.numerator) / t2.denominator)
        return mp_decimal(root if xbar > ybar else -root, precision)


class TestAgainstMpmath:
    """The decimal score and t code against mpmath at 40 more digits than the precision."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([Component.VDW, Component.LAPLACE]), st.integers(2, 200), st.integers(4, 100))
    @example(Component.VDW, 200, 100)
    @example(Component.LAPLACE, 200, 100)
    def test_quantile_vectors(self, scheme, pool, precision):
        got = [str(d) for d in scheme_scores.__wrapped__(scheme, pool, precision)[: pool // 2]]
        assert got == mp_quantiles(scheme, pool, precision)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 9).flatmap(lambda m: st.tuples(st.just(m), st.integers(max(1, 3 - m), 9))).flatmap(
            lambda mn: st.tuples(
                st.just(mn[0]),
                st.lists(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
                         min_size=sum(mn), max_size=sum(mn), unique=True),
            )
        ),
        st.integers(4, 100),
    )
    # t = -1234.5 exactly: half way between -1234 and -1235 at 4 digits, and a float, so mpmath holds it exactly.
    @example((2, [F(0), F(1), F(2469, 2), F(2471, 2)]), 4)
    def test_student_t(self, sample_data, precision):
        m, values = sample_data
        s = TwoSample(tuple(values[:m]), tuple(values[m:]))
        assume(sum(s.xs) / s.m != sum(s.ys) / s.n)
        got = student_t(s, precision).value
        assert str(got) == str(mp_student_t(s, precision))

    def test_student_t_half_way_rounds_away_from_zero(self):
        # t = -0.12345 and -1234.5 exactly; at 4 digits each rounds half away from zero.
        assert str(student_t(sample([0, 1], [F("0.12345"), F("1.12345")]), 4).value) == "-0.1235"
        assert str(student_t(sample([0, 1], [F("1234.5"), F("1235.5")]), 4).value) == "-1235"
        assert str(student_t(sample([F("0.12345"), F("1.12345")], [0, 1]), 4).value) == "0.1235"


def order_statistic_residuals(big: tuple, small: tuple, precision: int) -> list:
    # (residual, bound) of (n-i) E X(i:n) + i E X(i+1:n) = n E X(i:n-1), i = 1..n-1, on the rounded vectors of
    # pools n and n - 1; the bound is their half ulps times the coefficients.
    n = len(big)

    def half_ulp(d):
        return F(1, 2) * F(10) ** (d.adjusted() + 1 - precision)

    return [
        ((n - i) * F(big[i - 1]) + i * F(big[i]) - n * F(small[i - 1]),
         (n - i) * half_ulp(big[i - 1]) + i * half_ulp(big[i]) + n * half_ulp(small[i - 1]))
        for i in range(1, n)
    ]


class TestOrderStatisticIdentity:
    """(n-i) E X(i:n) + i E X(i+1:n) = n E X(i:n-1) for every distribution (David & Nagaraja 2003, 3.4)."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 60), st.integers(4, 50))
    @example(60, 50)
    @example(3, 4)
    def test_fyt_vectors_within_their_rounding(self, pool, precision):
        big, small = (scheme_scores(Component.FYT, n, precision) for n in (pool, pool - 1))
        for residual, bound in order_statistic_residuals(big, small, precision):
            assert abs(residual) <= bound

    def test_catches_a_score_moved_by_a_few_ulps(self):
        # Rank 3 of pool 12 moved by 5 ulps at precision 8, with its mirror (rank 10), breaks the identity where a
        # moved rank carries the coefficient 9: rank 3 as n - i at i = 3, rank 10 as i at i = 9.
        big = list(scheme_scores(Component.FYT, 12, 8))
        big[2] += 5 * Decimal(1).scaleb(big[2].adjusted() - 7)
        big[9] = big[2].copy_negate()
        residuals = order_statistic_residuals(big, scheme_scores(Component.FYT, 11, 8), 8)
        assert [i for i, (residual, bound) in enumerate(residuals, 1) if abs(residual) > bound] == [3, 9]


def spy_rungs(monkeypatch) -> list:
    # (working digits, converged) of every guard rung an FYT build tries.
    rungs = []
    build = ranktests._folded_order_stats

    def spy(pool, precision):
        values = build(pool, precision)
        rungs.append((decimal.getcontext().prec, values is not None))
        return values

    monkeypatch.setattr(ranktests, "_folded_order_stats", spy)
    return rungs


def straddling_rank_5_of_14(working_digits):
    # Rank 5 of pool 14 is -0.455566049982..., 1.8e-11 from the rounding
    # boundary -0.45556605 at 7 digits. At the given working digits, the
    # error estimate is raised to 0.9 * 10^-10 of the value: that passes the
    # relative stop at precision 7, 10^-(7+3), but straddles the boundary.
    estimate = ranktests._estimated_error

    def estimated_error(level, bits):
        error = estimate(level, bits)
        if decimal.getcontext().prec in working_digits:
            error = max(error, abs(level[-1]) * Decimal("0.9e-10"))
        return error

    return estimated_error


def undecided_at(monkeypatch, working_digits) -> list:
    # Makes every quantile rounding at the given working digits undecided; returns the working digits of each rounding.
    digits, rounded, cell = [], ranktests._rounded, ranktests._cell

    def laplace_rounded(x, error, precision):
        digits.append(decimal.getcontext().prec)
        return None if digits[-1] in working_digits else rounded(x, error, precision)

    def vdw_cell(d, precision):
        # A cell shrunk to the point |d| brackets nothing.
        digits.append(decimal.getcontext().prec)
        return (d.copy_abs(),) * 2 if digits[-1] in working_digits else cell(d, precision)

    monkeypatch.setattr(ranktests, "_rounded", laplace_rounded)
    monkeypatch.setattr(ranktests, "_cell", vdw_cell)
    return digits
