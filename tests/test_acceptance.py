"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the exact discrepancy reports for the published reference table.
"""

import itertools
import math
import re
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from ordstat import (
    CascadeStatistic,
    Component,
    Validity,
    attainable_set,
    build_randomized,
    check_idempotence,
    classify_pfunction,
    exactness_cdf,
    exactness_sweep,
    induce_phat,
    lex_equivalence_check,
    midp_validity_check,
    scale_pfunction,
)
from ordstat.cli import _tie_group, main
from ordstat.ranktests import compare_with_reference, reference_for

DATA = Path(__file__).parent / "data"
F = Fraction

W = CascadeStatistic.parse("wilcoxon")
WF = CascadeStatistic.parse("wilcoxon,fyt")
WFV = CascadeStatistic.parse("wilcoxon,fyt,vdw")
WFL = CascadeStatistic.parse("wilcoxon,fyt,laplace")

WILCOXON_66_PREFIX = [F(k, 924) for k in (1, 2, 4, 7, 12, 19, 30, 43, 61)]
REFERENCE_FYT_ADDED = [F(k, 924) for k in
                       (5, 8, 10, 14, 15, 17, 21, 22, 24, 26, 28, 32, 34, 35, 37, 39, 40, 42, 48, 49)]
# Exact enumeration of the (wilcoxon, fyt) cascade: within (0, 49/924] the
# added values are pinned below. The published reference disagrees at five
# entries (35, 40, 42, 48, 49 claimed; 36, 41, 44 exact); the mirror-pair
# tie structure behind the exact set is re-derived here by an independent
# raw-quadrature oracle and reported, not hidden.
EXACT_FYT_ADDED = [F(k, 924) for k in
                   (5, 8, 10, 14, 15, 17, 21, 22, 24, 26, 28, 32, 34, 36, 37, 39, 41, 44)]


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] C{num} FAIL: {description}")
        raise
    print(f"[acceptance] C{num} PASS: {description}")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    print(captured.err, end="")
    return code, captured.out


def parse_report(text: str) -> dict:
    return {k: v for k, _, v in (line.partition(": ") for line in text.splitlines())}


def brute_force_range_exact(att) -> None:
    """Independent recount of P[p <= eps] at every attained eps."""
    pvalues = []
    for g in att.groups:
        pvalues.extend([F(g.cum_count, att.total)] * g.size)
    assert len(pvalues) == att.total
    for eps in att.values:
        assert F(sum(1 for p in pvalues if p <= eps), att.total) == eps


def test_criterion_1_wilcoxon_attainable_set(capsys):
    with criterion(1, "wilcoxon attainable set at m=n=6: nine smallest values exact"):
        code, out = run_cli(capsys, "table", "6", "6", "wilcoxon")
        assert code == 0
        values = [F(v) for v in parse_report(out)["values"].split()]
        assert values[:9] == WILCOXON_66_PREFIX  # rational equality, zero tolerance
        att = attainable_set(6, 6, W)
        assert list(att.values)[:9] == WILCOXON_66_PREFIX


def _raw_quadrature_added_oracle() -> set:
    """Recompute the (wilcoxon, fyt) added set from scratch.

    Independent of the production path: raw expected-normal-order-statistic
    quadrature for every rank (no mirrored construction), mpf sums, and
    tolerance grouping at 1e-40 (mirror-forced ties agree to ~1e-58 at this
    working precision, distinct tie classes differ by more than 1e-4).
    """
    with mpmath.workdps(60):
        scores = []
        for i in range(1, 13):
            coeff = mpmath.mpf(12) * math.comb(11, i - 1)
            f = lambda z, i=i: z * mpmath.npdf(z) * mpmath.ncdf(z) ** (i - 1) * mpmath.ncdf(-z) ** (12 - i)
            scores.append(coeff * mpmath.quad(f, [-mpmath.inf, 0, mpmath.inf]))
        entries = sorted(
            (sum(combo), mpmath.fsum(scores[r - 1] for r in combo))
            for combo in itertools.combinations(range(1, 13), 6)
        )
        tol = mpmath.mpf(10) ** -40
        cums, count = set(), 0
        for i, (rsum, fsum) in enumerate(entries):
            count += 1
            is_boundary = i + 1 == len(entries) or entries[i + 1][0] != rsum or (
                entries[i + 1][1] - fsum > tol
            )
            if is_boundary:
                cums.add(F(count, 924))
        wilcoxon_cums = set()
        c = 0
        for rsum, group in itertools.groupby(sorted(sum(x) for x in itertools.combinations(range(1, 13), 6))):
            c += len(list(group))
            wilcoxon_cums.add(F(c, 924))
        return {v for v in cums - wilcoxon_cums if v <= F(49, 924)}


def test_criterion_2_fyt_refinement(capsys):
    with criterion(2, "fyt refinement at m=n=6: superset + range-exact + reference report"):
        att_w = attainable_set(6, 6, W)
        att_wf = attainable_set(6, 6, WF)
        # (a) strict superset, exact
        assert set(att_w.values) < set(att_wf.values)
        # (b) internal range-exactness holds exactly at every returned value
        brute_force_range_exact(att_wf)
        assert not att_wf.imprecise
        # exact added set, cross-checked by the independent raw oracle
        added = sorted(v for v in set(att_wf.values) - set(att_w.values) if v <= F(49, 924))
        assert added == EXACT_FYT_ADDED
        assert _raw_quadrature_added_oracle() == set(EXACT_FYT_ADDED)
        # (c) mismatches against the published list are reported with the
        # competing exact score sums at >= 50 significant digits
        mismatches = compare_with_reference(att_wf, reference_for(6, 6, WF))
        disputed = {m.value for m in mismatches}
        assert disputed == set(EXACT_FYT_ADDED).symmetric_difference(REFERENCE_FYT_ADDED)
        code, out = run_cli(capsys, "table", "6", "6", "wilcoxon,fyt")
        assert code == 0
        report = parse_report(out)
        assert report["reference.matches"] == "false"
        assert int(report["reference.mismatch-count"]) == len(mismatches)
        digit_re = re.compile(r"-?\d\.(\d+)E[+-]\d+~p\d+")
        for i in range(1, len(mismatches) + 1):
            assert f"reference.mismatch.{i}" in report
            group_lines = [v for k, v in report.items()
                           if k.startswith(f"reference.mismatch.{i}.group.")]
            assert group_lines
            for line in group_lines:
                digits = [1 + len(m) for m in digit_re.findall(line)]
                assert digits and max(digits) >= 50
        for key, value in report.items():
            if key.startswith("reference.mismatch."):
                print(f"  {key}: {value}")


def test_criterion_3_vdw_marginal_refinement(capsys):
    with criterion(3, "vdw refinement at m=n=6 within [0, 49/924] (precision escape hatch)"):
        att_wf = attainable_set(6, 6, WF)
        att_wfv = attainable_set(6, 6, WFV)
        window = F(49, 924)
        added = sorted(v for v in set(att_wfv.values) - set(att_wf.values) if v <= window)
        if added == [F(41, 924)]:
            print("  vdw adds 41/924 as the reference states")
            return
        # Escape hatch: the exact enumeration disagrees with the reference.
        # vdw scores share the fyt scores' antisymmetry, so every tie the
        # fyt component left (mirror-pair rank swaps) stays exactly tied and
        # vdw adds nothing; 41/924 is attained at the fyt stage already.
        assert added == []
        assert att_wfv.values == att_wf.values
        assert F(41, 924) in set(att_wf.values)
        brute_force_range_exact(att_wfv)
        wf_mismatches = compare_with_reference(att_wf, reference_for(6, 6, WF))
        forty_one = [m for m in wf_mismatches if m.value == F(41, 924)]
        assert forty_one and forty_one[0].in_ours
        print("  vdw adds nothing: 41/924 already attained by wilcoxon,fyt; deciding groups:")
        for g in forty_one[0].groups:
            print("  " + _tie_group(g, att_wf.total))
        code, out = run_cli(capsys, "table", "6", "6", "wilcoxon,fyt,vdw")
        assert code == 0
        report = parse_report(out)
        assert report["reference.matches"] == "false"
        assert int(report["reference.mismatch-count"]) >= 1


def test_criterion_4_randomized_exactness(trial_corpus):
    with criterion(4, "exactness_cdf(eps) = eps on k/97 grid, exactness_sweep on [0, 1], 200 random trials"):
        grid = [F(k, 97) for k in range(98)]
        assert len(trial_corpus) == 200
        for trial, stat in trial_corpus:
            rpf = build_randomized(trial, stat)
            for eps in grid:
                assert exactness_cdf(rpf, trial, eps) == eps
            assert exactness_sweep(rpf, trial, grid) == (None, [])


def test_criterion_5_lex_equivalence(trial_corpus):
    with criterion(5, "lexicographic = closed form for 200 trials, grids N=1..16"):
        for trial, stat in trial_corpus:
            for n in range(1, 17):
                assert lex_equivalence_check(trial, stat, n)


def fraction_cdf(trial, pfunc, levels) -> list:
    """P[pfunc <= eps] at each eps of ascending ``levels``, summed in Fractions over the outcomes sorted by value."""
    ranked, cdf, cum, i = sorted((pfunc[label], prob) for label, prob in trial.outcomes), [], F(0), 0
    for eps in levels:
        while i < len(ranked) and ranked[i][0] <= eps:
            cum, i = cum + ranked[i][1], i + 1
        cdf.append(cum)
    return cdf


def test_criterion_6_idempotence_and_range_exactness(trial_corpus):
    with criterion(6, "idempotence, range-exactness, and validity on the k/1000 grid"):
        levels = [F(k, 1000) for k in range(1001)]
        for trial, stat in trial_corpus:
            assert check_idempotence(trial, induce_phat(trial, stat))
            phat = induce_phat(trial, stat)
            assert classify_pfunction(trial, phat).kind is Validity.RANGE_EXACT
            assert all(mass <= eps for mass, eps in zip(fraction_cdf(trial, phat, levels), levels))


def test_criterion_7_midp_invalidity_witness(capsys):
    with criterion(7, "mid-p on the singleton trial: NotPFunction with witness 1/2"):
        code, out = run_cli(capsys, "midp", "--trial", str(DATA / "singleton.json"))
        assert code == 0
        report = parse_report(out)
        assert report["classification"] == "not-p-function"
        assert report["witness"] == "1/2"
        assert report["witness-mass"] == "1"
        from ordstat import FiniteTrial, Rank, Statistic

        got = midp_validity_check(
            FiniteTrial((("a", F(1)),)), build_randomized(FiniteTrial((("a", F(1)),)), Statistic({"a": Rank(0)}))
        )
        assert got.kind is Validity.NOT_PFUNCTION
        assert (got.witness, got.witness_mass) == (F(1, 2), F(1))


def test_criterion_8_scaling(trial_corpus):
    with criterion(8, "scaled valid p-functions stay valid for c in {1, 3/2, 2, 10}"):
        factors = [F(1), F(3, 2), F(2), F(10)]
        for trial, stat in trial_corpus:
            phat = induce_phat(trial, stat)
            for c in factors:
                scaled = scale_pfunction(phat, c)
                assert classify_pfunction(trial, scaled).kind is not Validity.NOT_PFUNCTION


def test_criterion_9_demos(capsys):
    with criterion(9, "demo p-values: 1/2985984 and 1/2^82, exact"):
        code, out = run_cli(capsys, "demo", "bernoulli1735")
        assert code == 0
        assert parse_report(out)["pvalue"] == "1/2985984"
        code, out = run_cli(capsys, "demo", "arbuthnott1710")
        assert code == 0
        assert parse_report(out)["pvalue"] == f"1/{2**82}"


def test_criterion_10_full_tie_breaking(capsys):
    with criterion(10, "wilcoxon,fyt,laplace at m=n=6: uniformity or exact residual-tie report"):
        att = attainable_set(6, 6, WFL)
        if att.breaks_all_ties():
            assert list(att.values) == [F(k, 924) for k in range(1, 925)]
            assert all(g.size == 1 for g in att.groups)
            print("  cascade breaks every tie: uniform on {1/924, ..., 1}")
            return
        # Residual ties are unavoidable here: every available rank scheme is
        # antisymmetric around the mid-rank, so mirror-pair rank swaps give
        # exactly equal component sums for all of them at once. The report
        # identifies the surviving ties exactly; acceptance rests on
        # range-exactness at every attained value.
        ties = att.residual_ties
        assert ties
        assert sum(g.size for g in att.groups) == att.total
        assert all(g.size >= 2 for g in ties)
        brute_force_range_exact(att)
        # the laplace component must not change the fyt tie structure
        assert att.values == attainable_set(6, 6, WF).values
        code, out = run_cli(capsys, "table", "6", "6", "wilcoxon,fyt,laplace")
        assert code == 0
        report = parse_report(out)
        assert report["breaks-all-ties"] == "false"
        assert int(report["ties.residual-groups"]) == len(ties)
        for i in range(1, len(ties) + 1):
            assert f"tie.{i}" in report  # every surviving tie listed with members
        listed_members = sum(
            len(report[f"tie.{i}"].rpartition("members=")[2].split("|"))
            for i in range(1, len(ties) + 1)
        )
        assert listed_members == sum(g.size for g in ties)
        print(f"  residual ties: {len(ties)} groups covering {listed_members} of 924 assignments;"
              f" attainable values: {len(att.groups)}; range-exact at every attained value")
