"""Command line interface: deterministic key-value reports over the library.

Reports are line-oriented ``key: value`` documents (split each line on the
first ": "); ``--plain`` swaps the machine header for a one-line summary.
Exit codes: 0 success, 2 parse or validation error, 3 enumeration size cap,
4 failed theorem check (the latter always indicates an implementation bug).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .order import MIN_PRECISION, CompareContext, format_ord
from .trial import (
    TheoremCheckError,
    TrialError,
    Validity,
    check_idempotence,
    classify_pfunction,
    induce_phat,
    pvalue_kinds,
)
from .randomized import (
    build_randomized,
    draw_uniform_r,
    exactness_cdf,
    mid_pvalue,
    midp_validity_check,
    randomized_pvalue,
)
from .ranktests import (
    CascadeStatistic,
    RankTestError,
    SizeLimitError,
    DEFAULT_MAX_ENUM,
    attainable_set,
    compare_with_reference,
    describe_mismatch,
    exact_perm_pvalue,
    format_tie_group,
    mc_gaussian_pvalue,
    observed_cascade_value,
    reference_for,
)
from .files import TrialParseError, format_rational, load_trial, load_two_sample, parse_rational

EXACTNESS_GRID = 97
MAX_PRECISION = 100


def _default_precision() -> int:
    text = os.environ.get("ORDSTAT_PRECISION", "50")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"ORDSTAT_PRECISION must be an integer, got {text!r}") from None


@dataclass
class RunReport:
    """Deterministic report: byte-identical for identical inputs and seed."""

    command: str
    inputs_digest: str
    precision: int | None
    headline: str
    fields: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    theorem_failures: list = field(default_factory=list)

    def add(self, key: str, value) -> None:
        self.fields.append((key, str(value)))

    def warn(self, text: str) -> None:
        self.warnings.append(text)

    def render(self, plain: bool = False) -> str:
        lines = []
        if plain:
            lines.append(self.headline)
        else:
            lines.append("ordstat-report: 1")
            lines.append(f"command: {self.command}")
            lines.append(f"inputs-digest: {self.inputs_digest}")
            if self.precision is not None:
                lines.append(f"precision: {self.precision}")
        lines.extend(f"{key}: {value}" for key, value in self.fields)
        lines.append(f"warnings.count: {len(self.warnings)}")
        lines.extend(f"warning.{i}: {text}" for i, text in enumerate(self.warnings, start=1))
        return "\n".join(lines) + "\n"


def _digest_file(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _digest_params(*parts) -> str:
    payload = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def _flag_common(report: RunReport, trial) -> None:
    for label in trial.zero_probability_labels():
        report.warn(f"zero-probability outcome: {label}")


def cmd_induce(args) -> RunReport:
    trial, stat = load_trial(args.trial)
    phat = induce_phat(trial, stat)
    classification = classify_pfunction(trial, phat)
    idempotent = check_idempotence(trial, phat)
    kinds = pvalue_kinds(trial, phat)
    report = RunReport(
        command=args.command_echo,
        inputs_digest=_digest_file(args.trial),
        precision=args.precision,
        headline=f"induced p-values for {len(trial)} outcomes"
        f" ({classification.kind.value}, idempotent={str(idempotent).lower()})",
    )
    report.add("outcome-count", len(trial))
    for label in trial.labels:
        report.add(f"phat.{label}", format_rational(phat[label]))
    for label in trial.labels:
        report.add(f"pvalue-kind.{label}", kinds[label])
    report.add("classification", classification.kind.value)
    report.add("idempotent", str(idempotent).lower())
    _flag_common(report, trial)
    if classification.kind is not Validity.RANGE_EXACT:
        report.theorem_failures.append("induced p-function not range-exact")
    if not idempotent:
        report.theorem_failures.append("induced p-function not self-induced")
    return report


def cmd_randomize(args) -> RunReport:
    trial, stat = load_trial(args.trial)
    trial.prob(args.outcome)  # raises MissingOutcomeError for unknown labels
    rpf = build_randomized(trial, stat)
    if args.r is not None:
        r = parse_rational(args.r)
        r_source = "given"
    else:
        r = draw_uniform_r(args.seed)
        r_source = "seed"
    value = randomized_pvalue(rpf, args.outcome, r)
    report = RunReport(
        command=args.command_echo,
        inputs_digest=_digest_file(args.trial),
        precision=args.precision,
        headline=f"randomized p-value {format_rational(value)} for outcome {args.outcome}",
    )
    report.add("outcome", args.outcome)
    report.add("low", format_rational(rpf.low(args.outcome)))
    report.add("atom", format_rational(rpf.atom(args.outcome)))
    report.add("r", format_rational(r))
    report.add("r-source", r_source)
    if r_source == "seed":
        report.add("seed", args.seed)
    report.add("value", format_rational(value))
    if args.verify_exact:
        bad = [
            Fraction(k, EXACTNESS_GRID)
            for k in range(EXACTNESS_GRID + 1)
            if exactness_cdf(rpf, trial, Fraction(k, EXACTNESS_GRID)) != Fraction(k, EXACTNESS_GRID)
        ]
        report.add("verify-exact", "fail" if bad else "pass")
        if bad:
            report.theorem_failures.append(
                f"exactness failed at {len(bad)} grid levels, first {format_rational(bad[0])}"
            )
    _flag_common(report, trial)
    return report


def cmd_midp(args) -> RunReport:
    trial, stat = load_trial(args.trial)
    rpf = build_randomized(trial, stat)
    classification = midp_validity_check(trial, rpf)
    report = RunReport(
        command=args.command_echo,
        inputs_digest=_digest_file(args.trial),
        precision=args.precision,
        headline=f"mid-p-values for {len(trial)} outcomes ({classification.kind.value})",
    )
    report.add("outcome-count", len(trial))
    for label in trial.labels:
        report.add(f"midp.{label}", format_rational(mid_pvalue(rpf, label)))
    report.add("classification", classification.kind.value)
    if classification.witness is not None:
        report.add("witness", format_rational(classification.witness))
        report.add("witness-mass", format_rational(classification.witness_mass))
    _flag_common(report, trial)
    return report


def cmd_twosample(args) -> RunReport:
    sample = load_two_sample(args.data)
    cascade = CascadeStatistic.parse(args.cascade)
    report = RunReport(
        command=args.command_echo,
        inputs_digest=_digest_file(args.data),
        precision=args.precision,
        headline="",
    )
    report.add("m", sample.m)
    report.add("n", sample.n)
    report.add("cascade", cascade.label())
    report.add("mode", args.mode)
    ctx = CompareContext()
    if args.mode == "exact":
        pvalue = exact_perm_pvalue(sample, cascade, args.precision, args.max_enum, ctx)
        observed = observed_cascade_value(sample, cascade, args.precision)
        report.add("observed", format_ord(observed))
        report.add("enumerated", math.comb(sample.pool, sample.m))
        report.add("pvalue", format_rational(pvalue))
        report.headline = f"exact permutation p-value {format_rational(pvalue)}"
    else:
        if args.seed is None:
            raise RankTestError("Monte Carlo mode needs --seed for reproducibility")
        result = mc_gaussian_pvalue(sample, cascade, args.draws, args.seed, args.precision, ctx)
        observed = observed_cascade_value(sample, cascade, args.precision)
        report.add("observed", format_ord(observed))
        report.add("draws", result.draws)
        report.add("seed", result.seed)
        report.add("estimate", format_rational(Fraction(result.count, result.draws)))
        report.add("estimate-decimal", f"{result.estimate:.6f}")
        report.add("ci95", f"[{result.ci95[0]:.6f}, {result.ci95[1]:.6f}]")
        report.add("pvalue", format_rational(result.pvalue))
        report.headline = f"Monte Carlo p-value estimate {result.estimate:.6f}"
    if ctx.imprecise:
        report.warn(f"imprecise score ties: {ctx.imprecise_ties}")
    return report


def cmd_table(args) -> RunReport:
    cascade = CascadeStatistic.parse(args.cascade)
    att = attainable_set(args.m, args.n, cascade, args.precision, args.max_enum)
    report = RunReport(
        command=args.command_echo,
        inputs_digest=_digest_params("table", args.m, args.n, cascade.label(), args.precision),
        precision=args.precision,
        headline=f"{len(att.groups)} attainable p-values out of {att.total} assignments",
    )
    report.add("m", args.m)
    report.add("n", args.n)
    report.add("cascade", cascade.label())
    report.add("assignments", att.total)
    report.add("distinct-values", len(att.groups))
    report.add("range-exact", "true")  # attainable_set verifies or raises
    report.add("breaks-all-ties", str(att.breaks_all_ties()).lower())
    report.add("values", " ".join(format_rational(v) for v in att.values))
    ties = att.residual_ties
    report.add("ties.residual-groups", len(ties))
    for i, g in enumerate(ties, start=1):
        report.add(f"tie.{i}", format_tie_group(g, att.total))
    reference = reference_for(args.m, args.n, cascade)
    if reference is not None:
        mismatches = compare_with_reference(att, reference)
        report.add("reference.source", reference.source)
        report.add("reference.window", format_rational(reference.window_hi))
        report.add("reference.matches", str(not mismatches).lower())
        report.add("reference.mismatch-count", len(mismatches))
        for i, mm in enumerate(mismatches, start=1):
            verdict, *groups = describe_mismatch(mm, att.total)
            report.add(f"reference.mismatch.{i}", verdict)
            for j, group in enumerate(groups, start=1):
                report.add(f"reference.mismatch.{i}.group.{j}", group)
        if mismatches:
            report.warn(
                f"exact enumeration disagrees with {reference.source} at"
                f" {len(mismatches)} value(s); see reference.mismatch.*"
            )
    if att.imprecise:
        report.warn("imprecise score ties occurred during enumeration")
    return report


def cmd_demo(args) -> RunReport:
    if args.name == "bernoulli1735":
        theta = parse_rational(args.theta)
        if not 0 <= theta <= 90:
            raise ValueError(f"theta must be between 0 and 90 degrees, got {theta}")
        pvalue = (Fraction(theta, 90)) ** 6
        report = RunReport(
            command=args.command_echo,
            inputs_digest=_digest_params("demo", args.name, theta),
            precision=None,
            headline=f"max-of-6-uniforms p-value {format_rational(pvalue)}",
        )
        report.add("demo", args.name)
        report.add("theta-degrees", format_rational(theta))
        report.add("observations", 6)
        report.add("pvalue", format_rational(pvalue))
        return report
    pvalue = Fraction(1, 2**82)
    report = RunReport(
        command=args.command_echo,
        inputs_digest=_digest_params("demo", args.name),
        precision=None,
        headline=f"82 same-sign years under a fair coin: p-value {format_rational(pvalue)}",
    )
    report.add("demo", args.name)
    report.add("years", 82)
    report.add("pvalue", format_rational(pvalue))
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordstat",
        description="Exact p-functions over finite trials and lexicographic rank-test cascades.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--precision", type=int, default=_default_precision(),
                       help=f"significant decimal digits for scores, {MIN_PRECISION} to {MAX_PRECISION}"
                       " (default: ORDSTAT_PRECISION or 50)")
        p.add_argument("--plain", action="store_true", help="human summary instead of the key-value report")

    p = sub.add_parser("induce", help="induced p-values, classification, idempotence check")
    p.add_argument("--trial", required=True, help="trial document (JSON)")
    common(p)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("randomize", help="randomized p-value for one outcome")
    p.add_argument("--trial", required=True)
    p.add_argument("--outcome", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--r", help="tie-breaking number as a rational p/q in [0,1]")
    g.add_argument("--seed", type=int, help="derive r deterministically from this seed")
    p.add_argument("--verify-exact", action="store_true",
                   help=f"check P[value<=eps]=eps on the grid k/{EXACTNESS_GRID}")
    common(p)
    p.set_defaults(func=cmd_randomize)

    p = sub.add_parser("midp", help="mid-p-values and their validity classification")
    p.add_argument("--trial", required=True)
    common(p)
    p.set_defaults(func=cmd_midp)

    p = sub.add_parser("twosample", help="two-sample cascade p-value (exact or Monte Carlo)")
    p.add_argument("--data", required=True, help="two-column file: value, group label")
    p.add_argument("--cascade", required=True, help="comma list of wilcoxon,fyt,vdw,laplace,t")
    p.add_argument("--mode", choices=("exact", "mc"), required=True)
    p.add_argument("--seed", type=int, help="Monte Carlo seed; required in mc mode")
    p.add_argument("--draws", type=int, default=10_000,
                   help="Monte Carlo draws (default 10000); must be at least 1")
    p.add_argument("--max-enum", type=int, default=DEFAULT_MAX_ENUM,
                   help="exact mode: cap on C(m+n, m) (default 10^7); a larger count exits 3")
    common(p)
    p.set_defaults(func=cmd_twosample)

    p = sub.add_parser("table", help="attainable p-value set of a rank-based cascade")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("cascade", help="comma list of wilcoxon,fyt,vdw,laplace")
    p.add_argument("--max-enum", type=int, default=DEFAULT_MAX_ENUM,
                   help="cap on C(m+n, m) (default 10^7); a larger count exits 3")
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("demo", help="historical p-value computations")
    p.add_argument("name", choices=("bernoulli1735", "arbuthnott1710"))
    p.add_argument("--theta", default="15/2", help="bernoulli1735 maximum inclination in degrees (rational)")
    p.add_argument("--plain", action="store_true")
    p.set_defaults(func=cmd_demo, precision=None)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    if args.precision is not None and not MIN_PRECISION <= args.precision <= MAX_PRECISION:
        print(f"error: --precision must be between {MIN_PRECISION} and {MAX_PRECISION}", file=sys.stderr)
        return 2
    if getattr(args, "max_enum", 1) < 1:
        print("error: --max-enum must be at least 1", file=sys.stderr)
        return 2
    args.command_echo = " ".join(argv)
    try:
        report = args.func(args)
    except SizeLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except TheoremCheckError as e:
        print(f"theorem check failed: {e}", file=sys.stderr)
        return 4
    except (TrialParseError, TrialError, RankTestError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        # Only nested statistic values recurse; one the parser accepted can still be too deep to sort.
        print("error: statistic values nested too deeply", file=sys.stderr)
        return 2
    sys.stdout.write(report.render(plain=args.plain))
    if report.theorem_failures:
        for failure in report.theorem_failures:
            print(f"theorem check failed: {failure}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
