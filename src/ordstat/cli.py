"""Command line interface: deterministic key-value reports over the library.

Reports are line-oriented ``key: value`` documents (split each line on the
first ": "); ``--plain`` swaps the machine header for a one-line summary.
``main`` builds every report and its header from the command line and
``--precision``; each ``cmd_*`` command only sets the inputs digest and
headline and adds fields, warnings and theorem failures.
Exit codes: 0 success, 2 parse or validation error, 3 enumeration size cap,
4 failed theorem check (the latter always indicates an implementation bug).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import floordiv
from pathlib import Path

from .order import MIN_PRECISION, format_ord
from .trial import (
    TheoremCheckError,
    TrialError,
    Validity,
    check_idempotence,
    classify_pfunction,
    induce_phat,
)
from .randomized import (
    build_randomized,
    draw_uniform_r,
    exactness_sweep,
    mid_pfunction,
    randomized_pvalue,
)
from .ranktests import (
    CascadeStatistic,
    CompareContext,
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
from .files import TrialParseError, _check_digits, format_rational, parse_rational, parse_trial_document, parse_two_sample

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
    """Deterministic report: byte-identical for identical inputs and seed.

    ``main`` builds it from the command line and ``--precision``, the parts of
    the header every command shares; the command sets the inputs digest and
    the headline and adds fields, warnings and theorem failures. Warnings
    render after all fields, whenever they are added.
    """

    command: str
    precision: int | None
    inputs_digest: str = ""
    headline: str = ""
    fields: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    theorem_failures: list = field(default_factory=list)

    def add(self, key: str, value) -> None:
        try:
            self.fields.append(f"{key}: {str(value)}")
        except ValueError:  # str() refuses only an int past Python's int-to-str digit limit
            raise ValueError(f"report key {key} holds an integer with too many digits to print"
                             f" (limit {sys.get_int_max_str_digits()})") from None

    def add_per_label(self, prefix: str, labels, texts) -> None:
        """Add a ``prefix.label: text`` line for each label and its already formatted text."""
        self.fields.extend(map(f"{prefix}.{{}}: {{}}".format, labels, texts))

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
        lines.extend(self.fields)
        lines.append(f"warnings.count: {len(self.warnings)}")
        lines.extend(f"warning.{i}: {text}" for i, text in enumerate(self.warnings, start=1))
        return "\n".join(lines) + "\n"


def _digest(payload: bytes) -> str:
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def _digest_params(*parts) -> str:
    return _digest("\x1f".join(str(p) for p in parts).encode("utf-8"))


def _read_input(path, report: RunReport) -> str:
    data = Path(path).read_bytes()  # read once: digested, and decoded as read_text(encoding="utf-8") does
    report.inputs_digest = _digest(data)
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _load_trial(args, report: RunReport) -> tuple:
    trial, stat = parse_trial_document(_read_input(args.trial, report))
    for label in trial.zero_probability_labels():
        report.warn(f"zero-probability outcome: {label}")
    return trial, stat


def _add_pvalues(report: RunReport, prefix: str, labels, pfunc) -> None:
    """Add each label's p-value as ``str(Fraction)`` does, formatting each distinct key over the denominator once."""
    d, keys = pfunc.denominator, list(set(pfunc.keys.values()))
    gs = list(map(math.gcd, keys, repeat(d)))
    try:
        text = dict(zip(keys, map("{}/{}".format, map(floordiv, keys, gs), map(floordiv, repeat(d), gs))))
    except ValueError:  # an answer too long to print: the per-label lines name the first label that holds one
        for label in labels:
            report.add(f"{prefix}.{label}", pfunc[label])
        return
    for k in text.keys() & {0, d}:  # p-values lie in [0, 1], so only 0 and 1 are whole
        text[k] = str(k // d)
    report.add_per_label(prefix, labels, map(text.__getitem__, map(pfunc.keys.__getitem__, labels)))


def cmd_induce(args, report: RunReport) -> None:
    trial, stat = _load_trial(args, report)
    phat = induce_phat(trial, stat)
    classification = classify_pfunction(trial, phat)
    idempotent = check_idempotence(trial, phat)
    report.headline = (f"induced p-values for {len(trial)} outcomes"
                       f" ({classification.kind.value}, idempotent={str(idempotent).lower()})")
    report.add("outcome-count", len(trial))
    _add_pvalues(report, "phat", trial.labels, phat)
    report.add_per_label("pvalue-kind", trial.labels, map(classification.kinds.__getitem__, trial.labels))
    report.add("classification", classification.kind.value)
    report.add("idempotent", str(idempotent).lower())
    if classification.kind is not Validity.RANGE_EXACT:
        report.theorem_failures.append("induced p-function not range-exact")
    if not idempotent:
        report.theorem_failures.append("induced p-function not self-induced")


def cmd_randomize(args, report: RunReport) -> None:
    trial, stat = _load_trial(args, report)
    trial.prob(args.outcome)  # raises MissingOutcomeError for unknown labels
    rpf = build_randomized(trial, stat)
    r = draw_uniform_r(args.seed) if args.r is None else parse_rational(_check_digits(args.r, "--r"))
    value = randomized_pvalue(rpf, args.outcome, r)
    report.add("outcome", args.outcome)
    report.add("low", rpf.low(args.outcome))
    report.add("atom", rpf.atom(args.outcome))
    report.add("r", r)
    report.add("r-source", "seed" if args.r is None else "given")
    if args.r is None:
        report.add("seed", args.seed)
    report.add("value", value)
    report.headline = f"randomized p-value {format_rational(value)} for outcome {args.outcome}"
    if args.verify_exact:
        grid = [Fraction(k, EXACTNESS_GRID) for k in range(EXACTNESS_GRID + 1)]
        knot, bad = exactness_sweep(rpf, trial, grid)
        report.add("verify-exact", "pass" if knot is None else "fail")
        if knot is not None:
            first = f", first {format_rational(bad[0])}" if bad else ""
            report.theorem_failures.append(
                f"exactness failed at {len(bad)} grid levels{first}; first failing knot {format_rational(knot)}"
            )


def cmd_midp(args, report: RunReport) -> None:
    trial, stat = _load_trial(args, report)
    mids = mid_pfunction(trial, build_randomized(trial, stat))
    classification = classify_pfunction(trial, mids)
    report.headline = f"mid-p-values for {len(trial)} outcomes ({classification.kind.value})"
    report.add("outcome-count", len(trial))
    _add_pvalues(report, "midp", trial.labels, mids)
    report.add("classification", classification.kind.value)
    if classification.witness is not None:
        report.add("witness", classification.witness)
        report.add("witness-mass", classification.witness_mass)


def cmd_twosample(args, report: RunReport) -> None:
    sample = parse_two_sample(_read_input(args.data, report))
    cascade = CascadeStatistic.parse(args.cascade)
    report.add("m", sample.m)
    report.add("n", sample.n)
    report.add("cascade", cascade.label())
    report.add("mode", args.mode)
    ctx = CompareContext()
    if args.mode == "exact":
        pvalue = exact_perm_pvalue(sample, cascade, args.precision, args.max_enum, ctx)
        report.add("observed", format_ord(observed_cascade_value(sample, cascade, args.precision)))
        report.add("enumerated", math.comb(sample.pool, sample.m))
        report.add("pvalue", format_rational(pvalue))
        report.headline = f"exact permutation p-value {format_rational(pvalue)}"
    else:
        if args.seed is None:
            raise RankTestError("Monte Carlo mode needs --seed for reproducibility")
        result = mc_gaussian_pvalue(sample, cascade, args.draws, args.seed, args.precision, ctx)
        report.add("observed", format_ord(observed_cascade_value(sample, cascade, args.precision)))
        report.add("draws", result.draws)
        report.add("seed", result.seed)
        report.add("estimate", format_rational(Fraction(result.count, result.draws)))
        report.add("estimate-decimal", f"{result.estimate:.6f}")
        report.add("ci95", f"[{result.ci95[0]:.6f}, {result.ci95[1]:.6f}]")
        report.add("pvalue", format_rational(result.pvalue))
        report.headline = f"Monte Carlo p-value estimate {result.estimate:.6f}"
    if ctx.imprecise:
        report.warn(f"imprecise score ties: {ctx.imprecise_ties}")


def cmd_table(args, report: RunReport) -> None:
    cascade = CascadeStatistic.parse(args.cascade)
    att = attainable_set(args.m, args.n, cascade, args.precision, args.max_enum)
    report.inputs_digest = _digest_params("table", args.m, args.n, cascade.label(), args.precision)
    report.headline = f"{len(att.groups)} attainable p-values out of {att.total} assignments"
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


def cmd_demo(args, report: RunReport) -> None:
    report.add("demo", args.name)
    if args.name == "bernoulli1735":
        theta = parse_rational(_check_digits(args.theta, "--theta"))
        if not 0 <= theta <= 90:
            raise ValueError(f"theta must be between 0 and 90 degrees, got {theta}")
        pvalue = Fraction(theta, 90) ** 6
        report.inputs_digest = _digest_params("demo", args.name, theta)
        report.headline = f"max-of-6-uniforms p-value {format_rational(pvalue)}"
        report.add("theta-degrees", format_rational(theta))
        report.add("observations", 6)
    else:
        pvalue = Fraction(1, 2**82)
        report.inputs_digest = _digest_params("demo", args.name)
        report.headline = f"82 same-sign years under a fair coin: p-value {format_rational(pvalue)}"
        report.add("years", 82)
    report.add("pvalue", format_rational(pvalue))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordstat",
        description="Exact p-functions over finite trials and lexicographic rank-test cascades.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--precision", type=int, default=None,
                       help=f"significant decimal digits for scores, {MIN_PRECISION} to {MAX_PRECISION}"
                       " (default: ORDSTAT_PRECISION or 50)")
        p.add_argument("--plain", action="store_true", help="human summary instead of the key-value report")

    p = sub.add_parser("induce", help="induced p-values, classification, idempotence check")
    p.add_argument("--trial", required=True, help="trial document (JSON)")
    common(p)

    p = sub.add_parser("randomize", help="randomized p-value for one outcome")
    p.add_argument("--trial", required=True)
    p.add_argument("--outcome", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--r", help="tie-breaking number as a rational p/q in [0,1]")
    g.add_argument("--seed", type=int, help="derive r deterministically from this seed")
    p.add_argument("--verify-exact", action="store_true",
                   help=f"check P[value<=eps]=eps on all of [0,1]; failures name the levels k/{EXACTNESS_GRID}")
    common(p)

    p = sub.add_parser("midp", help="mid-p-values and their validity classification")
    p.add_argument("--trial", required=True)
    common(p)

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

    p = sub.add_parser("table", help="attainable p-value set of a rank-based cascade")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("cascade", help="comma list of wilcoxon,fyt,vdw,laplace")
    p.add_argument("--max-enum", type=int, default=DEFAULT_MAX_ENUM,
                   help="cap on C(m+n, m) (default 10^7); a larger count exits 3")
    common(p)

    p = sub.add_parser("demo", help="historical p-value computations")
    p.add_argument("name", choices=("bernoulli1735", "arbuthnott1710"))
    p.add_argument("--theta", default="15/2", help="bernoulli1735 maximum inclination in degrees (rational)")
    p.add_argument("--plain", action="store_true")
    p.set_defaults(precision=None)

    return parser


_parser = functools.cache(build_parser)  # one parser per process, built at the first main call


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        precision = _default_precision()  # read on every call, before parsing; the cached parser's default is None
        args = _parser().parse_args(argv)
        if args.subcommand != "demo" and args.precision is None:
            args.precision = precision
        if args.precision is not None and not MIN_PRECISION <= args.precision <= MAX_PRECISION:
            raise ValueError(f"--precision must be between {MIN_PRECISION} and {MAX_PRECISION}")
        if getattr(args, "max_enum", 1) < 1:
            raise ValueError("--max-enum must be at least 1")
        report = RunReport(" ".join(argv), args.precision)
        globals()[f"cmd_{args.subcommand}"](args, report)  # looked up per call, so a patched command runs
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
