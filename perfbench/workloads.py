"""The benchmark's workloads: fixed request cycles whose inputs come from the seed.

Every workload is a closed loop with one client: the next request starts
when the previous one returns. A run measures a number of whole cycles that
depends only on --seconds (cycle_count), never on how fast the program is,
so two commits are always measured on the same samples and the tail is the
same percentile on both. Cycle j draws its inputs from variant j % VARIANTS,
generated before timing.

cli-cold   Each request is a fresh ``python -m ordstat.cli`` process: what a
           command-line user pays every time. The FYT score build (expected
           normal order statistics, per pool size) is most of the cost, so 5
           of the 7 requests use fyt; the other two show the bare start-up.
           FYT requests use precisions 8-15 and pools 4-7, so that a run
           of about 30 s holds the 50 samples a p80 tail needs.
rank-warm  In-process library calls with the score cache filled during
           set-up: a power study or table build. Enumeration, sorting, tie
           grouping, range-exact verification, reference comparison and the
           Monte Carlo loop do the work; score builds appear only in set-up.
           Attainable sets sit on both sides of the verification recount
           limit, and low-precision laplace/fyt cascades produce imprecise
           ties. FYT cascades use precision 20 to keep each set-up short.
           Five slots (four attainable-set tables and the 9x9 exact p-value)
           are heavy, 20 of the 68 samples of a run, so the tail (10 samples
           beyond it) falls in the middle of that group, not at its edge.
trials     ``ordstat.cli.main`` on trial documents (induce, midp, randomize
           --verify-exact) plus library calls on score-tuple statistics: a
           user of finite-trial p-functions. It exercises files, trial,
           randomized and order and never enters ranktests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import gen
import oracle

VARIANTS = 3
# Seconds of --seconds per measured cycle. At the benchmark's 24 s that is 8,
# 4 and 4 cycles, which took about 30, 38 and 25 s at the commit that defined
# the benchmark, on a 2-core x86-64 host.
CYCLE_SECONDS = {"cli-cold": 3.0, "rank-warm": 6.0, "trials": 6.0}
# Fewest samples in a run: 10 beyond the tail percentile put it at p80 or above.
MIN_SAMPLES = 50
EXACTNESS_CHECK_LEVELS = (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(5, 6), Fraction(1))


def _slot(op, m, n, cascade, precision=50, **extra):
    name = f"{op}-{m}x{n}-{cascade}" + ("" if precision == 50 else f"-p{precision}")
    return dict(name=name, op=op, m=m, n=n, cascade=cascade, precision=precision, **extra)


def _trial(op, n, ties, shape="score", verify=False, **extra):
    name = f"{op}-{n}-{shape}-t{round(100 * ties)}" + ("-verify" if verify else "")
    return dict(name=name, op=op, m=None, n=n, shape=shape, ties=ties, verify=verify, **extra)


CLI_COLD = [
    _slot("table", 3, 3, "wilcoxon,fyt,vdw", precision=8),
    _slot("table", 5, 5, "wilcoxon"),
    _slot("mc", 2, 4, "wilcoxon,fyt,t", precision=10, draws=4000),
    _slot("exact", 2, 2, "wilcoxon,fyt", precision=10),
    _slot("mc", 7, 7, "wilcoxon,t", draws=2000),
    _slot("exact", 2, 3, "fyt,vdw", precision=15),
    _slot("table", 3, 4, "wilcoxon,fyt", precision=10),
]

RANK_WARM = [
    _slot("exact", 6, 6, "wilcoxon"),
    _slot("mc", 6, 6, "wilcoxon,t", draws=16000),
    _slot("table", 6, 6, "wilcoxon,fyt", precision=20, reference=True),  # recount runs (total*groups <= 2e6)
    _slot("exact", 7, 7, "wilcoxon,vdw"),
    _slot("table", 6, 7, "wilcoxon"),  # recount runs
    _slot("exact", 6, 6, "fyt,laplace", precision=8),
    _slot("mc", 9, 9, "wilcoxon,fyt,t", precision=20, draws=12000),
    _slot("table", 6, 6, "laplace", precision=10),  # imprecise ties, recount runs
    _slot("exact", 8, 8, "wilcoxon"),
    _slot("table", 8, 8, "wilcoxon,vdw"),  # recount skipped
    _slot("exact", 9, 9, "wilcoxon,fyt,vdw", precision=20),
    _slot("table", 7, 7, "wilcoxon,laplace", precision=8),  # imprecise ties, recount skipped
    _slot("mc", 8, 8, "wilcoxon,laplace,t", draws=12000),
    _slot("exact", 9, 9, "wilcoxon"),
    _slot("table", 5, 7, "wilcoxon,fyt", precision=20),  # unequal groups, recount runs
    _slot("exact", 8, 8, "wilcoxon,vdw"),
    _slot("table", 6, 6, "wilcoxon,vdw"),  # recount runs
]

TRIALS = [
    _trial("induce", 1500, 0.5, "rational"),
    _trial("randomize", 660, 0.5, "rational", verify=True),
    _trial("induce", 2000, 0.9, "rank"),
    _trial("midp", 1000, 0.3, "tuple"),
    _trial("induce", 1200, 0.0, "rank"),
    _trial("randomize", 660, 0.8, "rank", verify=True),
    _trial("lex", 10, 0.3, "rational", grid=12),
    _trial("induce", 1000, 0.2, "tuple"),
    _trial("midp", 1500, 0.5, "rank"),
    _trial("scores", 1000, 0.4),
    _trial("midp", 300, 0.0, "rank"),
    _trial("randomize", 3000, 0.5, "rational"),
    _trial("induce", 800, 0.6, "tuple"),
    _trial("midp", 2000, 0.1, "rational"),
    _trial("randomize", 2000, 0.5, "tuple"),
    _trial("randomize", 660, 0.3, "tuple", verify=True),
    _trial("randomize", 660, 0.0, "rational", verify=True),
    _trial("randomize", 660, 0.95, "rank", verify=True),
]

WORKLOADS = {"cli-cold": CLI_COLD, "rank-warm": RANK_WARM, "trials": TRIALS}


def cycle_count(workload: str, seconds: float) -> int:
    """Whole cycles a run measures: at least MIN_SAMPLES requests, more for a longer --seconds."""
    return max(math.ceil(MIN_SAMPLES / len(WORKLOADS[workload])), round(seconds / CYCLE_SECONDS[workload]))


def warm_keys(workload: str) -> list:
    """(scheme, pool, precision) score vectors rank-warm fills during set-up."""
    if workload != "rank-warm":
        return []
    keys = []
    for s in RANK_WARM:
        for comp in s["cascade"].split(","):
            key = (comp, s["m"] + s["n"], s["precision"])
            if comp != "t" and key not in keys:  # the Monte Carlo path also reads wilcoxon vectors
                keys.append(key)
    return keys


def golden_key(m, n, cascade, precision) -> str:
    return f"{m}x{n} {cascade} p{precision}"


def values_digest(values) -> str:
    return "sha256:" + hashlib.sha256(" ".join(str(v) for v in values).encode()).hexdigest()


@dataclass
class Request:
    slot: str
    call: Callable[[], object]
    check: Callable[[object], object]  # answer -> None when right, else a reason


# ---------------------------------------------------------------------------
# Inputs (pure data, from the seed)


def make_inputs(workload: str, seed: int, workdir) -> list:
    """VARIANTS lists of per-slot inputs; files are written under workdir."""
    rng = random.Random(f"{workload}:{seed}")
    variants = []
    for v in range(VARIANTS):
        items = []
        for i, s in enumerate(WORKLOADS[workload]):
            item = {}
            if s["op"] in ("exact", "mc"):
                item = gen.two_sample(rng, s["m"], s["n"])
            elif s["op"] in ("induce", "midp", "randomize", "lex"):
                item = gen.trial_document(rng, s["n"], s["shape"], s["ties"])
                if s["op"] == "randomize":
                    item["outcome"] = rng.choice(item["labels"])
                    if rng.random() < 0.5:
                        item["r"] = Fraction(rng.randint(0, 97), 97)
                    else:
                        item["seed"] = rng.randint(0, 2**31)
            elif s["op"] == "scores":
                item = gen.score_trial(rng, s["n"], s["ties"])
            if s["op"] == "mc":
                item["mc_seed"] = rng.randint(0, 2**31)
            if "text" in item and workload != "rank-warm":  # command-line requests read files
                path = workdir / f"v{v}-{i}-{s['op']}.{'csv' if s['op'] in ('exact', 'mc') else 'json'}"
                path.write_text(item["text"], encoding="utf-8")
                item["path"] = str(path)
            items.append(item)
        variants.append(items)
    return variants


# ---------------------------------------------------------------------------
# Answer checks shared by the command-line and in-process forms


def _check_table(s, values, golden):
    m, n, cascade = s["m"], s["n"], s["cascade"]
    if cascade == "wilcoxon":
        return oracle.check_values(values, oracle.wilcoxon_attainable(m, n))
    if cascade.startswith("wilcoxon,") and not set(oracle.wilcoxon_attainable(m, n)) <= set(values):
        return "a refinement of the rank sum lost one of its attainable values"
    want = golden["tables"].get(golden_key(m, n, cascade, s["precision"]))
    if want is None:
        return "no recorded attainable set"
    if [len(values), values_digest(values)] != [want["count"], want["sha256"]]:
        return f"attainable set differs from the recorded one ({len(values)} values, recorded {want['count']})"
    return None


def _check_exact(s, item, p, golden):
    key = golden_key(s["m"], s["n"], s["cascade"], s["precision"])
    recorded = golden["pvalues"].get(key, {}).get(",".join(map(str, item["ranks"])))
    return oracle.check_pvalue(
        p, s["m"], s["n"], item["ranks"], s["cascade"], None if recorded is None else Fraction(recorded)
    )


def _cli_check(s, item, golden):
    def check(answer):
        code, out = answer
        if code != 0:
            return f"exit code {code}"
        got = oracle.answers(out)
        if s["op"] == "table":
            values = [Fraction(v) for v in got.get("values", "").split()]
            if int(got.get("distinct-values", -1)) != len(values):
                return "distinct-values does not count the values"
            return _check_table(s, values, golden)
        if s["op"] == "exact":
            return _check_exact(s, item, Fraction(got["pvalue"]), golden)
        if s["op"] == "mc":
            est = Fraction(got["estimate"])
            return oracle.check_mc(int(est * s["draws"]), s["draws"], s["m"], s["n"], item["ranks"], s["cascade"])
        r = item.get("r")
        if r is None and "seed" in item:
            r = oracle.uniform_r(item["seed"])
        return oracle.check_trial_report(s["op"], got, item["probs"], item["keys"], item.get("outcome"), r)

    return check


def cli_argv(s, item) -> list:
    op = s["op"]
    precision = [] if s.get("precision", 50) == 50 else ["--precision", str(s["precision"])]
    if op == "table":
        return ["table", str(s["m"]), str(s["n"]), s["cascade"], *precision]
    if op == "exact":
        return ["twosample", "--data", item["path"], "--cascade", s["cascade"], "--mode", "exact", *precision]
    if op == "mc":
        return ["twosample", "--data", item["path"], "--cascade", s["cascade"], "--mode", "mc",
                "--seed", str(item["mc_seed"]), "--draws", str(s["draws"]), *precision]
    if op in ("induce", "midp"):
        return [op, "--trial", item["path"]]
    argv = ["randomize", "--trial", item["path"], "--outcome", item["outcome"]]
    argv += ["--r", str(item["r"])] if "r" in item else ["--seed", str(item["seed"])]
    return argv + (["--verify-exact"] if s["verify"] else [])


# ---------------------------------------------------------------------------
# Request cycles


def cli_cycles(variants, golden, runner) -> list:
    """cli-cold: runner(argv) -> (exit code, stdout) of one fresh process."""
    return [
        [Request(s["name"], (lambda a=cli_argv(s, item): runner(a)), _cli_check(s, item, golden))
         for s, item in zip(CLI_COLD, items)]
        for items in variants
    ]


def _in_process_main(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def rank_warm_cycles(variants, golden) -> list:
    """In-process library calls; functions are looked up at call time so tracing sees them."""
    from ordstat import ranktests as rt

    cycles = []
    for items in variants:
        cycle = []
        for s, item in zip(RANK_WARM, items):
            cascade = rt.CascadeStatistic.parse(s["cascade"])
            prec = s["precision"]
            if s["op"] == "exact":
                sample = rt.TwoSample(tuple(item["xs"]), tuple(item["ys"]))
                call = lambda sample=sample, c=cascade, p=prec: rt.exact_perm_pvalue(sample, c, p)
                check = lambda p, s=s, item=item: _check_exact(s, item, p, golden)
            elif s["op"] == "mc":
                sample = rt.TwoSample(tuple(item["xs"]), tuple(item["ys"]))
                call = lambda sample=sample, c=cascade, s=s, item=item: rt.mc_gaussian_pvalue(
                    sample, c, s["draws"], item["mc_seed"], s["precision"])
                check = lambda r, s=s, item=item: oracle.check_mc(
                    r.count, r.draws, s["m"], s["n"], item["ranks"], s["cascade"])
            elif s.get("reference"):
                def call(s=s, c=cascade, p=prec):
                    att = rt.attainable_set(s["m"], s["n"], c, p)
                    return att, rt.compare_with_reference(att, rt.reference_for(s["m"], s["n"], c))

                def check(answer, s=s):
                    att, mismatches = answer
                    want = golden["reference"][golden_key(s["m"], s["n"], s["cascade"], s["precision"])]
                    if [str(mm.value) for mm in mismatches] != want:
                        return "reference mismatches differ from the recorded ones"
                    return _check_table(s, list(att.values), golden)
            else:
                call = lambda s=s, c=cascade, p=prec: rt.attainable_set(s["m"], s["n"], c, p)
                check = lambda att, s=s: _check_table(s, list(att.values), golden)
            cycle.append(Request(s["name"], call, check))
        cycles.append(cycle)
    return cycles


def trials_cycles(variants, golden) -> list:
    import ordstat.cli as cli
    from ordstat import files, order, randomized, trial

    cycles = []
    for items in variants:
        cycle = []
        for s, item in zip(TRIALS, items):
            if s["op"] == "scores":
                ft = trial.FiniteTrial(tuple((lab, item["probs"][lab]) for lab in item["labels"]))
                stat = trial.Statistic({
                    lab: order.LexTuple((order.Score(d), order.Rank(k)))
                    for lab, (d, k) in item["keys"].items()
                })

                def call(ft=ft, stat=stat):
                    phat = trial.induce_phat(ft, stat)
                    rpf = randomized.build_randomized(ft, stat)
                    kind = trial.classify_pfunction(ft, phat).kind.value
                    levels = [randomized.exactness_cdf(rpf, ft, e) for e in EXACTNESS_CHECK_LEVELS]
                    return phat, rpf, kind, levels

                def check(answer, item=item):
                    phat, rpf, kind, levels = answer
                    probs, keys = item["probs"], item["keys"]
                    if dict(phat.values) != oracle.induced(probs, keys):
                        return "induced p-function differs from the native-key oracle"
                    if {lab: (rpf.low(lab), rpf.atom(lab)) for lab in probs} != oracle.low_and_atom(probs, keys):
                        return "randomized split differs from the native-key oracle"
                    if kind != "range-exact":
                        return f"induced p-function classified {kind}"
                    if levels != list(EXACTNESS_CHECK_LEVELS):
                        return "exactness_cdf(eps) != eps"
                    return None
            elif s["op"] == "lex":
                ft, stat = files.parse_trial_document(item["text"])
                call = lambda ft=ft, stat=stat, g=s["grid"]: randomized.lex_equivalence_check(ft, stat, g)
                check = lambda ok: None if ok is True else "lexicographic and closed-form randomized p-values differ"
            else:
                call = lambda argv=cli_argv(s, item): _in_process_main(cli, argv)
                check = _cli_check(s, item, golden)
            cycle.append(Request(s["name"], call, check))
        cycles.append(cycle)
    return cycles
