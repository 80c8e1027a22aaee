"""The ordstat benchmark: one workload, one seed, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cli-cold,rank-warm,trials} --seed N --seconds S --trace {0,1}

With --trace 0 it measures the end-to-end metrics of BENCHMARK.json; with
--trace 1 it wraps ordstat's public functions (tracing.py), measures the
per-layer metrics and the tracing overhead, and writes the spans to
perfbench/out/. Every answer is checked (workloads.py, oracle.py). The last
line of stdout is the JSON result; the line before it, prefixed
"perfbench-record: ", holds the full record that compare.py reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import setup_probe
import stats
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REQUEST_TIMEOUT = 120
# Set-up samples per run, spread over the cycles like the requests;
# rank-warm's set-up fills the FYT score cache and is slow.
SETUP_SAMPLES = {"cli-cold": 16, "rank-warm": 3, "trials": 12}

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}
SELF_TIMES = (
    "ranktests.scheme_scores.fyt",
    "ranktests.scheme_scores.vdw",
    "ranktests.scheme_scores.laplace",
    "ranktests.permutation_distribution",
    "ranktests.exact_perm_pvalue",
    "ranktests.attainable_set",
    "ranktests.compare_with_reference",
    "ranktests.mc_gaussian_pvalue",
    "randomized.exactness_cdf",
    "randomized.build_randomized",
    "randomized.midp_validity_check",
    "randomized.lex_equivalence_check",
    "trial.value_groups",
    "trial.induce_phat",
    "trial.check_idempotence",
    "trial.classify_pfunction",
    "files.load_trial",
    "files.load_two_sample",
    "cli.main",
)
# Counts over the first cycle, so they repeat exactly for a seed.
CYCLE_COUNTS = (
    "ranktests.score_cache.misses",
    "ranktests.assignments_enumerated",
    "order.compare.calls",
    "ranktests.attainable_groups",
    "ranktests.residual_tie_groups",
    "ranktests.mc_draws",
    "randomized.exactness_levels",
    "trial.outcomes",
    "files.bytes_parsed",
)


def per_layer_units() -> dict:
    units = {f"{name}.self_s": "s" for name in SELF_TIMES}
    units.update({name: "count" for name in CYCLE_COUNTS})
    units.update(
        {
            "ranktests.score_cache.hit_ratio": "ratio",
            "ranktests.assignments_per_s": "1/s",
            "cli.process_start_s": "s",
            "trace.overhead_s": "s",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ORDSTAT_PRECISION", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, timeout=REQUEST_TIMEOUT) -> subprocess.CompletedProcess:
    """A child interpreter in the checkout root; subprocess.run kills and reaps it on timeout."""
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )


def plain_cli(argv):
    proc = run_child(["-m", "ordstat.cli", *argv])
    return proc.returncode, proc.stdout


def traced_cli(tracer: tracing.Tracer, workdir: Path):
    """Runner that starts the benchmark's launcher and merges the child's spans."""
    spans_file = workdir / "spans.json"

    def run(argv):
        proc = run_child([str(HERE / "launcher.py"), str(spans_file), "--", *argv])
        payload = json.loads(spans_file.read_text(encoding="utf-8"))
        spans_file.unlink()
        offset = len(tracer.spans)
        for sid, parent, _, name, start, end in payload["spans"]:
            parent = None if parent is None else parent + offset
            tracer.spans.append((sid + offset, parent, tracer.request, name, start, end))
        tracer.counts[tracer.request].update(payload["counts"])
        return proc.returncode, proc.stdout

    return run


def process_start_sample() -> float:
    """Wall time of a fresh interpreter that imports ordstat.cli and exits."""
    start = time.perf_counter()
    proc = run_child(["-c", "import ordstat.cli"])
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"importing ordstat.cli failed: {proc.stderr.strip()}")
    return took


def setup_probe_sample(workload: str) -> float:
    proc = run_child([str(HERE / "setup_probe.py"), workload], timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


@dataclass
class Loop:
    latencies: list = field(default_factory=list)
    by_slot: dict = field(default_factory=lambda: defaultdict(list))
    failures: list = field(default_factory=list)
    cycles: int = 0


def closed_loop(cycles, count, tracer=None, before_cycle=None) -> Loop:
    """Run exactly `count` whole cycles, one request at a time; before_cycle(i) runs untimed first."""
    res = Loop()
    while res.cycles < count:
        if before_cycle is not None:
            before_cycle(res.cycles)
        for index, req in enumerate(cycles[res.cycles % len(cycles)]):
            if tracer is not None:
                tracer.request = (res.cycles, index)
            t0 = time.perf_counter()
            try:
                answer = req.call()
            except Exception as exc:  # a failed request counts against the run, which goes on
                problem = f"{type(exc).__name__}: {exc}"
            else:
                problem = None
            took = time.perf_counter() - t0
            if problem is None:
                try:
                    problem = req.check(answer)
                except Exception as exc:  # an unreadable answer is a wrong answer
                    problem = f"unreadable answer: {type(exc).__name__}: {exc}"
            res.latencies.append(took)
            res.by_slot[req.slot].append(took)
            if problem is not None:
                res.failures.append(f"{req.slot}: {problem}")
        res.cycles += 1
    if tracer is not None:
        tracer.request = None
    return res


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def layer_metrics(tracer: tracing.Tracer, cycles: int, overhead_s: float, untraced_s: float, process_start) -> dict:
    measured = [s for s in tracer.spans if isinstance(s[2], tuple)]
    selfs = tracing.self_times(measured)
    first, total = Counter(), Counter()
    for request, counts in tracer.counts.items():
        if isinstance(request, tuple):
            total.update(counts)
            if request[0] == 0:
                first.update(counts)
    out = {f"{name}.self_s": selfs.get(name, 0.0) / cycles for name in SELF_TIMES}
    out.update({name: first.get(name, 0) for name in CYCLE_COUNTS})
    lookups = total["ranktests.score_cache.hits"] + total["ranktests.score_cache.misses"]
    out["ranktests.score_cache.hit_ratio"] = total["ranktests.score_cache.hits"] / lookups if lookups else 0.0
    enum_s = selfs.get("ranktests.exact_perm_pvalue", 0.0) + selfs.get("ranktests.permutation_distribution", 0.0)
    out["ranktests.assignments_per_s"] = total["ranktests.assignments_enumerated"] / enum_s if enum_s else 0.0
    out["cli.process_start_s"] = statistics.median(process_start) if process_start else 0.0
    out["trace.overhead_s"] = overhead_s / cycles
    out["trace.overhead_ratio"] = overhead_s / untraced_s
    return out


def environment() -> dict:
    import mpmath

    def cpu_model():
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    def git_commit():
        try:
            top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        lines = top.stdout.split()
        return lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else None

    digest = hashlib.sha256()
    for path in sorted((SRC / "ordstat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "ORDSTAT_PRECISION": "unset",
    }


def build_cycles(workload, variants, golden, runner=None):
    if workload == "cli-cold":
        return workloads.cli_cycles(variants, golden, runner)
    if workload == "rank-warm":
        return workloads.rank_warm_cycles(variants, golden)
    return workloads.trials_cycles(variants, golden)


def run(args, variants, golden, workdir: Path) -> dict:
    workload = args.workload
    tracer = tracing.Tracer() if args.trace else None
    setup = []
    if workload == "cli-cold":
        probe = process_start_sample
        cycles = build_cycles(workload, variants, golden, traced_cli(tracer, workdir) if tracer else plain_cli)
    else:
        probe = lambda: setup_probe_sample(workload)
        if tracer is not None:
            tracer.install()
            tracer.request = "setup"
            setup_probe.set_up(workload)
            tracer.request = "build"
        else:
            setup.append(setup_probe.set_up(workload))
        cycles = build_cycles(workload, variants, golden)

    count = workloads.cycle_count(workload, args.seconds)

    def set_up_again(cycle):
        # The in-process set-up above is the first sample; fresh interpreters give the rest.
        while len(setup) < math.ceil(SETUP_SAMPLES[workload] * (cycle + 1) / count):
            setup.append(probe())

    if tracer is None:
        res = closed_loop(cycles, count, before_cycle=set_up_again)
        tail, pct, samples = stats.tail_percentile(res.latencies)
        metrics = {
            "setup_s": statistics.median(setup),
            "requests_per_s": len(res.latencies) / sum(res.latencies),
            "latency_p50_s": statistics.median(res.latencies),
            "latency_tail_s": tail,
            "peak_rss_mb": peak_rss_mb(workload),
        }
        units = END_TO_END
        extra = {"tail_percentile": pct, "samples": samples, "setup_samples": setup}
    else:
        # Half the cycles traced, then as many untraced for the overhead.
        res = closed_loop(cycles, max(1, count // 2), tracer=tracer,
                          before_cycle=set_up_again if workload == "cli-cold" else None)
        tracer.uninstall()
        replay_cycles = build_cycles(workload, variants, golden, plain_cli) if workload == "cli-cold" else cycles
        replay = closed_loop(replay_cycles, count=res.cycles)
        res.failures += replay.failures
        traced_s, untraced_s = sum(res.latencies), sum(replay.latencies)
        metrics = layer_metrics(tracer, res.cycles, traced_s - untraced_s, untraced_s, setup)
        units = per_layer_units()
        extra = {"traced_s": traced_s, "untraced_s": untraced_s}
        trace_file = OUT / f"trace-{workload}-seed{args.seed}.json"
        counts = [[request, dict(c)] for request, c in tracer.counts.items()]
        trace_file.write_text(json.dumps({"spans": tracer.spans, "counts": counts}), encoding="utf-8")
        extra["trace_file"] = str(trace_file.relative_to(ROOT))
    attempted = len(res.latencies) + (len(replay.latencies) if tracer is not None else 0)
    return {
        "metrics": metrics,
        "units": units,
        "attempted": attempted,
        "failures": res.failures,
        "cycles": res.cycles,
        "slot_median_s": {slot: statistics.median(v) for slot, v in res.by_slot.items()},
        "slot_latencies_s": dict(res.by_slot),
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("ORDSTAT_PRECISION", None)
    if not (SRC / "ordstat" / "__init__.py").is_file():
        print(f"error: no ordstat sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        variants = workloads.make_inputs(args.workload, args.seed, workdir)
        out = run(args, variants, golden, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(out["failures"])
    for failure in out["failures"][:10]:
        print(f"wrong or failed: {failure}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "correct": failed == 0,
        "fail_ratio": failed / out["attempted"],
        **{k: v for k, v in out.items() if k not in ("units", "failures")},
    }
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}"
          f" requests={out['attempted']} cycles={out['cycles']} failed={failed}")
    shown = dict(out["metrics"])
    if not args.trace:
        shown["fail_ratio"] = record["fail_ratio"]
    for name, value in shown.items():
        unit = out["units"].get(name, "ratio")
        note = ""
        if name == "latency_tail_s":
            note = f"  (p{out['tail_percentile']:.1f} of {out['samples']} samples)"
        print(f"  {name:<44} {value:>14.6g} {unit}{note}")
    print("perfbench-record: " + json.dumps(record, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": out["units"][name]} for name, value in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
