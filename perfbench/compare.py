"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py pairs PARENT_ROOT CHANGE_ROOT --workload W --out DIR
    python3 perfbench/compare.py report PARENT CHANGE

``pairs`` runs each checkout's perfbench/run.py PAIRS times in turn, for
run_seconds of BENCHMARK.json, alternating which side runs first from pair
to pair, with seeds FIRST_SEED, FIRST_SEED + 1, ... shared by both sides
of a pair; it saves each run's stdout under DIR/parent and DIR/change.
``report`` reads saved outputs (files or directories; every
"perfbench-record: " line of an untraced run is one run), pairs runs by
workload and seed, and prints per workload each side's fail ratio and,
per end-to-end metric, each side's quartiles, the pairs each side won and
a verdict (stats.verdict) against the bound in BENCHMARK.json. A change
with a higher fail ratio than the parent, or with any run whose answers
were not all correct, gets the verdict "failed" on every metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
PREFIX = "perfbench-record: "
PAIRS = 10
FIRST_SEED = 1000


def load_records(path: Path) -> dict:
    """(workload, seed) -> record, from one file or every file under a directory."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    records = {}
    for f in files:
        for line in f.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith(PREFIX):
                rec = json.loads(line[len(PREFIX):])
                if not rec["trace"]:
                    records[rec["workload"], rec["seed"]] = rec
    return records


def report(parent_path: Path, change_path: Path) -> int:
    parent, change = load_records(parent_path), load_records(change_path)
    paired = sorted(set(parent) & set(change))
    if not paired:
        print("no runs pair up by workload and seed", file=sys.stderr)
        return 2
    summary = {}
    for workload in sorted({w for w, _ in paired}):
        keys = [k for k in paired if k[0] == workload]
        fail = {side: statistics.fmean(runs[k]["fail_ratio"] for k in keys)
                for side, runs in (("parent", parent), ("change", change))}
        failed = fail["change"] > fail["parent"] or not all(change[k]["correct"] for k in keys)
        print(f"{workload}: {len(keys)} pairs, mean fail_ratio parent {fail['parent']:.4g} change {fail['change']:.4g}"
              + ("  (change failed)" if failed else ""))
        summary[f"{workload}/fail_ratio"] = fail
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            p = [parent[k]["metrics"][name] for k in keys]
            c = [change[k]["metrics"][name] for k in keys]
            v = stats.verdict(p, c, metric["better"], metric["bound"])
            if failed:
                v["verdict"] = "failed"
            summary[f"{workload}/{name}"] = v
            print(
                f"  {name:<16} parent {v['parent']['median']:.6g} [{v['parent']['q1']:.6g}, {v['parent']['q3']:.6g}]"
                f"  change {v['change']['median']:.6g} [{v['change']['q1']:.6g}, {v['change']['q3']:.6g}] {metric['unit']}"
                f"  wins {v['change_wins']}-{v['parent_wins']}  {v['verdict']}"
            )
    print(json.dumps(summary))
    return 0


def pairs(args) -> int:
    out = Path(args.out)
    for side in ("parent", "change"):
        (out / side).mkdir(parents=True, exist_ok=True)
    roots = {"parent": Path(args.parent_root).resolve(), "change": Path(args.change_root).resolve()}
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=roots[side], capture_output=True, text=True, timeout=600)
            (out / side / f"{args.workload}-seed{seed}.txt").write_text(proc.stdout + proc.stderr, encoding="utf-8")
            print(f"pair {i} {side} seed {seed}: exit {proc.returncode}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("parent_root")
    p.add_argument("change_root")
    p.add_argument("--workload", required=True)
    p.add_argument("--out", required=True)
    r = sub.add_parser("report")
    r.add_argument("parent")
    r.add_argument("change")
    args = parser.parse_args(argv)
    if args.cmd == "pairs":
        return pairs(args)
    return report(Path(args.parent), Path(args.change))


if __name__ == "__main__":
    raise SystemExit(main())
