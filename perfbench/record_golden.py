"""Record the answers the benchmark cannot recompute independently.

Usage: python3 perfbench/record_golden.py   (from the root of a checkout)

Writes perfbench/golden.json: exact p-values of score cascades for every
fixed rank pattern (gen.rank_patterns), attainable sets of score cascades
as a count and digest, and the reference mismatches of the m = n = 6 table.
Rank-sum-only answers are not recorded: oracle.py recomputes them. Re-record
only when a workload slot changes, never to make a changed answer pass.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import workloads  # noqa: E402
from ordstat import ranktests as rt  # noqa: E402


def main() -> None:
    golden = {"pvalues": {}, "tables": {}, "reference": {}}
    slots = [s for slots in workloads.WORKLOADS.values() for s in slots if s["m"] is not None]
    for s in slots:
        m, n, name, prec = s["m"], s["n"], s["cascade"], s["precision"]
        if name == "wilcoxon" or s["op"] == "mc":
            continue
        key = workloads.golden_key(m, n, name, prec)
        cascade = rt.CascadeStatistic.parse(name)
        if s["op"] == "exact":
            table = golden["pvalues"].setdefault(key, {})
            for ranks in gen.rank_patterns(m, n):
                xs = tuple(Fraction(r) for r in ranks)
                ys = tuple(Fraction(r) for r in range(1, m + n + 1) if r not in ranks)
                p = rt.exact_perm_pvalue(rt.TwoSample(xs, ys), cascade, prec)
                table[",".join(map(str, ranks))] = str(p)
        else:
            att = rt.attainable_set(m, n, cascade, prec)
            golden["tables"][key] = {"count": len(att.values), "sha256": workloads.values_digest(att.values)}
            if s.get("reference"):
                mismatches = rt.compare_with_reference(att, rt.reference_for(m, n, cascade))
                golden["reference"][key] = [str(mm.value) for mm in mismatches]
        print(f"recorded {s['op']} {key}", file=sys.stderr)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
