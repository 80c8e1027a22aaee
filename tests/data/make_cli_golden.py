"""Write cli_golden.json, the byte-identity fixture of the rank-test CLI reports.

Each entry is one argv of ``ordstat.cli.main`` with the stdout, stderr and
exit code it gave, run in-process from this directory so that file
arguments are bare names. The commands are tables of score cascades at
3x3 to 6x6 (two of them exit 4), exact and Monte Carlo ``twosample`` on
``six.csv`` and on ``mixed.csv``, whose laplace sums tie imprecisely. The fixture was generated from commit 231043d,
whose Score comparison rounded the relative distance to precision + 10
digits and whose cascade keys found their tie window by bisecting a
comparison predicate. It pins those reports so that later code must
reproduce them byte for byte. It pins the threshold's wrong 6x6
``laplace`` table (ROADMAP item 1) as well: a change to an exact order
must re-record the fixture and list every changed report.

Only rerun this on that pre-change code: on later code it would record
whatever that code computes, so the script exits non-zero unless the
imported ``ordstat.ranktests`` still has ``permutation_distribution``.
Extract that commit and point PYTHONPATH at its sources:

    git archive 231043d | tar -x -C /tmp/ordstat-231043d
    PYTHONPATH=/tmp/ordstat-231043d/src python tests/data/make_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from ordstat import ranktests
from ordstat.cli import main

HERE = Path(__file__).parent

TABLES = [
    (3, 3, "wilcoxon,fyt", 4), (4, 4, "wilcoxon,fyt", 8), (5, 5, "wilcoxon,fyt", 10), (6, 6, "wilcoxon,fyt", 50),
    (3, 3, "fyt,vdw", 50), (4, 4, "fyt,vdw", 4), (5, 5, "fyt,vdw", 8), (6, 6, "fyt,vdw", 10),
    (3, 3, "laplace", 8), (4, 4, "laplace", 10), (5, 5, "laplace", 50), (6, 6, "laplace", 10), (6, 6, "laplace", 4),
    (3, 3, "wilcoxon,laplace", 10), (4, 4, "wilcoxon,laplace", 50), (5, 5, "wilcoxon,laplace", 4),
    (6, 6, "wilcoxon,laplace", 8),
    (3, 3, "fyt,laplace", 4), (4, 4, "fyt,laplace", 8), (5, 5, "fyt,laplace", 10), (6, 6, "fyt,laplace", 50),
    (6, 6, "fyt,wilcoxon", 4), (6, 6, "laplace,fyt", 8),
]
COMMANDS = [["table", str(m), str(n), cascade, "--precision", str(p)] for m, n, cascade, p in TABLES]
COMMANDS += [
    ["twosample", "--data", data, "--cascade", cascade, "--mode", "exact", "--precision", str(p)]
    for data in ("six.csv", "mixed.csv")
    for cascade, p in (("wilcoxon", 50), ("wilcoxon,fyt", 8), ("fyt,laplace", 4), ("laplace", 10))
]
COMMANDS += [
    ["twosample", "--data", data, "--cascade", cascade, "--mode", "mc", "--seed", str(seed),
     "--draws", str(draws), "--precision", str(p)]
    for data in ("six.csv", "mixed.csv")
    for cascade, seed, draws, p in (("wilcoxon,fyt,t", 1, 2000, 8), ("t", 7, 501, 50), ("laplace,t", 3, 1000, 4))
]


def run(argv: list) -> dict:
    """stdout, stderr and exit code of one in-process CLI run; the caller sits in this directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def record() -> None:
    if not hasattr(ranktests, "permutation_distribution"):
        sys.exit(f"{ranktests.__file__} is not the threshold-bisection code of commit 231043d")
    os.chdir(HERE)
    entries = [run(argv) for argv in COMMANDS]
    HERE.joinpath("cli_golden.json").write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    record()
