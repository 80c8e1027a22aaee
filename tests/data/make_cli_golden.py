"""Write cli_golden.json, the byte-identity fixture of the CLI reports.

Each entry is one argv of ``ordstat.cli.main`` with the stdout, stderr and
exit code it gave, run in-process from this directory so that file
arguments are bare names. The commands are tables of score cascades at
3x3 to 6x6 (two of them exit 4), exact and Monte Carlo ``twosample`` on
``six.csv`` and on ``mixed.csv``, whose laplace sums tie imprecisely,
``induce`` and ``midp`` (each also with ``--plain``) on every trial
document here (``badprob.json`` exits 2), and ``randomize --outcome a``
with ``--r 1/3``, ``--seed 3`` and ``--seed 3 --verify-exact`` on
``three.json`` and ``tuplestat.json``. After those come both ``demo``
reports (``--theta 91`` exits 2), ``--plain`` of ``table``, exact and
Monte Carlo ``twosample`` and ``randomize``, and three error paths: an
unknown ``--outcome`` (exit 2), a ``t`` cascade in exact mode (exit 2) and
a ``--max-enum`` below the assignment count (exit 3). Last come
``induce``, ``midp`` and ``randomize --seed 3 --verify-exact`` on three
40-outcome documents: ``coprime40.json`` (pairwise-coprime probability
denominators, negative rational statistic), ``tuple40.json`` (a tuple
statistic with rational components and a zero-probability outcome) and
``midp40.json`` (mid-p-values that are not a p-function, with a witness).
Then ``induce`` and ``midp`` on ``ties200.json``: 200 outcomes with 20
distinct ``[rank, [rational, rank]]`` values, so nine in ten outcomes tie,
each value and probability spelled several ways (``"1/2"``, ``"2/4"``,
``" 1/200"``) and two zero-probability outcomes. The trial commands
run at the default precision, so ``ORDSTAT_PRECISION`` is unset for the
run. Last come exact ``twosample`` reports on ``mid7.csv``, whose rank sum
56 lies in the middle of its null distribution, under ``wilcoxon``,
``wilcoxon,fyt,vdw --precision 20`` and ``wilcoxon,laplace --precision 4``
(imprecise ties), and ``table 7 7 wilcoxon,laplace --precision 8``.
The last eight are tables of other shapes and lengths: unbalanced
``2 9 wilcoxon,vdw`` and ``9 2 fyt,vdw`` (precision 8) and ``1 10 laplace``
(precision 6), ``4 5 wilcoxon,fyt --precision 4`` (imprecise ties),
three-part ``4 6 wilcoxon,fyt,vdw --precision 20``, ``5 7 wilcoxon``, the
three-part Pratt-Gibbons reference ``6 6 wilcoxon,fyt,vdw``, and ``7 7
laplace,vdw``, which exits 4 because its threshold groups are not strictly
ascending.

The first 71 entries were recorded at commit 231043d, whose Score
comparison rounded the relative distance to precision + 10 digits and
whose cascade keys found their tie window by bisecting a comparison
predicate; the next 12 were recorded at ee89821, the 40-outcome
documents' 9 at 85fa939, the two ``ties200.json`` reports at 9e59851,
whose trial parser parsed every literal once per occurrence, and the four
``mid7.csv`` and 7x7 reports at b7554a5, whose exact p-values enumerated
every assignment, and the last eight tables at 1b2b46f, whose attainable
sets compared keys through a second window walk. The fixture pins those
reports so that later code must reproduce them byte for byte. It pins the
threshold's wrong 6x6 ``laplace`` table (ROADMAP item 1) as well: a change
to an exact order must re-record the fixture and list every changed report.

The script only adds entries. It exits non-zero, and writes nothing,
unless every entry already in cli_golden.json reproduces byte for byte
under the imported ``ordstat``, so that a rerun on changed code cannot
re-record what that code computes. To pin new commands, append them to
COMMANDS and run the script against the code the fixture already agrees
with:

    PYTHONPATH=src python tests/data/make_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

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
TRIALS = ("three.json", "uniform2.json", "constant.json", "singleton.json", "zeroprob.json", "tuplestat.json",
          "badprob.json")
COMMANDS += [
    [command, "--trial", trial, *plain]
    for command in ("induce", "midp")
    for trial in TRIALS
    for plain in ([], ["--plain"])
]
COMMANDS += [
    ["randomize", "--trial", trial, "--outcome", "a", *choice]
    for trial in ("three.json", "tuplestat.json")
    for choice in (["--r", "1/3"], ["--seed", "3"], ["--seed", "3", "--verify-exact"])
]
COMMANDS += [
    ["demo", "bernoulli1735"],
    ["demo", "bernoulli1735", "--theta", "45"],
    ["demo", "bernoulli1735", "--theta", "91"],
    ["demo", "arbuthnott1710"],
    ["demo", "bernoulli1735", "--plain"],
    ["table", "4", "4", "wilcoxon,fyt", "--precision", "8", "--plain"],
    ["twosample", "--data", "six.csv", "--cascade", "wilcoxon,fyt", "--mode", "exact", "--precision", "8", "--plain"],
    ["twosample", "--data", "mixed.csv", "--cascade", "laplace,t", "--mode", "mc", "--seed", "3", "--draws", "1000",
     "--precision", "4", "--plain"],
    ["randomize", "--trial", "three.json", "--outcome", "a", "--seed", "3", "--verify-exact", "--plain"],
    ["randomize", "--trial", "three.json", "--outcome", "nope", "--r", "1/3"],
    ["twosample", "--data", "six.csv", "--cascade", "wilcoxon,t", "--mode", "exact"],
    ["table", "3", "3", "wilcoxon", "--max-enum", "5"],
]
COMMANDS += [
    argv
    for trial, outcome in (("coprime40.json", "o05"), ("tuple40.json", "t05"), ("midp40.json", "m05"))
    for argv in (["induce", "--trial", trial], ["midp", "--trial", trial],
                 ["randomize", "--trial", trial, "--outcome", outcome, "--seed", "3", "--verify-exact"])
]
COMMANDS += [[command, "--trial", "ties200.json"] for command in ("induce", "midp")]
COMMANDS += [
    ["twosample", "--data", "mid7.csv", "--cascade", cascade, "--mode", "exact", *precision]
    for cascade, precision in (("wilcoxon", []), ("wilcoxon,fyt,vdw", ["--precision", "20"]),
                               ("wilcoxon,laplace", ["--precision", "4"]))
]
COMMANDS += [["table", "7", "7", "wilcoxon,laplace", "--precision", "8"]]
COMMANDS += [
    ["table", m, n, cascade, *precision]
    for m, n, cascade, precision in (
        ("2", "9", "wilcoxon,vdw", ["--precision", "8"]), ("9", "2", "fyt,vdw", ["--precision", "8"]),
        ("1", "10", "laplace", ["--precision", "6"]), ("4", "5", "wilcoxon,fyt", ["--precision", "4"]),
        ("4", "6", "wilcoxon,fyt,vdw", ["--precision", "20"]), ("5", "7", "wilcoxon", []),
        ("6", "6", "wilcoxon,fyt,vdw", []), ("7", "7", "laplace,vdw", []),
    )
]


def run(argv: list) -> dict:
    """stdout, stderr and exit code of one in-process CLI run; the caller sits in this directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def record() -> None:
    os.chdir(HERE)
    os.environ.pop("ORDSTAT_PRECISION", None)
    path = HERE / "cli_golden.json"
    pinned = json.loads(path.read_text()) if path.exists() else []
    entries = [run(argv) for argv in COMMANDS]
    by_argv = {tuple(e["argv"]): e for e in entries}
    changed = [" ".join(e["argv"]) for e in pinned if by_argv.get(tuple(e["argv"])) != e]
    if changed:
        sys.exit(f"{len(changed)} pinned report(s) differ or left COMMANDS, first: {changed[0]}; nothing written")
    path.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    record()
