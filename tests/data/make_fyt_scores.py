"""Write fyt_scores.json, the regression fixture of the FYT score vectors.

Each entry is ``str()`` of every Decimal of ``scheme_scores(Component.FYT,
pool, precision)``. The fixture was generated from commit 3dad673, whose
quadrature evaluated every node factor afresh for each rank. It pins those
vectors so that a faster evaluation must reproduce them bit for bit.

Only rerun this on that pre-change code (a checkout of 3dad673): on later
code it would record whatever that code computes and the fixture would
check nothing.

    PYTHONPATH=src python tests/data/make_fyt_scores.py
"""

from __future__ import annotations

import json
from pathlib import Path

from ordstat import Component, scheme_scores

CASES = [(pool, precision) for precision in (8, 20, 50) for pool in range(2, 13)]
CASES += [(pool, 10) for pool in (14, 18, 24, 30)]


def main() -> None:
    entries = [
        {"pool": pool, "precision": precision,
         "scores": [str(d) for d in scheme_scores(Component.FYT, pool, precision)]}
        for pool, precision in CASES
    ]
    path = Path(__file__).with_name("fyt_scores.json")
    path.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    main()
