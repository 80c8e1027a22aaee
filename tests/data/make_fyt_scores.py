"""Write fyt_scores.json, the regression fixture of the FYT score vectors.

Each entry is ``str()`` of every Decimal of ``scheme_scores(Component.FYT,
pool, precision)``. The fixture was generated from commit 3dad673, whose
quadrature evaluated every node factor afresh for each rank. It pins those
vectors so that a faster evaluation must reproduce them bit for bit.

Only rerun this on that pre-change code: on later code it would record
whatever that code computes and the fixture would check nothing, so the
script exits non-zero unless the imported ``ordstat.ranktests`` still has
the per-rank ``_expected_normal_order_stat``. Extract that commit and point
PYTHONPATH at its sources; the fixture is written next to this script:

    git archive 3dad673 | tar -x -C /tmp/ordstat-3dad673
    PYTHONPATH=/tmp/ordstat-3dad673/src python tests/data/make_fyt_scores.py

The first 37 cases are the original fixture; the rest add the (pool,
precision) pairs of the benchmark and precisions 4 and 100 at pools 2-6.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from ordstat import Component, ranktests, scheme_scores

CASES = [(pool, precision) for precision in (8, 20, 50) for pool in range(2, 13)]
CASES += [(pool, 10) for pool in (14, 18, 24, 30)]
CASES += [(4, 10), (5, 15), (6, 10), (7, 10), (18, 20)]
CASES += [(pool, precision) for precision in (4, 100) for pool in range(2, 7)]


def main() -> None:
    if not hasattr(ranktests, "_expected_normal_order_stat"):
        sys.exit(f"{ranktests.__file__} is not the per-rank quadrature of commit 3dad673")
    entries = [
        {"pool": pool, "precision": precision,
         "scores": [str(d) for d in scheme_scores(Component.FYT, pool, precision)]}
        for pool, precision in CASES
    ]
    path = Path(__file__).with_name("fyt_scores.json")
    path.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    main()
