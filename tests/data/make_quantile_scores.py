"""Write quantile_scores.json, the regression fixture of the vdw and laplace score vectors.

Each entry holds ``str()`` of every lower-half Decimal of
``scheme_scores(scheme, pool, precision)``; the upper half mirrors it with
flipped sign, and an odd pool puts 0 between. The fixture was generated
from commit 665f0ae, whose quantiles came from mpmath's ``erfinv`` and
``log``. It pins those vectors so that an evaluation on Python's
``decimal`` module must reproduce them digit for digit.

Only rerun this on that pre-change code: on later code it would record
whatever that code computes and the fixture would check nothing, so the
script exits non-zero unless the imported ``ordstat.ranktests`` still has
the mpmath conversion ``_decimal_from_mpf``. Extract that commit and point
PYTHONPATH at its sources; the fixture is written next to this script:

    git archive 665f0ae | tar -x -C /tmp/ordstat-665f0ae
    PYTHONPATH=/tmp/ordstat-665f0ae/src python tests/data/make_quantile_scores.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from ordstat import Component, ranktests, scheme_scores

POOLS = list(range(2, 41)) + [60, 120, 200]
PRECISIONS = (4, 8, 10, 12, 15, 20, 50, 100)
CASES = [(scheme, pool, precision) for scheme in (Component.VDW, Component.LAPLACE)
         for precision in PRECISIONS for pool in POOLS]


def main() -> None:
    if not hasattr(ranktests, "_decimal_from_mpf"):
        sys.exit(f"{ranktests.__file__} is not the mpmath quantile code of commit 665f0ae")
    entries = [
        {"scheme": scheme.value, "pool": pool, "precision": precision,
         "lower": [str(d) for d in scheme_scores(scheme, pool, precision)[: pool // 2]]}
        for scheme, pool, precision in CASES
    ]
    path = Path(__file__).with_name("quantile_scores.json")
    path.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")


if __name__ == "__main__":
    main()
