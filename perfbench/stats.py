"""Order statistics of latency samples, and the parent-versus-change verdict rule."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail_percentile(samples):
    """The highest percentile that has at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, count): the sample at ascending rank
    count - TAIL_BEYOND (1-based), the percentile that rank represents, and
    the sample count. With TAIL_BEYOND or fewer samples no percentile
    qualifies and ValueError is raised.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        raise ValueError(f"{count} samples: the tail needs more than {TAIL_BEYOND}")
    rank = count - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / count, count


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, better: str, bound: float) -> dict:
    """Compare paired runs of one metric on one workload.

    parent[i] and change[i] form pair i (the runner alternates which side
    runs first). "better" when the change wins at least nine tenths of all
    pairs (ties count for neither) and the medians differ by more than the
    parent's own quartile spread; "worse" when the change median is worse
    by more than the bound and either both spreads are within the bound or
    the change loses at least nine tenths of the pairs; "unresolved" when
    a spread exceeds the bound and not every change run beats every parent
    run; otherwise "no-regression".
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("parent and change need the same, non-zero number of runs")
    sign = 1 if better == "higher" else -1

    def beats(a, b):
        return sign * (a - b) > 0

    wins = sum(beats(c, p) for p, c in zip(parent, change))
    losses = sum(beats(p, c) for p, c in zip(parent, change))
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    worse_share = sign * (pmed - cmed) / abs(pmed) if pmed else 0.0
    steady = max(spread(parent), spread(change)) <= bound
    if wins >= 0.9 * len(parent) and abs(cmed - pmed) > (p3 - p1):
        kind = "better"
    elif worse_share > bound and (steady or losses >= 0.9 * len(parent)):
        kind = "worse"
    elif not steady and not all(beats(c, p) for c in change for p in parent):
        kind = "unresolved"
    else:
        kind = "no-regression"
    return {
        "verdict": kind,
        "pairs": len(parent),
        "change_wins": wins,
        "parent_wins": losses,
        "parent": {"q1": p1, "median": pmed, "q3": p3},
        "change": {"q1": c1, "median": cmed, "q3": c3},
        "worse_by": worse_share,
    }
