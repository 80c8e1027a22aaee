"""Layer tracing from outside the program: wrap ordstat's public functions.

Each public function of the layer modules is replaced, in every ordstat
module namespace that holds it, by a wrapper that records a span (name,
start, end, parent span, request). Functions called once per element
(per assignment, outcome or grid point) get a counting wrapper instead, so
tracing does not swamp the work it measures. Counters are taken at the
same boundaries from the call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "files", "trial", "randomized", "ranktests")
COUNT_ONLY = frozenset(
    (
        "order.compare",
        "files.format_rational",
        "files.parse_rational",
        "randomized.randomized_pvalue",
        "randomized.mid_pvalue",
        "ranktests.format_ranks",
        "ranktests.format_tie_group",
    )
)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Counters recorded at a function boundary: name -> f(arguments, result) -> {counter: amount}.
COUNTERS = {
    "ranktests.exact_perm_pvalue": lambda a, r: {
        "ranktests.assignments_enumerated": math.comb(a["sample"].pool, a["sample"].m)
    },
    "ranktests.permutation_distribution": lambda a, r: {
        "ranktests.assignments_enumerated": math.comb(a["m"] + a["n"], a["m"])
    },
    "ranktests.attainable_set": lambda a, r: {
        "ranktests.attainable_groups": len(r.groups),
        "ranktests.residual_tie_groups": len(r.residual_ties),
    },
    "ranktests.mc_gaussian_pvalue": lambda a, r: {"ranktests.mc_draws": r.draws},
    "randomized.exactness_cdf": lambda a, r: {"randomized.exactness_levels": 1},
    "trial.value_groups": lambda a, r: {"trial.outcomes": len(a["trial"])},
    "files.parse_trial_document": lambda a, r: {"files.bytes_parsed": len(a["text"].encode("utf-8"))},
    "files.parse_two_sample": lambda a, r: {"files.bytes_parsed": len(a["text"].encode("utf-8"))},
}


class Tracer:
    """Spans and counters of one process, kept in memory until the run ends.

    ``request`` names the request the next spans belong to; the caller sets
    it. A span is (id, parent id or None, request, name, start, end), with
    times from time.perf_counter().
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # request -> counter -> amount
        self.request = None
        self._stack = []
        self._patches = []

    def install(self) -> None:
        """Import ordstat and replace its public functions by traced wrappers."""
        modules = {name: importlib.import_module(f"ordstat.{name}") for name in LAYERS + ("order",)}
        wrappers = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                qual = f"{short}.{attr}"
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                if short == "order" and qual not in COUNT_ONLY:
                    continue  # value constructors and formatters, not a layer boundary
                wrappers[id(fn)] = self._counting(qual, fn) if qual in COUNT_ONLY else self._spanning(qual, fn)
        namespaces = list(modules.values()) + [importlib.import_module("ordstat")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()

    def _counting(self, qual, fn):
        key = qual + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.request][key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, qual, fn):
        counter = COUNTERS.get(qual)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cache_info is not None:
                misses = cache_info().misses
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                name = qual
                if cache_info is not None:
                    # scheme_scores: a build is named by its scheme; a cache hit builds nothing.
                    built = cache_info().misses > misses
                    scheme = args[0] if args else kwargs["scheme"]
                    name = f"{qual}.{scheme.value}" if built else f"{qual}.cached"
                self.spans[span_id] = (span_id, parent, self.request, name, start, end)
            counts = self.counts[self.request]
            if cache_info is not None:
                counts["ranktests.score_cache.misses" if built else "ranktests.score_cache.hits"] += 1
            if counter is not None:
                counts.update(counter(_bound(fn, args, kwargs), result))
            return result

        if cache_info is not None:
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper


def self_times(spans) -> dict:
    """name -> total self time: each span's duration minus the part its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span)
    totals = Counter()
    for span in spans:
        start, end = span[4], span[5]
        covered, reach = 0.0, start
        for child in sorted(children[span[0]], key=lambda s: s[4]):
            lo, hi = max(child[4], reach), min(child[5], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[span[3]] += (end - start) - covered
    return dict(totals)
