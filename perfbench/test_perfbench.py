"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import gen
import oracle
import stats
import tracing


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 7) for n in range(1, 7)])
def test_rank_sum_oracle_matches_brute_force(m, n):
    sums = Counter(sum(c) for c in itertools.combinations(range(1, m + n + 1), m))
    total = math.comb(m + n, m)
    cum, want = 0, []
    for w in sorted(sums):
        cum += sums[w]
        want.append((w, cum))
    assert oracle.rank_sum_cdf(m, n) == want
    assert oracle.wilcoxon_attainable(m, n) == [Fraction(c, total) for _, c in want]
    for w, c in want:
        assert oracle.wilcoxon_pvalue(m, n, w) == Fraction(c, total)
        lo, hi = oracle.wilcoxon_bracket(m, n, w)
        assert hi - lo == Fraction(sums[w], total)


def _span(sid, parent, start, end, name=None):
    return (sid, parent, (0, 0), name or f"s{sid}", start, end)


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, None, 0.0, 10.0, "root"),
        _span(1, 0, 1.0, 3.0, "child"),
        _span(2, 0, 4.0, 6.0, "child"),
        _span(3, 2, 4.5, 5.0, "leaf"),
    ]
    got = tracing.self_times(spans)
    assert got["root"] == pytest.approx(6.0)
    assert got["child"] == pytest.approx(2.0 + 1.5)
    assert got["leaf"] == pytest.approx(0.5)


def test_self_time_clips_overlapping_and_overhanging_children():
    spans = [
        _span(0, None, 0.0, 4.0, "root"),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),  # overlaps s1 and runs past the parent's end
    ]
    assert tracing.self_times(spans)["root"] == pytest.approx(1.0)


def test_self_time_of_a_span_without_children_is_its_duration():
    assert tracing.self_times([_span(0, None, 2.0, 2.25, "x")]) == {"x": pytest.approx(0.25)}


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(range(10))
    value, pct, count = stats.tail_percentile(range(11))
    assert (value, count) == (0, 11)
    assert pct == pytest.approx(100 / 11)


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = list(range(100))
    random.Random(3).shuffle(samples)
    value, pct, count = stats.tail_percentile(samples)
    assert value == 89 and pct == 90.0 and count == 100
    assert sum(s > value for s in samples) == stats.TAIL_BEYOND


def test_answers_ignore_non_answer_keys():
    report = "ordstat-report: 1\npvalue-kind.a: exact\nphat.a: 1/2\npvalue: 3/7\nnew-field: 9\n"
    assert oracle.answers(report) == {"phat.a": "1/2", "pvalue": "3/7"}


def test_verdict_rules():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    faster = [x * 0.8 for x in parent]
    assert stats.verdict(parent, faster, "lower", 0.1)["verdict"] == "better"
    assert stats.verdict(parent, [x * 1.2 for x in parent], "lower", 0.1)["verdict"] == "worse"
    assert stats.verdict(parent, list(parent), "lower", 0.1)["verdict"] == "no-regression"
    noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 1.0, 0.9, 1.1, 1.0]
    assert stats.verdict(parent, noisy, "lower", 0.1)["verdict"] == "unresolved"
    # A wide spread does not hide a regression that loses (at least) nine pairs in ten.
    assert stats.verdict(noisy, [2 * x for x in noisy], "lower", 0.1)["verdict"] == "worse"
    assert stats.verdict(noisy, [x * 0.5 for x in noisy], "higher", 0.1)["verdict"] == "worse"


def test_generator_is_seeded_and_samples_are_distinct():
    a = gen.two_sample(random.Random(5), 6, 6)
    b = gen.two_sample(random.Random(5), 6, 6)
    assert a["text"] == b["text"]
    pooled = a["xs"] + a["ys"]
    assert len(set(pooled)) == 12
    assert sorted(pooled).index(min(a["xs"])) + 1 == a["ranks"][0]


def test_trial_oracle_on_a_small_trial():
    doc = gen.trial_document(random.Random(1), 50, "tuple", 0.5)
    phat = oracle.induced(doc["probs"], doc["keys"])
    assert oracle.classify(doc["probs"], phat) == "range-exact"
    for label, (low, atom) in oracle.low_and_atom(doc["probs"], doc["keys"]).items():
        assert low + atom == phat[label]
