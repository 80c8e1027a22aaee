import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ordstat.cli
from ordstat import (
    PFunction,
    RandomizedPFunction,
    RankTestError,
    TrialParseError,
    classify_pfunction,
    files,
    induce_phat,
    load_trial,
    load_two_sample,
    parse_rational,
    parse_trial_document,
    randomized,
    ranktests,
    trial,
)
from ordstat.cli import main
from test_files import trial_documents

DATA = Path(__file__).parent / "data"

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        assert sep, f"unparseable report line: {line!r}"
        fields[key] = value
    return fields


class TestInduce:
    def test_three_outcomes(self, capsys):
        code, out, _ = run(capsys, "induce", "--trial", str(DATA / "three.json"))
        assert code == 0
        report = parse_report(out)
        assert report["phat.a"] == "1/2"
        assert report["phat.b"] == "3/4"
        assert report["phat.c"] == "1"
        assert report["classification"] == "range-exact"
        assert report["idempotent"] == "true"
        assert report["pvalue-kind.a"] == "exact"

    def test_constant_statistic(self, capsys):
        code, out, _ = run(capsys, "induce", "--trial", str(DATA / "constant.json"))
        assert code == 0
        report = parse_report(out)
        assert report["phat.a"] == report["phat.b"] == "1"

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "induce", "--trial", str(DATA / "three.json"))
        _, second, _ = run(capsys, "induce", "--trial", str(DATA / "three.json"))
        assert first == second

    def test_parse_error_exit_code(self, capsys):
        code, out, err = run(capsys, "induce", "--trial", str(DATA / "badprob.json"))
        assert code == 2
        assert out == ""
        assert "outcomes[0].prob" in err

    def test_zero_probability_flagged(self, capsys):
        code, out, _ = run(capsys, "induce", "--trial", str(DATA / "zeroprob.json"))
        assert code == 0
        report = parse_report(out)
        assert report["warnings.count"] == "1"
        assert "zero-probability" in report["warning.1"]

    def test_plain_mode(self, capsys):
        code, out, _ = run(capsys, "induce", "--plain", "--trial", str(DATA / "three.json"))
        assert code == 0
        assert out.startswith("induced p-values for 3 outcomes")
        assert "ordstat-report" not in out

    def test_theorem_failures_exit_4(self, capsys, monkeypatch):
        # A conservative p-function in place of the induced one fails both checks.
        wrong = PFunction({"a": F(2, 3), "b": F(3, 4), "c": F(1)})
        # cmd_induce resolves induce_phat in the trial layer, where check_idempotence re-induces through
        # it too: only the command's own call, on the document's rank statistic, gets the wrong answer.
        induce = trial.induce_phat
        monkeypatch.setattr(trial, "induce_phat", lambda t, stat: wrong if stat.kind == "rank" else induce(t, stat))
        code, out, err = run(capsys, "induce", "--trial", str(DATA / "three.json"))
        assert code == 4
        assert parse_report(out)["idempotent"] == "false"
        assert "theorem check failed: induced p-function not range-exact" in err
        assert "theorem check failed: induced p-function not self-induced" in err


@pytest.mark.parametrize("command, sums", [("induce", 3), ("midp", 2), ("randomize", 1)])
def test_statistic_grouped_once_per_answer(capsys, monkeypatch, command, sums):
    """Every answer sums masses through ``trial._cumulative``, and the statistic's keys once.

    induce also re-induces and classifies its p-function, midp classifies its mid-p-values.
    """
    calls = []
    original = trial._cumulative

    def spy(keys, weights):
        calls.append(list(keys))
        return original(keys, weights)

    monkeypatch.setattr(trial, "_cumulative", spy)
    monkeypatch.setattr(randomized, "_cumulative", spy)
    argv = [command, "--trial", str(DATA / "three.json")]
    if command == "randomize":
        argv += ["--outcome", "a", "--r", "1/2"]
    assert run(capsys, *argv)[0] == 0
    ft, stat = load_trial(DATA / "three.json")
    assert len(calls) == sums
    assert calls.count([stat.keys[label] for label in ft.labels]) == 1


def odd_primes(count: int) -> list:
    sieve = bytearray([1]) * 20_000
    for i in range(2, 142):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, len(sieve), i)))
    primes = [i for i in range(3, len(sieve)) if sieve[i]]
    assert len(primes) >= count
    return primes[:count]


@pytest.mark.parametrize("command, key", [
    (["induce"], "phat.c"),
    (["midp"], "midp.b"),
    (["randomize", "--outcome", "c", "--r", "1/2"], "value"),
])
def test_answer_too_long_to_print_names_its_key(capsys, tmp_path, command, key):
    """Every literal fits the int-to-str digit limit, but an answer over 2AB does not."""
    primes = odd_primes(1400)
    a, b = math.prod(primes[:700]), math.prod(primes[700:])
    limit = sys.get_int_max_str_digits()
    assert math.log10(2 * a) < limit and math.log10(2 * b) < limit < math.log10(2 * a * b)
    doc = tmp_path / "long.json"
    doc.write_text(json.dumps({
        "outcomes": [{"label": "a", "prob": f"{a - 1}/{2 * a}"}, {"label": "b", "prob": f"1/{2 * a}"},
                     {"label": "c", "prob": f"{b - 1}/{2 * b}"}, {"label": "d", "prob": f"1/{2 * b}"}],
        "statistic": {"a": 0, "c": 1, "b": 2, "d": 3},
    }))
    code, out, err = run(capsys, *command, "--trial", str(doc))
    assert (code, out) == (2, "")
    assert err == f"error: report key {key} holds an integer with too many digits to print (limit {limit})\n"


class TestRandomize:
    def test_long_r_names_the_flag(self, capsys):
        big = "1" + "0" * sys.get_int_max_str_digits()
        code, out, err = run(capsys, "randomize", "--trial", str(DATA / "three.json"), "--outcome", "a", "--r", f"1/{big}")
        assert (code, out) == (2, "")
        assert err == f"error: integer literal has too many digits (limit {sys.get_int_max_str_digits()}) (field --r)\n"

    def test_explicit_r(self, capsys):
        code, out, _ = run(
            capsys, "randomize", "--trial", str(DATA / "singleton.json"),
            "--outcome", "a", "--r", "3/10",
        )
        assert code == 0
        report = parse_report(out)
        assert report["low"] == "0"
        assert report["atom"] == "1"
        assert report["value"] == "3/10"

    def test_seeded_runs_identical(self, capsys):
        args = ("randomize", "--trial", str(DATA / "three.json"), "--outcome", "b", "--seed", "9")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        report = parse_report(first)
        value = parse_rational(report["value"])
        low, atom = parse_rational(report["low"]), parse_rational(report["atom"])
        assert low <= value <= low + atom

    def test_verify_exact_passes(self, capsys):
        code, out, _ = run(
            capsys, "randomize", "--trial", str(DATA / "three.json"),
            "--outcome", "a", "--r", "1/2", "--verify-exact",
        )
        assert code == 0
        assert parse_report(out)["verify-exact"] == "pass"

    def test_verify_exact_failure_exits_4(self, capsys, monkeypatch):
        # Every outcome's share drawn from [0, 1/2]: P[value <= eps] = 2 eps, not eps.
        wrong = RandomizedPFunction(dict.fromkeys("abc", (F(0), F(1, 2))))
        monkeypatch.setattr(randomized, "build_randomized", lambda *args: wrong)  # the name cmd_randomize resolves
        code, out, err = run(
            capsys, "randomize", "--trial", str(DATA / "three.json"),
            "--outcome", "a", "--r", "1/2", "--verify-exact",
        )
        assert code == 4
        assert parse_report(out)["verify-exact"] == "fail"
        assert "theorem check failed: exactness failed at 96 grid levels, first 1/97" in err

    def test_verify_exact_fails_between_grid_levels(self, capsys, monkeypatch, tmp_path):
        # x's share drawn from [0, 1/194]: P[value <= eps] = eps at every k/97, but not at 1/194.
        doc = tmp_path / "witness.json"
        doc.write_text(json.dumps({
            "outcomes": [{"label": "x", "prob": "1/97"}, {"label": "y", "prob": "96/97"}],
            "statistic": {"x": 0, "y": 1},
        }))
        wrong = RandomizedPFunction({"x": (F(0), F(1, 194)), "y": (F(1, 97), F(96, 97))})
        monkeypatch.setattr(randomized, "build_randomized", lambda *args: wrong)  # the name cmd_randomize resolves
        code, out, err = run(
            capsys, "randomize", "--trial", str(doc), "--outcome", "x", "--r", "1/2", "--verify-exact",
        )
        assert code == 4
        assert parse_report(out)["verify-exact"] == "fail"
        assert "theorem check failed: exactness failed at 0 grid levels; first failing knot 1/194" in err

    def test_unknown_outcome(self, capsys):
        code, _, err = run(
            capsys, "randomize", "--trial", str(DATA / "three.json"),
            "--outcome", "zz", "--r", "1/2",
        )
        assert code == 2
        assert "zz" in err

    def test_r_and_seed_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "randomize", "--trial", str(DATA / "three.json"),
                "--outcome", "a", "--r", "1/2", "--seed", "1")
        assert exc.value.code == 2


class TestMidp:
    def test_singleton_witness(self, capsys):
        code, out, _ = run(capsys, "midp", "--trial", str(DATA / "singleton.json"))
        assert code == 0
        report = parse_report(out)
        assert report["midp.a"] == "1/2"
        assert report["classification"] == "not-p-function"
        assert report["witness"] == "1/2"
        assert report["witness-mass"] == "1"

    def test_uniform_two(self, capsys):
        code, out, _ = run(capsys, "midp", "--trial", str(DATA / "uniform2.json"))
        assert code == 0
        report = parse_report(out)
        assert report["midp.a"] == "1/4"
        assert report["midp.b"] == "3/4"
        assert report["classification"] == "not-p-function"

    def test_induced_control_is_range_exact(self, capsys):
        code, out, _ = run(capsys, "induce", "--trial", str(DATA / "uniform2.json"))
        assert code == 0
        assert parse_report(out)["classification"] == "range-exact"


class TestTwoSampleCmd:
    def test_single_pair_exact(self, capsys):
        code, out, _ = run(
            capsys, "twosample", "--data", str(DATA / "pair.csv"),
            "--cascade", "wilcoxon", "--mode", "exact",
        )
        assert code == 0
        report = parse_report(out)
        assert report["pvalue"] == "1/2"
        assert report["enumerated"] == "2"

    def test_six_smallest(self, capsys):
        code, out, _ = run(
            capsys, "twosample", "--data", str(DATA / "six.csv"),
            "--cascade", "wilcoxon", "--mode", "exact",
        )
        assert code == 0
        assert parse_report(out)["pvalue"] == "1/924"

    def test_refinement_never_larger(self, capsys):
        _, base, _ = run(capsys, "twosample", "--data", str(DATA / "six.csv"),
                         "--cascade", "wilcoxon", "--mode", "exact")
        _, refined, _ = run(capsys, "twosample", "--data", str(DATA / "six.csv"),
                            "--cascade", "wilcoxon,fyt", "--mode", "exact")
        p_base = parse_rational(parse_report(base)["pvalue"])
        p_refined = parse_rational(parse_report(refined)["pvalue"])
        assert p_refined <= p_base

    def test_exact_mode_rejects_t(self, capsys):
        code, _, err = run(
            capsys, "twosample", "--data", str(DATA / "pair.csv"),
            "--cascade", "wilcoxon,t", "--mode", "exact",
        )
        assert code == 2
        assert "mc_gaussian" in err

    def test_mc_requires_seed(self, capsys):
        code, _, err = run(
            capsys, "twosample", "--data", str(DATA / "six.csv"),
            "--cascade", "wilcoxon,t", "--mode", "mc",
        )
        assert code == 2
        assert "seed" in err

    def test_mc_deterministic(self, capsys):
        args = ("twosample", "--data", str(DATA / "six.csv"), "--cascade", "wilcoxon,t",
                "--mode", "mc", "--seed", "17", "--draws", "500")
        code, first, _ = run(capsys, *args)
        assert code == 0
        _, second, _ = run(capsys, *args)
        assert first == second
        report = parse_report(first)
        assert report["draws"] == "500"

    @pytest.mark.parametrize("cascade", ["t", "wilcoxon,t"])
    def test_mc_degenerate_spread_exit_code(self, capsys, cascade):
        code, out, err = run(
            capsys, "twosample", "--data", str(DATA / "pair.csv"),
            "--cascade", cascade, "--mode", "mc", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert "spread" in err

    def test_mc_warns_imprecise_ties(self, capsys, tmp_path):
        # Ranks 1,3,6,7 of 8: laplace sums that are equal in exact arithmetic tie within the threshold.
        data = tmp_path / "ties.csv"
        data.write_text("".join(f"{v} {'x' if v in (1, 3, 6, 7) else 'y'}\n" for v in range(1, 9)))
        code, out, _ = run(capsys, "twosample", "--data", str(data), "--cascade", "laplace,t",
                           "--mode", "mc", "--seed", "662", "--draws", "600")
        assert code == 0
        report = parse_report(out)
        assert report["estimate"] == "26/75"
        assert report["warning.1"] == "imprecise score ties: 18"

    def test_mc_pvalue_never_zero(self, capsys, tmp_path):
        data = tmp_path / "apart.csv"
        data.write_text("1 x\n2 x\n3 x\n1000 y\n1001 y\n1002 y\n")
        code, out, _ = run(capsys, "twosample", "--data", str(data), "--cascade", "wilcoxon,t",
                           "--mode", "mc", "--seed", "5", "--draws", "400")
        assert code == 0
        report = parse_report(out)
        assert report["estimate"] == "0"
        assert report["pvalue"] == "1/401"

    def test_mc_extreme_scales(self, capsys, tmp_path):
        # Ranks and t do not change under positive rescaling; t in floats on
        # the raw data overflowed at 1e200 and read S = 0 at 1e-200.
        estimates = set()
        for scale in ("", "e200", "e-200"):
            data = tmp_path / f"scaled{scale}.csv"
            data.write_text(f"1{scale} x\n3{scale} x\n2{scale} y\n5{scale} y\n")
            code, out, err = run(capsys, "twosample", "--data", str(data), "--cascade", "wilcoxon,t",
                                 "--mode", "mc", "--seed", "3", "--draws", "2001")
            assert (code, err) == (0, "")
            estimates.add(parse_report(out)["estimate"])
        assert estimates == {"163/667"}

    def test_duplicate_observations(self, capsys):
        code, _, err = run(
            capsys, "twosample", "--data", str(DATA / "dup.csv"),
            "--cascade", "wilcoxon", "--mode", "exact",
        )
        assert code == 2
        assert "distinct" in err


class TestTable:
    def test_one_one(self, capsys):
        code, out, _ = run(capsys, "table", "1", "1", "wilcoxon")
        assert code == 0
        report = parse_report(out)
        assert report["values"] == "1/2 1"
        assert report["range-exact"] == "true"

    def test_six_six_prefix_and_roundtrip(self, capsys):
        code, out, _ = run(capsys, "table", "6", "6", "wilcoxon")
        assert code == 0
        report = parse_report(out)
        values = [parse_rational(v) for v in report["values"].split()]
        assert values[:9] == [F(k, 924) for k in (1, 2, 4, 7, 12, 19, 30, 43, 61)]
        assert report["reference.matches"] == "true"

    def test_size_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "table", "6", "6", "wilcoxon", "--max-enum", "10")
        assert code == 3
        assert "cap" in err

    def test_size_cap_past_int_digit_limit_exit_code(self, capsys):
        limit = sys.get_int_max_str_digits()
        assert run(capsys, "table", "8000", "8000", "wilcoxon") == (
            3, "", f"error: C(16000,8000) has more than {limit} digits and exceeds the enumeration cap 10000000\n")

    @pytest.mark.parametrize("cap", ["-1", "0"])
    def test_max_enum_below_one_exit_code(self, capsys, cap):
        code, out, err = run(capsys, "table", "3", "3", "wilcoxon", "--max-enum", cap)
        assert code == 2
        assert out == ""
        assert err == "error: --max-enum must be at least 1\n"

    def test_max_enum_one_is_a_cap(self, capsys):
        code, _, err = run(capsys, "table", "3", "3", "wilcoxon", "--max-enum", "1")
        assert code == 3
        assert "cap 1" in err

    @pytest.mark.parametrize("m,n", [("0", "3"), ("3", "0")])
    def test_empty_group_exit_code(self, capsys, m, n):
        code, out, err = run(capsys, "table", m, n, "wilcoxon")
        assert code == 2
        assert out == ""
        assert "at least one observation" in err

    @pytest.mark.parametrize(
        "m,n,cascade,precision",
        [("6", "6", "laplace,fyt", "6"), ("2", "7", "fyt,wilcoxon", "4"), ("6", "7", "wilcoxon,fyt,vdw", "4")],
    )
    def test_non_transitive_ties_fail_loudly(self, capsys, m, n, cascade, precision):
        # Score sums that tie only within the threshold (laplace ones that tie in
        # exact arithmetic differ in their last digits; fyt ones at precision 4)
        # leave the next component to reverse their exact sort order: the order
        # check fails loudly, though only grouping flags ties (ROADMAP items 1-2).
        code, out, err = run(capsys, "table", m, n, cascade, "--precision", precision)
        assert code == 4
        assert out == ""
        assert err == "theorem check failed: attainable groups are not strictly ascending\n"

    def test_fyt_large_pool(self, capsys):
        code, out, _ = run(capsys, "table", "1", "99", "fyt", "--precision", "8")
        assert code == 0
        assert parse_report(out)["distinct-values"] == "100"

    def test_fyt_quadrature_not_converged_exit_code(self, capsys, monkeypatch):
        # Two tanh-sinh levels give no error estimate below the tolerance, at any guard rung.
        monkeypatch.setattr(ranktests, "_max_degree", lambda bits: 2)
        code, out, err = run(capsys, "table", "1", "79", "fyt", "--precision", "11")
        assert code == 4
        assert out == ""
        assert err.startswith("theorem check failed: fyt quadrature at pool=80")

    def test_fyt_reference_mismatches_reported(self, capsys):
        code, out, _ = run(capsys, "table", "6", "6", "wilcoxon,fyt")
        assert code == 0
        report = parse_report(out)
        assert report["reference.matches"] == "false"
        count = int(report["reference.mismatch-count"])
        assert count == 8
        for i in range(1, count + 1):
            assert f"reference.mismatch.{i}" in report
            assert f"reference.mismatch.{i}.group.1" in report
        assert any("reference" in w for k, w in report.items() if k.startswith("warning."))


class TestDemo:
    def test_bernoulli(self, capsys):
        code, out, _ = run(capsys, "demo", "bernoulli1735")
        assert code == 0
        report = parse_report(out)
        assert report["pvalue"] == "1/2985984"
        assert report["theta-degrees"] == "15/2"

    def test_bernoulli_full_range_theta(self, capsys):
        code, out, _ = run(capsys, "demo", "bernoulli1735", "--theta", "90")
        assert code == 0
        assert parse_report(out)["pvalue"] == "1"

    def test_bernoulli_bad_theta(self, capsys):
        code, _, err = run(capsys, "demo", "bernoulli1735", "--theta", "120")
        assert code == 2

    def test_long_theta_names_the_flag(self, capsys):
        big = "1" + "0" * sys.get_int_max_str_digits()
        code, out, err = run(capsys, "demo", "bernoulli1735", "--theta", big)
        assert (code, out) == (2, "")
        assert err == f"error: integer literal has too many digits (limit {sys.get_int_max_str_digits()}) (field --theta)\n"

    def test_arbuthnott(self, capsys):
        code, out, _ = run(capsys, "demo", "arbuthnott1710")
        assert code == 0
        assert parse_report(out)["pvalue"] == f"1/{2**82}"

    def test_unknown_demo(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "demo", "laplace1823")
        assert exc.value.code == 2


# Trial files that do not parse, written with "\n" line ends; each is also tried with "\r\n" and "\r".
UNREADABLE_TRIALS = [
    b'{\n "outcomes": [\n  bad\n ]}',
    b'{"outcomes": [{"label": "a\nb", "prob": "1"}],\n "statistic": {"a": 1}}',
    b'{"outcomes": [{"label": "a", "prob": "1"}],\n "statistic": {"a": 1, "zz": 2}}',
    b'\xef\xbb\xbf{"outcomes": [{"label": "a", "prob": "1"}], "statistic": {"a": 1}}',
    b'{\n "outcomes": [{"label": "\xff", "prob": "1"}]}',
]


class TestTrialFileReading:
    """The trial commands read a file once: they digest its bytes and decode them as load_trial does."""

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    @pytest.mark.parametrize("command", ["induce", "midp"])
    def test_line_ends_do_not_change_the_report(self, capsys, monkeypatch, tmp_path, newline, command):
        reports = []
        for name, end in (("lf", "\n"), ("other", newline)):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            data = (DATA / "tuplestat.json").read_text().replace("\n", end).encode()
            Path("t.json").write_bytes(data)
            code, out, err = run(capsys, command, "--trial", "t.json")
            assert (code, err) == (0, "")
            digest = "sha256:" + hashlib.sha256(data).hexdigest()
            assert parse_report(out)["inputs-digest"] == digest
            reports.append(out.replace(digest, ""))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("data", UNREADABLE_TRIALS)
    def test_errors_are_those_of_load_trial(self, capsys, tmp_path, newline, data):
        path = tmp_path / "t.json"
        path.write_bytes(data.replace(b"\n", newline.encode()))
        with pytest.raises((TrialParseError, ValueError)) as err:
            load_trial(path)
        assert run(capsys, "midp", "--trial", str(path)) == (2, "", f"error: {err.value}\n")


UNREADABLE_SAMPLES = [
    b"1 x\n2 y\nbad x\n",
    b"1 x\n2 y\n3 z\n",
    b"1 x\n2 y z\n",
    b"1 x\n1 y\n",
    b"\xef\xbb\xbf1 x\n2 y\n",
    b"1 x\n2 \xff\n",
]


class TestTwoSampleFileReading:
    """twosample reads its file once: it digests the bytes and decodes them as load_two_sample does."""

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    @pytest.mark.parametrize(
        "mode", [["--cascade", "wilcoxon,fyt", "--mode", "exact"],
                 ["--cascade", "wilcoxon,fyt,t", "--mode", "mc", "--seed", "1", "--draws", "200"]]
    )
    def test_line_ends_do_not_change_the_report(self, capsys, monkeypatch, tmp_path, newline, mode):
        reports = []
        for name, end in (("lf", "\n"), ("other", newline)):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            data = (DATA / "six.csv").read_text().replace("\n", end).encode()
            Path("s.csv").write_bytes(data)
            code, out, err = run(capsys, "twosample", "--data", "s.csv", *mode)
            assert (code, err) == (0, "")
            digest = "sha256:" + hashlib.sha256(data).hexdigest()
            assert parse_report(out)["inputs-digest"] == digest
            reports.append(out.replace(digest, ""))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("data", UNREADABLE_SAMPLES)
    def test_errors_are_those_of_load_two_sample(self, capsys, tmp_path, newline, data):
        path = tmp_path / "s.csv"
        path.write_bytes(data.replace(b"\n", newline.encode()))
        with pytest.raises((TrialParseError, RankTestError, ValueError)) as err:
            load_two_sample(path)
        got = run(capsys, "twosample", "--data", str(path), "--cascade", "wilcoxon", "--mode", "exact")
        assert got == (2, "", f"error: {err.value}\n")


class TestReportHygiene:
    def test_rationals_roundtrip(self, capsys):
        _, out, _ = run(capsys, "table", "2", "2", "wilcoxon,fyt")
        report = parse_report(out)
        for v in report["values"].split():
            assert str(parse_rational(v)) == v

    def test_precision_flag_validated(self, capsys):
        code, _, err = run(capsys, "induce", "--trial", str(DATA / "three.json"),
                           "--precision", "2")
        assert code == 2

    @pytest.mark.parametrize("precision,want", [("100", 0), ("101", 2)])
    def test_precision_cap(self, capsys, precision, want):
        code, out, err = run(capsys, "table", "2", "2", "wilcoxon", "--precision", precision)
        assert code == want
        assert (out == "") is (want == 2)

    def test_precision_env_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("ORDSTAT_PRECISION", "abc")
        code, out, err = run(capsys, "table", "3", "3", "wilcoxon")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ORDSTAT_PRECISION")

    def test_precision_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("ORDSTAT_PRECISION", "40")
        code, out, _ = run(capsys, "induce", "--trial", str(DATA / "three.json"))
        assert code == 0
        assert parse_report(out)["precision"] == "40"


def _main(argv) -> tuple:
    """main's exit code, stdout and stderr, for tests whose hypothesis examples cannot share capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _one_line(label: str) -> bool:
    return ":" not in label and label.splitlines() == [label] and label == label.strip()


LINE_CHARS = "ab :\n\r\t\v\f\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029\u3000\xe9"


@st.composite
def labelled_documents(draw):
    """Valid trial documents but for their labels, which may hold ':', outer whitespace or any line boundary."""
    inner = st.tuples(st.sampled_from("ab\xe9"), st.sampled_from(LINE_CHARS), st.sampled_from("ab\xe9")).map("".join)
    label = st.text(st.sampled_from(LINE_CHARS), min_size=1, max_size=4) | st.text(min_size=1, max_size=3) | inner
    labels = draw(st.lists(label, min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(labels), max_size=len(labels)))
    weights[0] += not sum(weights)
    value = draw(st.sampled_from((st.integers(-2, 2), st.sampled_from(("1/2", "-1/3", "2/4", "0")))))
    return labels, json.dumps({
        "outcomes": [{"label": x, "prob": f"{w}/{sum(weights)}"} for x, w in zip(labels, weights)],
        "statistic": {x: draw(value) for x in labels},
    })


class TestPerLabelLines:
    """phat.*, midp.* and pvalue-kind.* lines are formatted once per distinct key, yet read as per-label str() would."""

    @staticmethod
    def per_label(t, stat) -> list:
        phat = induce_phat(t, stat)
        kinds = classify_pfunction(t, phat).kinds
        mids = randomized.mid_pfunction(t, randomized.build_randomized(t, stat))
        return ([f"phat.{x}: {phat[x]}" for x in t.labels], [f"pvalue-kind.{x}: {kinds[x]}" for x in t.labels],
                [f"midp.{x}: {mids[x]}" for x in t.labels])

    def test_corpus(self, trial_corpus):
        for t, stat in trial_corpus:
            phat = induce_phat(t, stat)
            report = ordstat.cli.RunReport("induce", None)
            ordstat.cli._add_pvalues(report, "phat", t.labels, phat)
            report.add_per_label("pvalue-kind", t.labels, map(classify_pfunction(t, phat).kinds.get, t.labels))
            ordstat.cli._add_pvalues(report, "midp", t.labels,
                                     randomized.mid_pfunction(t, randomized.build_randomized(t, stat)))
            assert report.fields == sum(self.per_label(t, stat), [])

    @settings(max_examples=150, deadline=None)
    @given(labelled_documents())
    @example((["x\u2028value", "y"], json.dumps({  # would forge a "value" key for a splitlines() reader
        "outcomes": [{"label": "x\u2028value", "prob": "1/2"}, {"label": "y", "prob": "1/2"}],
        "statistic": {"x\u2028value": 0, "y": 1}})))
    def test_documents(self, tmp_path_factory, document):
        labels, text = document
        path = tmp_path_factory.mktemp("doc") / "t.json"
        path.write_text(text, encoding="utf-8")
        (code, induced, _), (mid_code, mids, _) = (_main([command, "--trial", str(path)]) for command in ("induce", "midp"))
        assert code == mid_code == (0 if all(map(_one_line, labels)) else 2)
        if code:
            return
        phat, kinds, midp = self.per_label(*parse_trial_document(text))
        for out, want in ((induced, phat + kinds), (mids, midp)):
            assert out.splitlines() == out.split("\n")[:-1]  # every label stays one line
            assert [line for line in out.splitlines() if line.startswith(("phat.", "pvalue-kind.", "midp."))] == want


@settings(max_examples=200, deadline=None)
@given(trial_documents())
def test_trial_commands_on_any_document_exit_0_or_2(tmp_path_factory, text):
    """induce and midp never raise: a document they refuse exits 2 with one error line and nothing on stdout."""
    path = tmp_path_factory.mktemp("doc") / "t.json"
    path.write_text(text, encoding="utf-8")
    for command in ("induce", "midp"):
        code, out, err = _main([command, "--trial", str(path)])
        assert code in (0, 2)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.splitlines() == [err[:-1]]


# A cascade of rank components with the tail its command needs, or the five components and junk: empty
# parts, stray spaces, unknown names. No part starts with "-", which argparse would read as an option.
CASCADE_PARTS = ("wilcoxon", "fyt", "vdw", "laplace", "t", "", " fyt ", "T", "rank", "wilcoxon;t", "\xe9")


def cascades(tail: str = ""):
    ranks = st.lists(st.sampled_from(CASCADE_PARTS[:4]), min_size=1, max_size=3).map(lambda parts: ",".join(parts) + tail)
    return ranks | st.lists(st.sampled_from(CASCADE_PARTS), min_size=1, max_size=4).map(",".join)


precisions = st.sampled_from((*range(4, 13), 3)).map(str)  # 3 last: hypothesis favours the first element


@st.composite
def two_sample_files(draw) -> str:
    """Two-sample files with rationals, decimals with exponents, repeated values, comments, blank lines and CRLF."""
    value = st.one_of(
        st.integers(-30, 30).map(str),
        st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
        st.builds("{}.{}{}{}".format, st.integers(-9, 9), st.integers(0, 99), st.sampled_from("eE"), st.integers(-3, 3)),
    )
    values = draw(st.lists(value, min_size=3, max_size=9, unique=True))
    values += draw(st.sampled_from(((), (), (), (values[0],))))
    labels = ("x", "y", "z")[:draw(st.sampled_from((2, 2, 2, 2, 1, 3)))]
    groups = draw(st.permutations([labels[i % len(labels)] for i in range(len(values))]))
    lines = [draw(st.sampled_from(("{},{}", "{}, {}", "{} {}", "{}\t{}", "{},{} # note"))).format(v, g)
             for v, g in zip(values, groups)]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", "# value,group", "   "))))
    return draw(st.sampled_from(("\n", "\r\n"))).join(lines) + "\n"


@st.composite
def rank_command_runs(draw) -> tuple:
    """(argv, two-sample file text or None) for a twosample run in either mode or a table run."""
    if draw(st.booleans()):
        m, n = draw(st.integers(-1, 7)), draw(st.integers(-1, 7))
        return ["table", str(m), str(n), draw(cascades()), "--precision", draw(precisions)], None
    mode = draw(st.sampled_from(("exact", "mc")))
    argv = ["twosample", "--cascade", draw(cascades(",t" if mode == "mc" else "")), "--mode", mode,
            "--precision", draw(precisions)]
    if mode == "exact":
        argv += ["--max-enum", str(draw(st.integers(1, 300)))]
    else:
        argv += ["--draws", str(draw(st.integers(1, 200)))]
        argv += draw(st.sampled_from((["--seed", "7"], ["--seed", "11"], [])))
    return argv, draw(two_sample_files())


@settings(max_examples=200, deadline=None)
@given(rank_command_runs())
def test_rank_commands_on_any_input_exit_0_2_3_or_4(tmp_path_factory, run):
    """table and twosample never raise: a refused run prints one error line and nothing on stdout.

    table may exit 4 only on a cascade naming laplace or at precision 4-6, where the threshold order of rank-cascade
    score sums is not transitive and the ascending-groups check fails (ROADMAP item 1 for laplace; item 2 and
    FOUND 76 in CHANGES.md for the others).
    """
    argv, text = run
    if text is not None:
        path = tmp_path_factory.mktemp("data") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        argv = [*argv, "--data", str(path)]
    code, out, err = _main(argv)
    assert code in ((0, 2, 3, 4) if argv[0] == "table" else (0, 2, 3)), err
    if code == 4:
        assert "laplace" in argv[3].split(",") or argv[5] in ("4", "5", "6"), err
    if code:
        assert out == "" and err.startswith(("error: ", "theorem check failed: ")) and err.splitlines() == [err[:-1]]


class TestParserOncePerProcess:
    """main parses with one parser per process, yet reads ORDSTAT_PRECISION and the commands on every call."""

    def test_precision_env_read_on_every_call(self, capsys, monkeypatch):
        for precision in ("40", "30"):
            monkeypatch.setenv("ORDSTAT_PRECISION", precision)
            code, out, _ = run(capsys, "induce", "--trial", str(DATA / "three.json"))
            assert code == 0
            assert parse_report(out)["precision"] == precision

    def test_bad_precision_env_after_a_warm_parser(self, capsys, monkeypatch):
        assert run(capsys, "induce", "--trial", str(DATA / "three.json"))[0] == 0
        monkeypatch.setenv("ORDSTAT_PRECISION", "abc")
        assert run(capsys, "induce", "--trial", str(DATA / "three.json")) == (
            2, "", "error: ORDSTAT_PRECISION must be an integer, got 'abc'\n")

    @pytest.mark.parametrize("name", ["bernoulli1735", "arbuthnott1710"])
    def test_demo_reports_carry_no_precision(self, capsys, monkeypatch, name):
        monkeypatch.setenv("ORDSTAT_PRECISION", "40")
        assert run(capsys, "induce", "--trial", str(DATA / "three.json"))[0] == 0
        code, out, _ = run(capsys, "demo", name)
        assert code == 0
        assert "precision" not in parse_report(out)

    def test_patched_command_runs_and_stops_after_undo(self, capsys, monkeypatch):
        argv = ("induce", "--trial", str(DATA / "three.json"))
        want = run(capsys, *argv)
        calls = []
        original = ordstat.cli.cmd_induce

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ordstat.cli, "cmd_induce", counting)
        assert run(capsys, *argv) == want
        assert len(calls) == 1
        monkeypatch.undo()
        assert run(capsys, *argv) == want
        assert len(calls) == 1


def test_only_scheme_scores_is_cached():
    """perfbench/tracing.py names the span of any public layer function with cache_info as a scheme_scores build."""
    cached = [f"{mod.__name__}.{name}" for mod in (ordstat.cli, files, trial, randomized, ranktests)
              for name, value in vars(mod).items()
              if not name.startswith("_") and not isinstance(value, type) and hasattr(value, "cache_info")]
    assert cached == ["ordstat.ranktests.scheme_scores"]


GOLDEN = json.loads((DATA / "cli_golden.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_report_matches_golden(capsys, monkeypatch, entry):
    """stdout, stderr and exit code equal, byte for byte, those of tests/data/make_cli_golden.py."""
    monkeypatch.chdir(DATA)
    monkeypatch.delenv("ORDSTAT_PRECISION", raising=False)
    assert run(capsys, *entry["argv"]) == (entry["exit"], entry["stdout"], entry["stderr"])


def _is_data(path: Path) -> bool:
    """A two-sample .csv sample or a trial .json document."""
    if path.suffix == ".csv":
        return True
    if path.suffix != ".json":
        return False
    doc = json.loads(path.read_text())
    return isinstance(doc, dict) and "outcomes" in doc


# Files in tests/data that are not data; each is refused with exit 2. They are
# named, not globbed, so that a generator script or recorded answer added
# later does not bring six more CLI runs.
NOT_DATA = ("cli_golden.json", "fyt_scores.json", "make_cli_golden.py", "make_fyt_scores.py")
FIXTURES = sorted([p.name for p in DATA.iterdir() if _is_data(p)] + list(NOT_DATA))


def _deep_trial(tmp_path, depth: int) -> str:
    nested = "[" * depth + '"1"' + "]" * depth
    path = tmp_path / f"deep{depth}.json"
    path.write_text('{"outcomes": [{"label": "a", "prob": "1"}], "statistic": {"a": %s}}' % nested)
    return str(path)


class TestRobustness:
    @pytest.mark.parametrize("fixture", FIXTURES)
    @pytest.mark.parametrize("mode", ["exact", "mc"])
    @pytest.mark.parametrize("cascade", ["t", "wilcoxon", "wilcoxon,fyt,t"])
    def test_every_fixture_exits_cleanly(self, capsys, fixture, mode, cascade):
        code, out, err = run(capsys, "twosample", "--data", str(DATA / fixture), "--cascade", cascade,
                             "--mode", mode, "--seed", "1", "--draws", "200")
        if fixture in NOT_DATA:
            assert (code, out) == (2, "")
            assert err.startswith("error: ")
        else:
            assert code in (0, 2, 3, 4)

    @pytest.mark.parametrize("depth,where", [(900, "(field statistic.a)"), (100_000, "invalid JSON")])
    @pytest.mark.parametrize("command", ["induce", "midp"])
    def test_deeply_nested_statistic_exits_2(self, capsys, tmp_path, depth, where, command):
        code, out, err = run(capsys, command, "--trial", _deep_trial(tmp_path, depth))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "nested too deeply" in err and where in err
        assert err.count("\n") == 1

    def test_no_nesting_depth_escapes_as_a_traceback(self, capsys, tmp_path):
        # A value the parser accepts can still be too deep to sort and compare.
        for depth in range(250, 1000, 50):
            code, out, err = run(capsys, "induce", "--trial", _deep_trial(tmp_path, depth))
            assert code in (0, 2), depth
            assert (out == "") is (code == 2) and err.count("\n") == (code == 2), depth


# Runs in a fresh interpreter, since this one has mpmath loaded: prints the exit code and whether mpmath was imported.
MPMATH_PROBE = """
import contextlib, io, json, sys
import ordstat.cli
argv = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = ordstat.cli.main(argv) if argv else 0
    except SystemExit as e:  # --help
        code = e.code
print(json.dumps([code, "mpmath" in sys.modules]))
"""

# The standard library modules LAYERS_PROBE watches, each with the commands that load it: json to read a trial
# document, random for a seeded draw (``twosample --mode mc``) or a randomized p-value. No command loads the others.
STDLIB_WATCHED = {
    "dataclasses": (),
    "json": ("induce", "midp", "randomize"),
    "random": ("midp", "randomize", "twosample mc"),
    "statistics": (),
    "typing": (),
}

# Runs the command line in a fresh interpreter as ``python -m ordstat.cli ARGV`` does, or only ``import ordstat``
# for no ARGV: prints the exit code, the ordstat modules loaded (the command line itself runs as __main__) and
# which of the STDLIB_WATCHED modules the run added. The probe imports json only after the run. It runs under -S,
# since site can load watched modules itself (a certifi .pth loads typing and random), which would hide a command's.
LAYERS_PROBE = f"""
import contextlib, io, runpy, sys
argv, code, before = sys.argv[1:], 0, set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    if argv:
        try:
            runpy.run_module("ordstat.cli", run_name="__main__", alter_sys=True)
        except SystemExit as e:
            code = e.code
    else:
        import ordstat
added = set(sys.modules) - before
import json
print(json.dumps([code, sorted(name for name in added if name.startswith("ordstat.")),
                  sorted(added & {set(STDLIB_WATCHED)!r})]))
"""


def probe(script: str, argv: list, *options: str) -> tuple:
    """Run a probe script on ``argv`` in a fresh interpreter with ``options``: its last line's JSON, and stderr."""
    src = str(Path(ordstat.cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *options, "-c", script, *argv],
                          capture_output=True, text=True, env=env, cwd=DATA, check=True)
    return json.loads(done.stdout.splitlines()[-1]), done.stderr


# The ordstat modules each command loads: the rank commands never the trial layer, the trial commands never the
# rank tests, --help and demo neither; ``import ordstat`` (no command) loads none.
LAYERS = {
    None: [],
    "--help": ["files", "order"],
    "demo": ["files", "order"],
    "induce": ["files", "order", "trial"],
    "midp": ["files", "order", "randomized", "trial"],
    "randomize": ["files", "order", "randomized", "trial"],
    "table": ["files", "order", "ranktests"],
    "twosample": ["files", "order", "ranktests"],
}


@pytest.mark.parametrize("argv", [
    [],
    ["--help"],
    ["induce", "--trial", "three.json"],
    ["midp", "--trial", "three.json"],
    ["randomize", "--trial", "three.json", "--outcome", "a", "--r", "1/2", "--verify-exact"],
    ["demo", "bernoulli1735"],
    ["demo", "arbuthnott1710"],
    ["table", "4", "4", "wilcoxon"],
    ["twosample", "--data", "six.csv", "--mode", "exact", "--cascade", "wilcoxon"],
    ["table", "3", "3", "wilcoxon,fyt,vdw,laplace"],
    ["twosample", "--data", "six.csv", "--mode", "exact", "--cascade", "fyt,vdw"],
    ["twosample", "--data", "six.csv", "--mode", "mc", "--cascade", "wilcoxon,laplace,t", "--seed", "1", "--draws", "100"],
], ids=lambda v: " ".join(v) or "import")
def test_no_command_loads_mpmath(argv):
    """No command loads mpmath, score vectors (fyt, vdw, laplace) and t statistics included.

    A second probe runs the command as ``python -m ordstat.cli`` does and checks that it loads only the
    ordstat modules ``LAYERS`` names for it, and of the STDLIB_WATCHED modules only those listed for it.
    """
    assert probe(MPMATH_PROBE, argv)[0] == [0, False]
    command = argv[0] if argv else None
    watched_as = "twosample mc" if "mc" in argv else command
    stdlib = sorted(name for name, commands in STDLIB_WATCHED.items() if watched_as in commands)
    assert probe(LAYERS_PROBE, argv, "-S")[0] == [0, [f"ordstat.{layer}" for layer in LAYERS[command]], stdlib]


def test_rank_theorem_failure_exits_4_without_the_trial_layer():
    """The rank side's TheoremCheckError is the trial layer's class, so main maps it to 4 with only the rank layer loaded."""
    argv = ["table", "6", "6", "laplace,fyt", "--precision", "6"]  # see test_non_transitive_ties_fail_loudly
    assert probe(LAYERS_PROBE, argv, "-S") == ([4, [f"ordstat.{layer}" for layer in LAYERS["table"]], []],
                                               "theorem check failed: attainable groups are not strictly ascending\n")
