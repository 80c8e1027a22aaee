import json
from fractions import Fraction
from pathlib import Path

import pytest

import ordstat.cli
from ordstat import PFunction, RandomizedPFunction, parse_rational, randomized, ranktests, trial
from ordstat.cli import main

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
        monkeypatch.setattr(ordstat.cli, "induce_phat", lambda *args: wrong)
        code, out, err = run(capsys, "induce", "--trial", str(DATA / "three.json"))
        assert code == 4
        assert parse_report(out)["idempotent"] == "false"
        assert "theorem check failed: induced p-function not range-exact" in err
        assert "theorem check failed: induced p-function not self-induced" in err


@pytest.mark.parametrize("command, groupings", [("induce", 2), ("midp", 1), ("randomize", 1)])
def test_statistic_grouped_once_per_answer(capsys, monkeypatch, command, groupings):
    """induce groups the statistic and then re-induces its p-function; midp and randomize group once."""
    calls = []
    original = trial.value_groups

    def spy(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(trial, "value_groups", spy)
    monkeypatch.setattr(randomized, "value_groups", spy)
    argv = [command, "--trial", str(DATA / "three.json")]
    if command == "randomize":
        argv += ["--outcome", "a", "--r", "1/2"]
    assert run(capsys, *argv)[0] == 0
    assert len(calls) == groupings


class TestRandomize:
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
        monkeypatch.setattr(ordstat.cli, "build_randomized", lambda *args: wrong)
        code, out, err = run(
            capsys, "randomize", "--trial", str(DATA / "three.json"),
            "--outcome", "a", "--r", "1/2", "--verify-exact",
        )
        assert code == 4
        assert parse_report(out)["verify-exact"] == "fail"
        assert "theorem check failed: exactness failed at 96 grid levels, first 1/97" in err

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

    def test_non_transitive_ties_fail_loudly(self, capsys):
        # Laplace score sums that tie in exact arithmetic differ in their last
        # digits, so they compare EQ only within the threshold, and the fyt
        # component then reverses their exact sort order: the check fails loudly.
        code, out, err = run(capsys, "table", "6", "6", "laplace,fyt", "--precision", "6")
        assert code == 4
        assert out == ""
        assert err.startswith("theorem check failed:")

    def test_fyt_large_pool(self, capsys):
        code, out, _ = run(capsys, "table", "1", "99", "fyt", "--precision", "8")
        assert code == 0
        assert parse_report(out)["distinct-values"] == "100"

    def test_fyt_quadrature_not_converged_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(ranktests, "_FYT_GUARD_DIGITS", (15,))
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

    def test_arbuthnott(self, capsys):
        code, out, _ = run(capsys, "demo", "arbuthnott1710")
        assert code == 0
        assert parse_report(out)["pvalue"] == f"1/{2**82}"

    def test_unknown_demo(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "demo", "laplace1823")
        assert exc.value.code == 2


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
