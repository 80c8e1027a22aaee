import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ordstat import (
    LexTuple,
    Rank,
    Rational,
    TrialParseError,
    format_rational,
    load_trial,
    parse_rational,
    parse_trial_document,
    parse_two_sample,
)

DATA = Path(__file__).parent / "data"

F = Fraction


class TestTrialDocument:
    def test_three_outcome_roundtrip(self):
        trial, stat = load_trial(DATA / "three.json")
        assert dict(trial.outcomes) == {"a": F(1, 2), "b": F(1, 4), "c": F(1, 4)}
        assert stat["a"] == Rank(0)

    def test_decimal_prob_rejected_naming_field(self):
        with pytest.raises(TrialParseError) as err:
            load_trial(DATA / "badprob.json")
        assert err.value.field == "outcomes[0].prob"
        assert "0.33" in str(err.value)

    def test_tuple_statistic_values(self):
        trial, stat = load_trial(DATA / "tuplestat.json")
        assert stat["a"] == LexTuple((Rational(F(1, 2)), Rank(3)))

    def test_invalid_json_reports_line(self):
        with pytest.raises(TrialParseError) as err:
            parse_trial_document("{\n  bad\n}")
        assert err.value.line == 2

    def test_deep_json_nesting_is_a_parse_error(self):
        deep = "[" * 100_000 + '"1"' + "]" * 100_000
        with pytest.raises(TrialParseError, match="nested too deeply"):
            parse_trial_document('{"outcomes": [{"label": "a", "prob": "1"}], "statistic": {"a": %s}}' % deep)

    def test_deep_statistic_value_names_its_field(self):
        deep = "[" * 900 + '"1"' + "]" * 900
        with pytest.raises(TrialParseError, match="nested too deeply") as err:
            parse_trial_document('{"outcomes": [{"label": "a", "prob": "1"}], "statistic": {"a": %s}}' % deep)
        assert err.value.field == "statistic.a"

    @pytest.mark.parametrize(
        "prob, value, field",
        [
            ('"1/{big}"', "0", "outcomes[0].prob"),
            ('"{big}/{big}"', "0", "outcomes[0].prob"),
            ('"1"', '"{big}"', "statistic.a"),
            ('"1"', '["1", "-1/{big}"]', "statistic.a[1]"),
            ('"1"', "{big}", None),  # json.loads converts JSON integers before any field is read
        ],
    )
    def test_long_integer_literal_is_a_parse_error(self, prob, value, field):
        big = "1" + "0" * sys.get_int_max_str_digits()
        doc = '{"outcomes": [{"label": "a", "prob": %s}], "statistic": {"a": %s}}' % (prob, value)
        with pytest.raises(TrialParseError, match="integer literal has too many digits") as err:
            parse_trial_document(doc.replace("{big}", big))
        assert err.value.field == field

    def test_probabilities_must_sum_to_one(self):
        doc = '{"outcomes": [{"label": "a", "prob": "1/3"}], "statistic": {"a": 1}}'
        with pytest.raises(TrialParseError) as err:
            parse_trial_document(doc)
        assert err.value.field == "outcomes"

    def test_statistic_must_cover_all_outcomes(self):
        doc = (
            '{"outcomes": [{"label": "a", "prob": "1/2"}, {"label": "b", "prob": "1/2"}],'
            ' "statistic": {"a": 1}}'
        )
        with pytest.raises(TrialParseError) as err:
            parse_trial_document(doc)
        assert "undefined" in str(err.value)

    def test_statistic_unknown_outcome(self):
        doc = '{"outcomes": [{"label": "a", "prob": "1"}], "statistic": {"a": 1, "zz": 2}}'
        with pytest.raises(TrialParseError) as err:
            parse_trial_document(doc)
        assert "zz" in str(err.value)

    def test_mixed_shape_statistic(self):
        doc = (
            '{"outcomes": [{"label": "a", "prob": "1/2"}, {"label": "b", "prob": "1/2"}],'
            ' "statistic": {"a": 1, "b": "1/2"}}'
        )
        with pytest.raises(TrialParseError):
            parse_trial_document(doc)

    def test_label_with_colon_rejected(self):
        doc = '{"outcomes": [{"label": "a:b", "prob": "1"}], "statistic": {"a:b": 1}}'
        with pytest.raises(TrialParseError):
            parse_trial_document(doc)

    def test_unknown_top_level_field(self):
        with pytest.raises(TrialParseError):
            parse_trial_document('{"outcomes": [], "extra": 1}')

    def test_boolean_statistic_value_rejected(self):
        doc = '{"outcomes": [{"label": "a", "prob": "1"}], "statistic": {"a": true}}'
        with pytest.raises(TrialParseError):
            parse_trial_document(doc)


class TestRationalGrammar:
    def test_forms(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-3/4") == F(-3, 4)
        assert parse_rational("7") == F(7)

    @pytest.mark.parametrize("bad", ["0.33", "1e-3", "3/0", "3/-4", "", "a/b", "1/2/3"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(st.fractions())
    def test_format_roundtrips(self, q):
        assert parse_rational(format_rational(q)) == q


class TestTwoSampleFile:
    @pytest.mark.parametrize("value", ["{big}", "1/{big}", "-0.{big}"])
    def test_long_integer_literal_is_a_parse_error(self, value):
        big = "1" + "0" * sys.get_int_max_str_digits()
        with pytest.raises(TrialParseError, match="integer literal has too many digits") as err:
            parse_two_sample("1, x\n" + value.replace("{big}", big) + ", y\n")
        assert err.value.line == 2
        assert big not in str(err.value)

    def test_comma_delimited_with_comment(self):
        s = parse_two_sample("# header\n1.5, x\n2.5, y\n")
        assert s.xs == (F(3, 2),) and s.ys == (F(5, 2),)

    def test_whitespace_delimited(self):
        s = parse_two_sample("0.1 x\n1.25 y\n0.2 x\n")
        assert s.xs == (F(1, 10), F(1, 5))
        assert s.ys == (F(5, 4),)

    def test_first_label_is_x_group(self):
        s = parse_two_sample("5 treated\n1 control\n2 treated\n")
        assert s.xs == (F(5), F(2))

    def test_rational_values_accepted(self):
        s = parse_two_sample("3/4 x\n-1/2 y\n")
        assert s.xs == (F(3, 4),)

    def test_bad_value_reports_line(self):
        with pytest.raises(TrialParseError) as err:
            parse_two_sample("1.5 x\noops y\n")
        assert err.value.line == 2

    def test_wrong_column_count(self):
        with pytest.raises(TrialParseError):
            parse_two_sample("1.5\n")

    def test_requires_exactly_two_groups(self):
        with pytest.raises(TrialParseError):
            parse_two_sample("1 x\n2 y\n3 z\n")
        with pytest.raises(TrialParseError):
            parse_two_sample("1 x\n2 x\n")
