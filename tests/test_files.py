import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ordstat import (
    FiniteTrial,
    InvalidStatisticError,
    InvalidTrialError,
    LexTuple,
    RandomizedPFunction,
    Rank,
    Rational,
    Statistic,
    TrialParseError,
    build_randomized,
    exactness_sweep,
    format_rational,
    induce_phat,
    load_trial,
    mid_pfunction,
    parse_rational,
    parse_trial_document,
    parse_two_sample,
)
from ordstat.files import _LABEL_RE, _check_digits
from ordstat.trial import value_groups

DATA = Path(__file__).parent / "data"

F = Fraction


# The trial parser as it was when it parsed every literal at each of its
# occurrences: the reference that parse_trial_document must equal, results,
# messages and fields alike.
_REF_PROB_RE = re.compile(r"^(\d+)(?:/([1-9]\d*))?$")
_REF_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def _ref_literal(raw, pattern, field, expected):
    match = isinstance(raw, str) and pattern.match(raw.strip())
    if not match:
        raise TrialParseError(f"{expected}, got {raw!r}", field=field)
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except ValueError:
        _check_digits(raw, field)
        raise


def _ref_label(raw, field):
    if not isinstance(raw, str) or not raw:
        raise TrialParseError(f"label must be a non-empty string, got {raw!r}", field=field)
    if ":" in raw or raw.splitlines() != [raw] or raw != raw.strip():  # one report line, whatever reads it
        raise TrialParseError(
            f"label may not contain ':' or newlines or outer whitespace: {raw!r}", field=field
        )
    return raw


def _ref_value(raw, field):
    if isinstance(raw, bool):
        raise TrialParseError("statistic value must not be a boolean", field=field)
    if isinstance(raw, int):
        return Rank(raw)
    if isinstance(raw, str):
        return Rational(_ref_literal(raw, _REF_RATIONAL_RE, field,
                                     'statistic value must be a rational string like "1/3"'))
    if isinstance(raw, list):
        if not raw:
            raise TrialParseError("tuple statistic value may not be empty", field=field)
        return LexTuple(tuple(_ref_value(v, f"{field}[{i}]") for i, v in enumerate(raw)))
    raise TrialParseError(f"unsupported statistic value: {raw!r}", field=field)


def reference_parse(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise TrialParseError(f"invalid JSON: {e.msg}", line=e.lineno) from None
    except RecursionError:
        raise TrialParseError("invalid JSON: nested too deeply") from None
    except ValueError:
        _check_digits(text)
        raise
    if not isinstance(doc, dict):
        raise TrialParseError("trial document must be a JSON object")
    unknown = sorted(set(doc) - {"outcomes", "statistic"})
    if unknown:
        raise TrialParseError(f"unknown top-level fields: {unknown}")
    outcomes = doc.get("outcomes")
    if not isinstance(outcomes, list) or not outcomes:
        raise TrialParseError("a non-empty list is required", field="outcomes")
    pairs = []
    for i, entry in enumerate(outcomes):
        field = f"outcomes[{i}]"
        if not isinstance(entry, dict) or set(entry) != {"label", "prob"}:
            raise TrialParseError("each outcome needs exactly the keys label and prob", field=field)
        label = _ref_label(entry["label"], f"{field}.label")
        prob = _ref_literal(entry["prob"], _REF_PROB_RE, f"{field}.prob",
                            'probability must be a nonnegative rational string like "1/2"')
        pairs.append((label, prob))
    try:
        trial = FiniteTrial(tuple(pairs))
    except InvalidTrialError as e:
        raise TrialParseError(str(e), field="outcomes") from None
    statistic = doc.get("statistic")
    if not isinstance(statistic, dict) or not statistic:
        raise TrialParseError("a non-empty object is required", field="statistic")
    values = {}
    for label, raw in statistic.items():
        label = _ref_label(label, "statistic")
        if label not in trial:
            raise TrialParseError(f"statistic names an unknown outcome: {label!r}", field="statistic")
        try:
            values[label] = _ref_value(raw, f"statistic.{label}")
        except RecursionError:
            raise TrialParseError("statistic value nested too deeply", field=f"statistic.{label}") from None
    missing = [label for label in trial.labels if label not in values]
    if missing:
        raise TrialParseError(f"statistic undefined on outcomes: {missing}", field="statistic")
    try:
        stat = Statistic(values)
    except InvalidStatisticError as e:
        raise TrialParseError(str(e), field="statistic") from None
    return trial, stat


def parse_result(parse, text):
    """What a parser makes of a document: the trial and statistic, or the error's message, field and line."""
    try:
        trial, stat = parse(text)
    except TrialParseError as e:
        return "error", str(e), e.field, e.line
    return "parsed", trial.outcomes, trial.weights, trial.denominator, stat.values


LONG_INT = "__long_int__"  # a JSON integer past Python's int conversion limit, put in after json.dumps
LONG_DIGITS = "1" + "0" * sys.get_int_max_str_digits()
BAD_VALUES = (True, False, 0.5, 2.0, "0.5", [], {}, None, "1/0", "1/-2", "", LONG_INT, "1/" + LONG_DIGITS,
              "-" + LONG_DIGITS, [1, True], [[]])
BAD_LABELS = ("a:b", " o", "o ", "\x1co", "o\x1f", "\x85", "o\xa0", "\u2028", "o\u2028p", "", "o\n", "o\rp", 7, None)
TWO_OUTCOMES = '{"outcomes": [{"label": "a", "prob": "1/2"}, {"label": "b", "prob": "1/2"}], "statistic": {"a": %s, "b": %s}}'
RATIONAL_LITERALS = ("1/2", "2/4", " 1/2", "-1/3", "-2/6", "0", "-0", "0/5", " 3", "6/2", "-7")


@st.composite
def trial_documents(draw):
    """Trial documents whose probabilities and values repeat, often spelled differently, with bad entries put in.

    Probabilities are k/d spelled several ways, with k from 0 to 3, so most
    outcomes share one; the statistic takes at most three distinct rational,
    rank or [rank, [rational, rank]] values. Up to three bad entries replace
    a label, probability, outcome, value (one of another shape among them),
    tuple component or statistic key, add an unknown key, or drop a
    statistic entry.
    """
    n = draw(st.integers(1, 8))
    ks = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    ks[0] += not sum(ks)
    d = sum(ks)

    def spell(k):
        q = F(k, d)
        whole = (str(q.numerator),) if q.denominator == 1 else ()
        return draw(st.sampled_from((f"{k}/{d}", f"{2 * k}/{2 * d}", f" {k}/{d}", f"{k}/{d} ",
                                     f"{q.numerator}/{q.denominator}") + whole))

    labels = [draw(st.sampled_from(("o", "x y", "\xe9", "a-b/c"))) + str(i) for i in range(n)]
    outcomes = [{"label": label, "prob": spell(k)} for label, k in zip(labels, ks)]
    rank, rational = st.integers(-2, 2), st.sampled_from(RATIONAL_LITERALS)
    value = draw(st.sampled_from((rank, rational, st.tuples(rank, rational, rank).map(lambda t: [t[0], [t[1], t[2]]]))))
    pool = draw(st.lists(value, min_size=1, max_size=3))
    statistic = {label: draw(st.sampled_from(pool)) for label in draw(st.permutations(labels))}
    doc = {"outcomes": outcomes, "statistic": statistic}
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        where = draw(st.sampled_from(("label", "prob", "outcome", "unknown") + ("value", "component", "key", "missing") * 2))
        if where == "label" and isinstance(outcomes[i], dict):
            outcomes[i]["label"] = draw(st.sampled_from(BAD_LABELS + tuple(labels)))
        elif where == "prob" and isinstance(outcomes[i], dict):
            outcomes[i]["prob"] = draw(st.sampled_from(BAD_VALUES + ("-1/4", "3", str(d))))
        elif where == "outcome":
            outcomes[i] = draw(st.sampled_from(("o", 5, [], {"label": "o"}, {"label": "o", "prob": "1", "extra": 1})))
        elif where == "value" and labels[i] in statistic:
            statistic[labels[i]] = draw(st.sampled_from(BAD_VALUES + (1, "1/3", [1, ["1/2", 0]], [1])))
        elif where == "component" and isinstance(statistic.get(labels[i]), list) and statistic[labels[i]]:
            statistic[labels[i]] = [statistic[labels[i]][0], [draw(st.sampled_from(BAD_VALUES)), 0]]
        elif where == "key":
            statistic[draw(st.sampled_from(BAD_LABELS[:-2] + ("zz",)))] = pool[0]
        elif where == "unknown":
            doc[draw(st.sampled_from(("extra", "outcomes ")))] = 1
        elif where == "missing":
            statistic.pop(labels[i], None)
    return json.dumps(doc).replace(json.dumps(LONG_INT), LONG_DIGITS)


@st.composite
def tuple_documents(draw):
    """Valid documents of up to 40 outcomes whose tuple statistic takes many distinct values.

    One shape per document: [rank, [rational, rank]], [rational, rank] or
    [[[rational], rank], [rational]]. Rationals are p/q for q up to 12, some
    spelled unreduced, so equal values spelled apart and many distinct
    values occur in one document.
    """
    n = draw(st.integers(1, 40))
    weights = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    weights[0] += not sum(weights)
    rank = st.integers(-3, 3)
    rational = st.builds(lambda p, q, k: f"{p * k}/{q * k}", st.integers(-6, 6), st.integers(1, 12),
                         st.sampled_from((1, 1, 2, 5)))
    value = draw(st.sampled_from((
        st.tuples(rank, rational, rank).map(lambda t: [t[0], [t[1], t[2]]]),
        st.tuples(rational, rank).map(list),
        st.tuples(rational, rank, rational).map(lambda t: [[[t[0]], t[1]], [t[2]]]),
    )))
    pool = draw(st.lists(value, min_size=1, max_size=n))
    labels = [f"o{i}" for i in range(n)]
    return json.dumps({
        "outcomes": [{"label": label, "prob": f"{w}/{sum(weights)}"} for label, w in zip(labels, weights)],
        "statistic": {label: draw(st.sampled_from(pool)) for label in draw(st.permutations(labels))},
    })


LEVELS = [F(k, 12) for k in range(13)]


def answers(trial, stat):
    """What the trial kernel makes of a parsed document."""
    rpf = build_randomized(trial, stat)
    return (value_groups(trial, stat), induce_phat(trial, stat).values, exactness_sweep(rpf, trial, LEVELS),
            mid_pfunction(trial, rpf).values, rpf.values)


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

    @pytest.mark.parametrize(
        "statistic, field, message",
        [
            # a bad element three levels down
            ('{"a": ["1", [["1", "2", true]]], "b": ["1", [["1", "2", "3"]]]}', "statistic.a[1][0][2]",
             "must not be a boolean"),
            # one bad literal under two labels: the first in the document is named
            ('{"b": ["1", "x/2"], "a": ["1", "x/2"]}', "statistic.b[1]", "rational string"),
            # a digit run past Python's int conversion limit two levels down
            ('{"a": ["1", ["1{zeros}"]], "b": ["1", ["2"]]}', "statistic.a[1][0]",
             "integer literal has too many digits"),
        ],
    )
    def test_nested_error_names_its_element(self, statistic, field, message):
        doc = ('{"outcomes": [{"label": "a", "prob": "1/2"}, {"label": "b", "prob": "1/2"}], "statistic": %s}'
               % statistic.replace("{zeros}", "0" * sys.get_int_max_str_digits()))
        got = parse_result(parse_trial_document, doc)
        assert got == parse_result(reference_parse, doc)
        assert got[2] == field
        assert message in got[1] and got[1].endswith(f" (field {field})")

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

    @settings(max_examples=400, deadline=None)
    @given(trial_documents())
    @example(TWO_OUTCOMES % ("1", "true"))  # equal in Python (True == 1), told apart by the cache keys
    @example(TWO_OUTCOMES % ("[0, 1]", "[0, true]"))
    @example(TWO_OUTCOMES % ("[1, [0]]", "[1.0, [false]]"))
    # The first bad literal in document order is named, not the first bad tuple position.
    @example(TWO_OUTCOMES % ('[1, "x"]', '["y", 2]'))  # statistic.a[1]
    @example('{"outcomes": [{"label": "a", "prob": "1/2"}, {"label": "b", "prob": "1/2"}],'
             ' "statistic": {"b": "zz", "a": [1]}}')  # statistic.b
    @example(TWO_OUTCOMES % ("[1]", '["1/2"]'))  # the shape error, raised only once every literal parses
    @example('{"outcomes": [{"label": "a", "prob": "1/2"}, {"label": "a", "prob": "1/4"},'
             ' {"label": "c", "prob": "0.25"}], "statistic": {"a": 1, "c": 2}}')  # outcomes[2].prob, not the duplicate
    @example('{"outcomes": [{"label": "a", "prob": "1/2"}, {"label": "b", "prob": ["1/2"]}],'
             ' "statistic": {"a": 1, "b": 2}}')  # an unhashable probability: outcomes[1].prob
    def test_parser_equals_reference(self, text):
        assert parse_result(parse_trial_document, text) == parse_result(reference_parse, text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(trial_documents(), tuple_documents()))
    def test_answers_equal_reference(self, text):
        """The parser's keys and weights give what the public constructors' give, on every document both accept."""
        try:
            got, want = parse_trial_document(text), reference_parse(text)
        except TrialParseError:
            return
        assert answers(*got) == answers(*want)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(trial_documents(), tuple_documents()))
    def test_split_on_the_grid_equals_split_given_as_fractions(self, text):
        try:
            trial, stat = parse_trial_document(text)
        except TrialParseError:
            return
        held = build_randomized(trial, stat)
        given = RandomizedPFunction(dict(build_randomized(trial, stat).values))
        assert exactness_sweep(held, trial, LEVELS) == exactness_sweep(given, trial, LEVELS)
        assert mid_pfunction(trial, held).values == mid_pfunction(trial, given).values
        assert [(held.low(x), held.atom(x)) for x in trial.labels] == [(given.low(x), given.atom(x)) for x in trial.labels]
        assert held.values == given.values

    def test_repeated_literals_share_one_object(self):
        trial, stat = load_trial(DATA / "ties200.json")
        assert len({id(prob) for _, prob in trial.outcomes}) == 7  # one per spelling
        assert len({id(stat[label]) for label in trial.labels}) == 44
        assert parse_result(parse_trial_document, (DATA / "ties200.json").read_text()) == parse_result(
            reference_parse, (DATA / "ties200.json").read_text())


def _accepts_label(label) -> bool:
    try:
        _ref_label(label, "f")
    except TrialParseError:
        return False
    return True


class TestLabelPattern:
    """The label pattern accepts exactly the labels the character-scan rule of _ref_label accepts."""

    def test_agrees_on_every_whitespace_character(self):
        spaces = [ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace()]
        assert {"\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028"} <= set(spaces)
        for ch in spaces + [":", "a", "\xe9", "\x00", "\x1b", "\u200b", "\ufeff"]:
            for label in (ch, "a" + ch, ch + "a", "a" + ch + "b", ch + ch):
                assert bool(_LABEL_RE.fullmatch(label)) is _accepts_label(label), repr(label)

    @given(st.text(alphabet=st.sampled_from("ab :\n\r\t\x1c\x1f\x85\xa0\u2028\u3000\xe9")) | st.text())
    def test_agrees_on_text(self, label):
        assert bool(_LABEL_RE.fullmatch(label)) is _accepts_label(label)


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
    # Fraction would build 10**exponent: an exponent past the digit limit is refused before it is read.
    @pytest.mark.parametrize("value", ["{big}", "1/{big}", "-0.{big}", "1e{over}", "1e-{over}", "1e999999999"])
    def test_long_integer_literal_is_a_parse_error(self, value):
        limit = sys.get_int_max_str_digits()
        big = "1" + "0" * limit
        message = "exponent gives an integer with" if "e" in value else "integer literal has"
        with pytest.raises(TrialParseError, match=f"{message} too many digits") as err:
            parse_two_sample("1, x\n" + value.replace("{big}", big).replace("{over}", str(limit + 1)) + ", y\n")
        assert err.value.line == 2
        assert big not in str(err.value)

    def test_exponent_at_the_digit_limit_is_read(self):
        limit = sys.get_int_max_str_digits()
        s = parse_two_sample(f"1e{limit} x\n1e-{limit} y\n")
        assert s.xs == (F(10) ** limit,) and s.ys == (F(1, 10**limit),)

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
