"""Input file parsing: trial documents (JSON) and two-sample data files.

A trial document holds ``outcomes`` (label plus exact rational probability)
and ``statistic`` (label to value). Probabilities must be written as "p" or
"p/q" with decimal integers; anything else ("0.33", floats) is rejected so
no inexact number can slip in. Statistic values are rational strings,
integer ranks, or (nested) arrays of these; all must share one shape.
A document that passes the checks by column is parsed by them alone; only
when one fails does a per-entry pass run, and it only names the fault.
Each parser imports the layer whose objects it builds when it runs, so
reading a data file never loads the trial layer, nor a trial document the
rank layer.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import repeat, starmap
from operator import itemgetter
from pathlib import Path

from .order import LexTuple, OrdValue, Rank, Rational, on_grid

_PROB_RE = re.compile(r"^(\d+)(?:/([1-9]\d*))?$")
_PROB_MESSAGE = 'probability must be a nonnegative rational string like "1/2"'
_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")
# A label is one line of a report: no ':', no line boundary that str.splitlines() splits on, and no
# outer whitespace (\s is str.isspace(), which str.strip() strips; every line boundary is whitespace).
_LABEL_RE = re.compile(r"[^\s:](?:[^:\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*[^\s:])?")
_EXPONENT_RE = re.compile(r"[eE][-+]?(\d[\d_]*)$")  # Fraction builds the int 10**exponent


class TrialParseError(Exception):
    """Malformed trial or data file; carries the offending field or line."""

    def __init__(self, message: str, field: str | None = None, line: int | None = None):
        super().__init__(message)
        self.field, self.line = field, line

    def __str__(self) -> str:  # built when read: a statistic value's field is completed as the error unwinds
        where = ", ".join(f"{name} {at}" for name, at in (("field", self.field), ("line", self.line)) if at is not None)
        return f"{self.args[0]} ({where})" if where else self.args[0]


def parse_rational(text: str) -> Fraction:
    """Parse "p", "-p" or "p/q" (decimal integers, q > 0)."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text.strip())


def format_rational(value: Fraction) -> str:
    """Lowest-terms "p/q" (or plain "p"); round-trips through parse_rational."""
    return str(value) if isinstance(value, Fraction) else str(Fraction(value))


def _check_digits(text: str, field: str | None = None, line: int | None = None) -> str:
    """``text``, unless one of its integers has more digits than Python's int conversion limit."""
    limit = sys.get_int_max_str_digits()
    if limit and any(len(run.replace("_", "")) > limit for run in re.findall(r"[\d_]+", text)):
        raise TrialParseError(f"integer literal has too many digits (limit {limit})", field, line)
    return text


def _rationals(column, pattern, field: str, expected: str) -> list:
    """The (numerator, denominator) ints of a column of rational literals; the first bad one raises, naming field."""
    try:
        ps, qs = zip(*map(re.Match.groups, map(pattern.match, map(str.strip, column)), repeat("1")))
        return list(zip(map(int, ps), map(int, qs)))
    except (TypeError, ValueError):  # not a string, not matched, or past Python's int digit limit
        for raw in column:
            if not (isinstance(raw, str) and pattern.match(raw.strip())):
                raise TrialParseError(f"{expected}, got {raw!r}", field=field) from None
            _check_digits(raw, field)
        raise


def _check_label(raw, field: str) -> None:
    if not isinstance(raw, str) or not raw:
        raise TrialParseError(f"label must be a non-empty string, got {raw!r}", field=field)
    if not _LABEL_RE.fullmatch(raw):
        raise TrialParseError(f"label may not contain ':' or newlines or outer whitespace: {raw!r}", field=field)


def _parse_column(column) -> tuple:
    """The ``order.shape`` of a column of statistic literals and each one's ``order.plain`` data.

    Types and lengths are checked once per tuple position. A bad literal, or literals of
    different shapes, raise TrialParseError; only for a column of one does the error name
    the literal's fault, and its field the path inside it, like "[1][0]".
    """
    try:
        (kind,) = set(map(type, column))  # unpacked, not compared: a comparison counts against the recursion limit
    except ValueError:  # literals of more than one type
        kind = None
    if kind is int:  # JSON true and false are bools, not ints
        return "rank", column
    if kind is str:
        return "rational", _rationals(column, _RATIONAL_RE, "", 'statistic value must be a rational string like "1/3"')
    if kind is list and all(column):  # lists of different lengths stop _positions
        kinds, data = zip(*_positions(column))
        return ("tuple", *kinds), list(zip(*data))
    if column[1:]:  # parsed one at a time, the first bad literal names itself
        raise TrialParseError("statistic literals are bad or differ in shape")
    (raw,) = column
    if isinstance(raw, bool):
        raise TrialParseError("statistic value must not be a boolean", field="")
    if isinstance(raw, list):
        raise TrialParseError("tuple statistic value may not be empty", field="")
    raise TrialParseError(f"unsupported statistic value: {raw!r}", field="")


def _positions(column):  # a position's error gets its index only as it unwinds
    for i, part in enumerate(zip(*column, strict=True)):
        try:
            yield _parse_column(part)
        except TrialParseError as e:
            e.field = f"[{i}]{e.field}"
            raise


def _value(kind, data) -> OrdValue:
    """The value of a parsed statistic literal."""
    if kind == "rank":
        return Rank(data)
    if kind == "rational":
        return Rational(Fraction(*data))
    return LexTuple(tuple(_value(k, d) for k, d in zip(kind[1:], data)))


def _outcome_columns(outcomes: list) -> tuple:
    """The outcomes' labels and probability literals, and each distinct literal's Fraction, checked by column.

    Only when a bulk check fails does the per-outcome loop run, to name the first bad outcome.
    """
    try:
        if set(map(type, outcomes)) == {dict} and set(map(len, outcomes)) == {2}:
            labels, raws = tuple(map(itemgetter("label"), outcomes)), list(map(itemgetter("prob"), outcomes))
            if set(map(type, labels)) == {str} and all(map(_LABEL_RE.fullmatch, labels)):
                probs = dict.fromkeys(raws)
                fractions = starmap(Fraction, _rationals(probs, _PROB_RE, "outcomes", _PROB_MESSAGE))
                return labels, raws, dict(zip(probs, fractions))
    except (KeyError, TypeError, ValueError, TrialParseError):  # a missing key, an unhashable or a bad probability
        pass
    for i, entry in enumerate(outcomes):
        if not isinstance(entry, dict) or len(entry) != 2 or "label" not in entry or "prob" not in entry:
            raise TrialParseError("each outcome needs exactly the keys label and prob", field=f"outcomes[{i}]")
        _check_label(entry["label"], f"outcomes[{i}].label")
        _rationals([entry["prob"]], _PROB_RE, f"outcomes[{i}].prob", _PROB_MESSAGE)
    raise AssertionError("a bulk check failed on outcomes that pass one by one")


def parse_trial_document(text: str):
    """Parse a trial document into (FiniteTrial, Statistic), each distinct literal once and into ints.

    Columns are checked in bulk; an error names the first bad entry in document order.
    """
    import json

    from .trial import FiniteTrial, InvalidStatisticError, InvalidTrialError, Statistic

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise TrialParseError(f"invalid JSON: {e.msg}", line=e.lineno) from None
    except RecursionError:
        raise TrialParseError("invalid JSON: nested too deeply") from None
    except ValueError:  # json.loads' int() refused a long integer literal; no field is known yet
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
    labels, raws, probs = _outcome_columns(outcomes)
    d, weights = on_grid(list(probs.values()))
    weight = dict(zip(probs, weights))
    try:
        trial = FiniteTrial._made(**FiniteTrial._checked(
            labels, list(map(probs.__getitem__, raws)), d, list(map(weight.__getitem__, raws))))
    except InvalidTrialError as e:
        raise TrialParseError(str(e), field="outcomes") from None
    statistic = doc.get("statistic")
    if not isinstance(statistic, dict) or not statistic:
        raise TrialParseError("a non-empty object is required", field="statistic")
    raw_values, column = list(statistic.values()), None
    types = set(map(type, raw_values))
    if types in ({int}, {str}, {list}) and trial._prob.keys() == statistic.keys():
        # Both passes parse literals from this frame, so a deep value gives up at the same depth in either.
        try:
            keys = list(map(repr, raw_values)) if types == {list} else raw_values
            literals = dict(zip(keys, raw_values))
            kind, column = _parse_column(list(literals.values()))
        except (TrialParseError, RecursionError, ValueError):
            pass
    if column is None:  # a bulk check failed: this pass only names the fault, as a parse of each entry would
        shapes = set()
        for label, raw in statistic.items():
            if label not in trial:
                _check_label(label, "statistic")
                raise TrialParseError(f"statistic names an unknown outcome: {label!r}", field="statistic")
            try:
                shapes.add(_parse_column([raw])[0])
            except TrialParseError as e:
                e.field = f"statistic.{label}{e.field}"
                raise
            except RecursionError:
                raise TrialParseError("statistic value nested too deeply", field=f"statistic.{label}") from None
        if len(statistic) < len(trial):
            missing = [label for label in trial.labels if label not in statistic]
            raise TrialParseError(f"statistic undefined on outcomes: {missing}", field="statistic")
        try:  # every label is known and every literal parses alone, so the shapes differ
            Statistic._keyed(shapes, {})
        except InvalidStatisticError as e:
            raise TrialParseError(str(e), field="statistic") from None
        raise AssertionError("a bulk check failed on a statistic that passes one by one")
    literals, at = dict(zip(literals, column)), dict(zip(statistic, keys))
    held = Statistic._keyed({kind}, literals, at)

    def values():  # one value object per distinct literal
        made = {key: _value(kind, data) for key, data in literals.items()}
        return {label: made[key] for label, key in at.items()}

    return trial, Statistic._made(values, **held)


def load_trial(path) -> tuple:
    return parse_trial_document(Path(path).read_text(encoding="utf-8"))


def parse_two_sample(text: str) -> TwoSample:
    """Parse a two-column (value, group) delimited file into a TwoSample.

    One observation per line, comma- or whitespace-delimited; '#' starts a
    comment. Exactly two group labels must occur; the first label seen is
    the x group. Values accept decimal or rational literals.
    """
    from .ranktests import TwoSample

    groups: dict = {}
    order = []
    limit = sys.get_int_max_str_digits()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")] if "," in line else line.split()
        if len(parts) != 2:
            raise TrialParseError("expected two columns: value and group label", line=lineno)
        value_text, group = parts
        try:
            exponent = _EXPONENT_RE.search(_check_digits(value_text, line=lineno))
            if limit and exponent and int(exponent[1].replace("_", "")) > limit:
                raise TrialParseError(f"exponent gives an integer with too many digits (limit {limit})", line=lineno)
            value = Fraction(value_text)
        except (ValueError, ZeroDivisionError):
            raise TrialParseError(f"not an exact value: {value_text!r}", line=lineno) from None
        if group not in groups:
            groups[group] = []
            order.append(group)
        groups[group].append(value)
    if len(order) != 2:
        raise TrialParseError(f"expected exactly two group labels, found {len(order)}: {order}")
    return TwoSample(tuple(groups[order[0]]), tuple(groups[order[1]]))


def load_two_sample(path) -> TwoSample:
    return parse_two_sample(Path(path).read_text(encoding="utf-8"))
