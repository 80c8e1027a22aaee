"""Input file parsing: trial documents (JSON) and two-sample data files.

A trial document holds ``outcomes`` (label plus exact rational probability)
and ``statistic`` (label to value). Probabilities must be written as "p" or
"p/q" with decimal integers; anything else ("0.33", floats) is rejected so
no inexact number can slip in. Statistic values are rational strings,
integer ranks, or (nested) arrays of these; all must share one shape.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .order import LexTuple, OrdValue, Rank, Rational, on_grid
from .trial import FiniteTrial, InvalidStatisticError, InvalidTrialError, Statistic
from .ranktests import TwoSample

_PROB_RE = re.compile(r"^(\d+)(?:/([1-9]\d*))?$")
_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")
# A label holds no ':', '\n' or '\r' and no outer whitespace: \s is str.isspace(), which str.strip() strips.
_LABEL_RE = re.compile(r"[^\s:](?:[^:\n\r]*[^\s:])?")
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


def _parse_literal(raw, pattern, field: str, expected: str) -> tuple:
    """The numerator and denominator of a rational literal."""
    match = isinstance(raw, str) and pattern.match(raw.strip())
    if not match:
        raise TrialParseError(f"{expected}, got {raw!r}", field=field)
    try:
        return int(match[1]), int(match[2] or 1)
    except ValueError:  # the pattern matched, so only Python's int digit limit can refuse it
        _check_digits(raw, field)
        raise


def _parse_label(raw, field: str) -> str:
    if not isinstance(raw, str) or not raw:
        raise TrialParseError(f"label must be a non-empty string, got {raw!r}", field=field)
    if not _LABEL_RE.fullmatch(raw):
        raise TrialParseError(f"label may not contain ':' or newlines or outer whitespace: {raw!r}", field=field)
    return raw


def _parse_statistic(raw) -> tuple:
    """A statistic literal's ``order.shape`` and ``order.plain`` data; an error's field is its path, like "[1][0]"."""
    if type(raw) is int:  # not a bool
        return "rank", raw
    if isinstance(raw, str):
        return "rational", _parse_literal(raw, _RATIONAL_RE, "", 'statistic value must be a rational string like "1/3"')
    if isinstance(raw, list) and raw:
        kinds, data = zip(*_parse_elements(raw))
        return ("tuple", *kinds), data
    if isinstance(raw, bool):
        raise TrialParseError("statistic value must not be a boolean", field="")
    if isinstance(raw, list):
        raise TrialParseError("tuple statistic value may not be empty", field="")
    raise TrialParseError(f"unsupported statistic value: {raw!r}", field="")


def _parse_elements(raw: list):  # an element's error gets its index only as it unwinds
    for i, v in enumerate(raw):
        try:
            yield _parse_statistic(v)
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


def parse_trial_document(text: str):
    """Parse a trial document into (FiniteTrial, Statistic), each distinct literal once and into ints."""
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
    labels, raws, probs = [], [], {}
    for i, entry in enumerate(outcomes):
        if not isinstance(entry, dict) or len(entry) != 2 or "label" not in entry or "prob" not in entry:
            raise TrialParseError("each outcome needs exactly the keys label and prob", field=f"outcomes[{i}]")
        label, raw = entry["label"], entry["prob"]
        if not (isinstance(label, str) and _LABEL_RE.fullmatch(label)):
            _parse_label(label, f"outcomes[{i}].label")
        if not (isinstance(raw, str) and raw in probs):
            probs[raw] = Fraction(*_parse_literal(raw, _PROB_RE, f"outcomes[{i}].prob",
                                                  'probability must be a nonnegative rational string like "1/2"'))
        labels.append(label)
        raws.append(raw)
    d, weights = on_grid(list(probs.values()))
    weight = dict(zip(probs, weights))
    try:
        trial = FiniteTrial._made(**FiniteTrial._checked(
            tuple(labels), [probs[raw] for raw in raws], d, [weight[raw] for raw in raws]))
    except InvalidTrialError as e:
        raise TrialParseError(str(e), field="outcomes") from None
    statistic = doc.get("statistic")
    if not isinstance(statistic, dict) or not statistic:
        raise TrialParseError("a non-empty object is required", field="statistic")
    at, literals = {}, {}
    for label, raw in statistic.items():
        if label not in trial:
            _parse_label(label, "statistic")
            raise TrialParseError(f"statistic names an unknown outcome: {label!r}", field="statistic")
        try:
            # Equal literals of other types, such as 1 and true or [1] and [1.0], get different keys.
            key = raw if type(raw) in (str, int) else (type(raw), repr(raw))
            if key not in literals:
                literals[key] = _parse_statistic(raw)
        except TrialParseError as e:
            e.field = f"statistic.{label}{e.field}"
            raise
        except RecursionError:
            raise TrialParseError("statistic value nested too deeply", field=f"statistic.{label}") from None
        at[label] = key
    missing = [label for label in trial.labels if label not in at]
    if missing:
        raise TrialParseError(f"statistic undefined on outcomes: {missing}", field="statistic")

    def values():  # one value object per distinct literal
        made = {key: _value(*literal) for key, literal in literals.items()}
        return {label: made[key] for label, key in at.items()}

    try:
        stat = Statistic._made(values, **Statistic._keyed(literals, at))
    except InvalidStatisticError as e:
        raise TrialParseError(str(e), field="statistic") from None
    return trial, stat


def load_trial(path) -> tuple:
    return parse_trial_document(Path(path).read_text(encoding="utf-8"))


def parse_two_sample(text: str) -> TwoSample:
    """Parse a two-column (value, group) delimited file into a TwoSample.

    One observation per line, comma- or whitespace-delimited; '#' starts a
    comment. Exactly two group labels must occur; the first label seen is
    the x group. Values accept decimal or rational literals.
    """
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
