"""The value classes' contract: construction, equality, hashing, immutability, repr and copying.

Each of the package's 18 value classes is built from a list of field values, positionally and by keyword,
and checked against an equal instance, an unequal one and instances of other classes holding the same values.
"""

import copy
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest

from ordstat.cli import RunReport
from ordstat.files import parse_trial_document
from ordstat.order import DEFAULT_PRECISION, LexTuple, Rank, Rational, Score
from ordstat.randomized import RandomizedPFunction, build_randomized
from ordstat.ranktests import (AttainableSet, CascadeStatistic, CompareContext, Component, MonteCarloResult,
                               ReferenceMismatch, ReferenceTable, TieGroup, TwoSample, attainable_set)
from ordstat.trial import FiniteTrial, PFunction, PFunctionClass, Statistic, Validity, induce_phat

HALF = Fraction(1, 2)
WILCOXON = CascadeStatistic((Component.WILCOXON,))
ATT = attainable_set(2, 2, WILCOXON)
PARTS = ATT.groups[0].parts

# class: (field names, field values, values of an unequal instance, whether hashable, whether frozen).
# A field that takes no part in equality, hash or repr is named in IGNORED.
CASES = {
    Rational: ("value", [HALF], [Fraction(1, 3)], True, True),
    Rank: ("value", [3], [4], True, True),
    Score: ("value precision", [Decimal("1.5"), 8], [Decimal("1.5"), 9], True, True),
    LexTuple: ("components", [(Rank(1), Rank(2))], [(Rank(1), Rank(3))], True, True),
    FiniteTrial: ("outcomes", [(("a", HALF), ("b", HALF))], [(("a", Fraction(1, 3)), ("b", Fraction(2, 3)))],
                  True, True),
    Statistic: ("values", [{"a": Rank(1), "b": Rank(2)}], [{"a": Rank(2), "b": Rank(1)}], False, True),
    PFunction: ("values", [{"a": HALF, "b": Fraction(1)}], [{"a": Fraction(1), "b": Fraction(1)}], False, True),
    PFunctionClass: ("kind witness witness_mass kinds", [Validity.NOT_PFUNCTION, HALF, Fraction(3, 4), {"a": "invalid"}],
                     [Validity.NOT_PFUNCTION, HALF, Fraction(1), {"a": "invalid"}], True, True),
    RandomizedPFunction: ("values", [{"a": (Fraction(0), HALF), "b": (HALF, HALF)}],
                          [{"a": (Fraction(0), Fraction(1)), "b": (Fraction(0), Fraction(1))}], False, True),
    CompareContext: ("imprecise_ties", [2], [3], False, False),
    CascadeStatistic: ("components", [(Component.WILCOXON, Component.FYT)], [(Component.FYT,)], True, True),
    TwoSample: ("xs ys", [(Fraction(1), Fraction(3)), (Fraction(2),)], [(Fraction(1),), (Fraction(2), Fraction(3))],
                True, True),
    TieGroup: ("parts members cum_count", [PARTS, ((1, 2),), 1], [PARTS, ((1, 3),), 2], True, True),
    AttainableSet: ("m n cascade precision total groups imprecise",
                    [2, 2, WILCOXON, DEFAULT_PRECISION, ATT.total, ATT.groups, False],
                    [2, 2, WILCOXON, DEFAULT_PRECISION, ATT.total, ATT.groups, True], True, True),
    ReferenceTable: ("source window_hi values", ["a table", HALF, frozenset({Fraction(1, 4)})],
                     ["a table", HALF, frozenset({Fraction(1, 3)})], True, True),
    ReferenceMismatch: ("value in_ours groups", [HALF, True, ATT.groups[:1]], [HALF, False, ATT.groups[:1]], True, True),
    MonteCarloResult: ("estimate ci95 count draws seed", [0.5, (0.25, 0.75), 5, 10, 1], [0.5, (0.25, 0.75), 5, 10, 2],
                       True, True),
    RunReport: ("command precision inputs_digest headline fields warnings theorem_failures",
                ["table", 8, "sha256:00", "p = 1/2", ["pvalue: 1/2"], ["a warning"], []],
                ["table", 9, "sha256:00", "p = 1/2", ["pvalue: 1/2"], ["a warning"], []], False, False),
}
IGNORED = {(TieGroup, "parts"), (PFunctionClass, "kinds")}
IDS = [cls.__name__ for cls in CASES]


def fields(cls) -> list:
    return CASES[cls][0].split()


def shown(cls) -> list:
    return [name for name in fields(cls) if (cls, name) not in IGNORED]


def made(cls, values=None):
    return cls(*(CASES[cls][1] if values is None else values))


def test_all_value_classes_are_covered():
    assert len(CASES) == 18


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls):
    names, values = fields(cls), CASES[cls][1]
    by_position, by_keyword = made(cls), cls(**dict(zip(names, values)))
    for name, value in zip(names, values):
        assert getattr(by_position, name) == getattr(by_keyword, name) == value
    assert by_position == by_keyword


def test_defaults():
    assert Score(Decimal("1.5")).precision == DEFAULT_PRECISION
    verdict = PFunctionClass(Validity.RANGE_EXACT)
    assert (verdict.witness, verdict.witness_mass, verdict.kinds) == (None, None, {})
    assert verdict.kinds is not PFunctionClass(Validity.RANGE_EXACT).kinds
    assert CompareContext().imprecise_ties == 0
    report, other = RunReport("table", 8), RunReport("table", None)
    assert (report.command, report.precision, other.precision) == ("table", 8, None)
    assert (report.inputs_digest, report.headline) == ("", "")
    assert report.fields == report.warnings == report.theorem_failures == []
    assert report.fields is not other.fields and report.warnings is not other.warnings
    assert report.theorem_failures is not other.theorem_failures


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_equality(cls):
    a, b, c = made(cls), made(cls), made(cls, CASES[cls][2])
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != tuple(getattr(a, name) for name in shown(cls))
    if cls is not PFunction:  # a PFunction equals any PFunction of the same values, subclasses included
        twin = type(cls.__name__, (cls,), {})(*CASES[cls][1])
        assert a != twin and twin != a


def test_value_classes_of_equal_values_differ():
    assert Rank(3) != Rational(3) and Rational(3) != Rank(3)
    assert Statistic({"a": Rational(HALF)}) != PFunction({"a": HALF})


def test_ignored_fields_take_no_part_in_equality_or_hash():
    group = TieGroup(PARTS, ((1, 2),), 1)
    assert group == TieGroup((), ((1, 2),), 1) and hash(group) == hash(TieGroup((), ((1, 2),), 1))
    verdict = PFunctionClass(Validity.CONSERVATIVE, kinds={"a": "conservative"})
    assert verdict == PFunctionClass(Validity.CONSERVATIVE) and hash(verdict) == hash(PFunctionClass(Validity.CONSERVATIVE))


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_hash(cls):
    a, b = made(cls), made(cls)
    if CASES[cls][3]:
        assert hash(a) == hash(b)
        assert len({a, b, made(cls, CASES[cls][2])}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_assignment(cls):
    a = made(cls)
    name = fields(cls)[-1]
    if CASES[cls][4]:
        for target in (name, "extra"):
            with pytest.raises(AttributeError):
                setattr(a, target, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert a == made(cls)
    else:
        for target, value in zip(fields(cls), CASES[cls][2]):
            setattr(a, target, value)
        assert a == made(cls, CASES[cls][2])


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_repr(cls):
    a = made(cls)
    assert repr(a) == f"{cls.__name__}({', '.join(f'{name}={getattr(a, name)!r}' for name in shown(cls))})"


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_copies_are_equal(cls):
    a = made(cls)
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_made_instances_equal_constructed_ones():
    text = '{"outcomes": [{"label": "a", "prob": "1/4"}, {"label": "b", "prob": "3/4"}], "statistic": {"a": 1, "b": 2}}'
    trial, stat = parse_trial_document(text)
    constructed = FiniteTrial((("a", Fraction(1, 4)), ("b", Fraction(3, 4))))
    assert trial == constructed and constructed == trial and hash(trial) == hash(constructed)
    assert stat == Statistic({"a": Rank(1), "b": Rank(2)})
    assert induce_phat(trial, stat) == PFunction({"a": Fraction(1, 4), "b": Fraction(1)})
    assert PFunction({"a": Fraction(1, 4), "b": Fraction(1)}) == induce_phat(trial, stat)
    rpf = RandomizedPFunction({"a": (Fraction(0), Fraction(1, 4)), "b": (Fraction(1, 4), Fraction(3, 4))})
    assert build_randomized(trial, stat) == rpf and rpf == build_randomized(trial, stat)
