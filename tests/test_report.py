"""The tuple-backed records: reports rebuilt from their three parts,
immutable fields, the conjunction verdict, the JSON form, and parameter
records that validate when they are made."""

import itertools

import pytest

from ppforge.cyclotomic import Theorem1Params
from ppforge.errors import FieldError, ScopeError
from ppforge.field import make_field
from ppforge.poly import CyclotomicForm, FqPoly
from ppforge.report import Condition, ConditionReport

F7 = make_field(7)


def test_report_round_trips_through_its_three_parts():
    rpt = ConditionReport.build((Condition("a", True), Condition("b", False, "w")))
    again = ConditionReport(rpt.conditions, rpt.verdict, rpt.witness)
    assert again == rpt and type(again) is ConditionReport
    flipped = ConditionReport(rpt.conditions, not rpt.verdict, rpt.witness)
    assert flipped.verdict and flipped.conditions == rpt.conditions and flipped.witness is None
    assert ConditionReport(rpt.conditions, False) == rpt


def test_records_are_immutable():
    cond = Condition("a", True)
    rpt = ConditionReport.build((cond,))
    with pytest.raises(AttributeError):
        rpt.verdict = False
    with pytest.raises(AttributeError):
        cond.holds = False
    params = Theorem1Params(3, 1, 0, 2, FqPoly.one(F7))
    with pytest.raises(AttributeError):
        params.b = 0
    assert rpt.verdict and cond.holds and params.b == 2


def test_build_is_the_conjunction():
    for holds in itertools.product((False, True), repeat=3):
        # any iterable of conditions, a generator included
        rpt = ConditionReport.build(Condition(str(i), h) for i, h in enumerate(holds))
        assert rpt.verdict is all(holds) and rpt.witness is None
        assert [c.holds for c in rpt.conditions] == list(holds)
    assert ConditionReport.build(()).verdict is True


def test_condition_json_form():
    assert Condition("a", True).to_json_dict() == {"label": "a", "holds": True}
    assert (Condition("b", False, "w").to_json_dict()
            == {"label": "b", "holds": False, "witness": "w"})
    # a falsy witness other than None is still written
    assert Condition("c", False, 0).to_json_dict() == {"label": "c", "holds": False, "witness": 0}


def test_parameter_records_validate_when_made():
    g0 = FqPoly.one(F7)
    with pytest.raises(FieldError, match=r"^b=7 is not an element index \(q=7\)$"):
        Theorem1Params(3, 1, 0, 7, g0)
    with pytest.raises(ScopeError, match=r"^need u >= 1 and k >= 0, got u=1, k=-1$"):
        Theorem1Params(3, 1, -1, 1, g0)
    with pytest.raises(ScopeError, match=r"^d=2 is out of scope"):
        Theorem1Params(2, 1, 0, 1, g0)
    with pytest.raises(ScopeError, match=r"^u must be >= 1, got 0$"):
        CyclotomicForm(0, 3, g0)
    with pytest.raises(ScopeError, match=r"^d=4 does not divide q-1=6$"):
        CyclotomicForm(1, 4, g0)
    params = Theorem1Params(d=3, u=1, k=0, b=2, g0=g0)
    assert params == Theorem1Params(3, 1, 0, 2, g0) and params.field is F7
    assert CyclotomicForm(1, 3, g0).field is F7
