"""The tuple-backed records: reports rebuilt from their three parts,
immutable fields, the conjunction verdict, the JSON form, the shared
witness-free conditions, and parameter records that validate when they
are made."""

import collections
import itertools

import pytest

from ppforge import oracle
from ppforge.additive import (AdditiveTriple, TraceTheoremParams, commuting_criterion_check,
                              necessary_conditions_check, proposition_check,
                              trace_theorem_check)
from ppforge.cyclotomic import (HermiteParams, Theorem1Params, hermite_sufficient,
                                lemma_check, theorem1_check)
from ppforge.errors import FieldError, ScopeError
from ppforge.field import divisors, make_field
from ppforge.poly import CyclotomicForm, FqPoly, additive_commutes
from ppforge.report import Condition, ConditionReport, shared_conditions

F7 = make_field(7)
F9 = make_field(3, 2)
F13 = make_field(13)


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


def _sampled_calls():
    """(criterion, args) over sampled cases of every criterion, cases with
    a witness among them."""
    seed = oracle.SAMPLE_SEED
    for fld in (F7, F13):
        for d in divisors(fld.q - 1):
            for h in oracle.lemma_h_corpus(fld, d, seed)[:4]:
                for u in range(1, fld.q):
                    yield lemma_check, (CyclotomicForm(u, d, h),)
        g0s = oracle.theorem1_g0_corpus(fld, seed)
        for d in (d for d in divisors(fld.q - 1) if d > 2):
            for g0 in (g0s[0], g0s[1], g0s[-1]):
                for u, k, b in itertools.product(range(1, fld.q), range(d), range(fld.q)):
                    yield theorem1_check, (Theorem1Params(d, u, k, b, g0),)
    for a, b, i, j in itertools.product(F7.units(), F7.units(), range(1, 7), range(1, 7)):
        yield hermite_sufficient, (HermiteParams(F7, a, b, i, j),)
    As = oracle.additive_poly_corpus(F9, seed)[::3]
    gs = oracle.arbitrary_g_corpus(F9, seed)[::4]
    for A, B in itertools.product(As, As):
        for g in gs:
            tr = AdditiveTriple(A, B, g)
            yield proposition_check, (tr,)
            yield necessary_conditions_check, (tr,)
            if additive_commutes(A, B):
                yield commuting_criterion_check, (tr,)
    for A, h in itertools.product(oracle.prime_field_additive_corpus(F9)[::2],
                                  oracle.prime_coeff_poly_corpus(F9)[::2]):
        for g in oracle.trace_g_corpus(F9, seed)[:3]:
            yield trace_theorem_check, (TraceTheoremParams(g, A, h),)


def test_shared_conditions_are_exact():
    # a witness-free condition is one of two records per label, shared by
    # every call; each report must still equal the one rebuilt from fresh
    # Condition(...) calls, and a condition with a witness is made anew by
    # every call
    shared, witnessed = {}, collections.defaultdict(list)
    for criterion, args in _sampled_calls():
        rpt, again = criterion(*args), criterion(*args)
        conds = tuple(Condition(c.label, c.holds, c.witness) for c in rpt.conditions)
        fresh = ConditionReport(conds, all(c.holds for c in conds))
        assert rpt == fresh == again and type(rpt) is ConditionReport
        assert type(rpt.verdict) is bool and rpt.witness is None
        assert ([c.to_json_dict() for c in rpt.conditions]
                == [c.to_json_dict() for c in fresh.conditions])
        for c, c_again in zip(rpt.conditions, again.conditions):
            assert type(c) is Condition and type(c.holds) is bool
            if c.witness is None:
                assert shared.setdefault((criterion, c.label, c.holds), c) is c is c_again
            else:
                assert not c.holds and c is not c_again
                witnessed[criterion] += (c, c_again)
    # the samples reach a witness in every criterion that names one, and
    # every witness-bearing condition made is its own object
    assert set(witnessed) == {lemma_check, theorem1_check, proposition_check,
                              trace_theorem_check}
    t1 = {c.witness for c in witnessed[theorem1_check]}
    assert {"b=0: 1+g(1)/b is undefined", "1+g(1)/b = 0 is zero"} < t1
    assert any(w.endswith(" is not a d-th power") for w in t1)
    made = [c for conds in witnessed.values() for c in conds]
    assert len({id(c) for c in made}) == len(made)


def test_shared_conditions_are_indexed_by_truth_value():
    pair = shared_conditions("a")
    assert pair == (Condition("a", False), Condition("a", True))
    assert pair[True] is pair[1] and pair[False].witness is None
