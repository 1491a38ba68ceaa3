"""Polynomial types: evaluation, exponent reduction, additive polynomials,
the all-ones family, the trace, and the text grammar."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ppforge.errors import ExpansionTooLargeError, FieldError, PolyParseError, ScopeError
from ppforge.field import EXPANSION_MAX_TERMS, divisors, make_field
from ppforge.oracle import value_table
from ppforge.poly import (AdditivePoly, CyclotomicForm, FqPoly,
                          additive_commutes, expand_cyclotomic, format_poly,
                          h_d_poly, parse_additive, parse_poly, to_additive,
                          trace_poly)

F7 = make_field(7)
F9 = make_field(3, 2)
F8 = make_field(2, 3)


def test_eval_examples():
    assert all(FqPoly.x(F7).eval(a) == a for a in F7.elements())
    assert parse_poly(F7, "x^5+x^3+3*x").eval(2) == 4     # 32+8+6 mod 7
    assert all(FqPoly.zero(F7).eval(a) == 0 for a in F7.elements())


def test_construction_invariants():
    f = FqPoly(F7, (1, 2, 0, 0))
    assert f.terms == ((0, 1), (1, 2))
    assert f.degree == 1
    assert FqPoly(F7, (0, 0, 3)).terms == ((2, 3),)
    assert FqPoly.zero(F7).degree == -1
    assert FqPoly.zero(F7).is_zero()
    with pytest.raises(FieldError):
        FqPoly(F7, (7,))


def test_reduce_exponents_examples():
    assert parse_poly(F7, "x^7").reduce_exponents() == parse_poly(F7, "x")
    # x^6 is kept: it vanishes at 0 while the constant 1 does not
    assert parse_poly(F7, "x^6").reduce_exponents() == parse_poly(F7, "x^6")
    F5 = make_field(5)
    assert parse_poly(F5, "x^9").reduce_exponents() == parse_poly(F5, "x")


@pytest.mark.parametrize("p,n", [(7, 1), (3, 2), (3, 3), (7, 2), (7, 3)])
def test_reduce_exponents_preserves_map(p, n):
    fld = make_field(p, n)
    rng = random.Random(f"reduce/{p}/{n}")
    for _ in range(8):
        coeffs = {rng.randrange(3 * fld.q): rng.randrange(fld.q) for _ in range(5)}
        deg = max(coeffs)
        f = FqPoly(fld, [coeffs.get(e, 0) for e in range(deg + 1)])
        g = f.reduce_exponents()
        assert g.degree < fld.q
        assert all(f.eval(a) == g.eval(a) for a in fld.elements())


def test_h_d_examples():
    assert h_d_poly(F7, 1) == FqPoly.one(F7)
    assert h_d_poly(F7, 3) == parse_poly(F7, "x^2+x+1")
    for fld in (F7, F9):
        for d in range(1, 9):
            assert h_d_poly(fld, d).eval(1) == d % fld.p     # sum of d ones
    with pytest.raises(FieldError):
        h_d_poly(F7, 0)


@pytest.mark.parametrize("p,n", [(7, 1), (3, 2), (3, 3), (5, 2)])
def test_h_d_vanishes_off_one(p, n):
    fld = make_field(p, n)
    for d in divisors(fld.q - 1):
        h = h_d_poly(fld, d)
        for z in fld.mu_d(d):
            assert h.eval(z) == (d % fld.p if z == 1 else 0)


def test_trace_examples():
    assert trace_poly(F9).expand() == parse_poly(F9, "x^3+x")
    assert trace_poly(F8).expand() == parse_poly(F8, "x^4+x^2+x")
    assert trace_poly(F7).expand() == parse_poly(F7, "x")


@pytest.mark.parametrize("p,n", [(3, 2), (2, 3), (5, 2), (3, 3)])
def test_trace_surjects_onto_prime_field(p, n):
    fld = make_field(p, n)
    T = trace_poly(fld)
    values = {T.eval(a) for a in fld.elements()}
    assert values == set(range(p))
    for a in fld.elements():
        v = T.eval(a)
        assert fld.pow(v, p) == v


def test_additive_eval_examples():
    A = AdditivePoly(F9, (1,))
    assert all(A.eval(a) == a for a in F9.elements())
    t = 3
    assert AdditivePoly(F9, (1, 1)).eval(t) == 0   # t^3 = -t under x^2+1
    for A in (AdditivePoly(F9, (2, 5)), AdditivePoly(F8, (3, 0, 1))):
        assert A.eval(0) == 0


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (3, 4)])
def test_additivity_exhaustive(p, n):
    fld = make_field(p, n)
    rng = random.Random(f"additive/{p}/{n}")
    samples = [AdditivePoly(fld, [rng.randrange(fld.q) for _ in range(3)]) for _ in range(3)]
    samples.append(trace_poly(fld))
    for A in samples:
        vals = [A.eval(a) for a in fld.elements()]
        for a in fld.elements():
            for b in fld.elements():
                assert vals[fld.add(a, b)] == fld.add(vals[a], vals[b])


def test_additive_expand_shape():
    A = AdditivePoly(F9, (2, 0, 5))
    f = A.expand()
    assert f.terms == ((1, 2), (9, 5))
    assert all(A.eval(a) == f.eval(a) for a in F9.elements())


def test_to_additive():
    assert to_additive(parse_poly(F9, "x^3+x")) == AdditivePoly(F9, (1, 1))
    with pytest.raises(FieldError):
        to_additive(parse_poly(F9, "x^2"))
    with pytest.raises(PolyParseError):
        parse_additive(F9, "x^2+x")
    assert parse_additive(F9, "x^3+x") == trace_poly(F9)


def test_additive_commutes_examples():
    B = AdditivePoly(F9, (1, 1))
    assert additive_commutes(AdditivePoly(F9, (1,)), B)
    # the trace commutes with any additive polynomial over F_p
    for fld in (F9, F8):
        T = trace_poly(fld)
        for c0 in range(fld.p):
            for c1 in range(fld.p):
                assert additive_commutes(AdditivePoly(fld, (c0, c1)), T)
    # t*x and x^3 do not commute over F_9
    assert not additive_commutes(AdditivePoly(F9, (3,)), AdditivePoly(F9, (0, 1)))


def test_cyclotomic_form_validation():
    with pytest.raises(ScopeError):
        CyclotomicForm(0, 3, FqPoly.one(F7))
    with pytest.raises(ScopeError):
        CyclotomicForm(1, 4, FqPoly.one(F7))


def test_expand_cyclotomic_examples():
    assert expand_cyclotomic(CyclotomicForm(1, 6, FqPoly.one(F7))) == FqPoly.x(F7)
    cf = CyclotomicForm(1, 3, parse_poly(F7, "x^2+x+3"))
    assert expand_cyclotomic(cf) == parse_poly(F7, "x^5+x^3+3*x")
    cf2 = CyclotomicForm(2, 6, FqPoly.constant(F7, 4))
    assert expand_cyclotomic(cf2) == parse_poly(F7, "4*x^2")


def test_compose_and_divmod():
    g = parse_poly(F9, "x^2+3*x")
    b = parse_poly(F9, "x^3+x")
    comp = g.compose(b)
    for a in F9.elements():
        assert comp.eval(a) == g.eval(b.eval(a))
    rng = random.Random("divmod")
    for _ in range(6):
        g0 = FqPoly(F9, [rng.randrange(9) for _ in range(4)])
        d = rng.randrange(1, 7)
        prod = h_d_poly(F9, d) * g0
        quot, rem = prod.divmod(h_d_poly(F9, d))
        assert rem.is_zero() and quot == g0
    with pytest.raises(FieldError):
        g.divmod(FqPoly.zero(F9))


def test_mu_values_are_the_evals_on_mu_d_and_kept():
    # the values on mu_d of polynomials from the dense constructor and from
    # ring operations, made once per d and kept
    rng = random.Random("mu-values")
    for fld in (F7, F9, F8, make_field(13)):
        for _ in range(4):
            f = FqPoly(fld, [rng.randrange(fld.q) for _ in range(5)])
            g = parse_poly(fld, "x^3+1")
            for h in (f, f * g + FqPoly.x(fld), (f - g).shifted(3), f.substituted_power(2)):
                for d in divisors(fld.q - 1):
                    vals = h.mu_values(d)
                    assert vals == tuple(h.eval(z) for z in fld.mu_d(d))
                    assert h.mu_values(d) is vals


def test_huge_exponents_are_one_term():
    # nothing is allocated by degree: x^(10^12) is one term, and reducing
    # it is one fold
    x = FqPoly.x(F7)
    big = 10 ** 12
    assert FqPoly.monomial(F7, 3, big).terms == ((big, 3),)
    assert x.shifted(big).terms == ((big + 1, 1),)
    assert x.substituted_power(big).terms == ((big, 1),)
    assert parse_poly(F7, f"2*x^{big}+1").terms == ((0, 1), (big, 2))
    assert FqPoly.monomial(F7, 0, big).is_zero()
    assert FqPoly.zero(F7).shifted(big).is_zero()
    # x^(10^12+1) -> x^((10^12 mod 6) + 1) = x^5
    assert x.shifted(big).reduce_exponents() == FqPoly.monomial(F7, 1, 5)


def test_expansion_guard_refuses_before_allocating():
    assert len(h_d_poly(F7, EXPANSION_MAX_TERMS).terms) == EXPANSION_MAX_TERMS
    with pytest.raises(ExpansionTooLargeError, match=str(EXPANSION_MAX_TERMS)):
        h_d_poly(F7, EXPANSION_MAX_TERMS + 1)
    with pytest.raises(ExpansionTooLargeError):
        h_d_poly(F7, 2 ** 61)
    # (x+1)^(10^12) has about 10^12 terms; repeated squaring trips the
    # guard long before that
    with pytest.raises(ExpansionTooLargeError):
        FqPoly.monomial(F7, 1, 10 ** 12).compose(parse_poly(F7, "x+1"))
    assert FqPoly.monomial(F7, 1, 10 ** 12).compose(FqPoly.monomial(F7, 2, 5)) == \
        FqPoly.monomial(F7, F7.pow(2, 10 ** 12), 5 * 10 ** 12)
    # x^(10^12) / (x^2+x+1) has a quotient of about 6.7e11 terms
    with pytest.raises(ExpansionTooLargeError):
        FqPoly.monomial(F7, 1, 10 ** 12).divmod(parse_poly(F7, "x^2+x+1"))
    quot, rem = FqPoly.monomial(F7, 1, 10 ** 12).divmod(parse_poly(F7, "x^5"))
    assert quot == FqPoly.monomial(F7, 1, 10 ** 12 - 5) and rem.is_zero()


def test_parse_format_round_trip():
    cases = ["0", "1", "x", "x^2", "3*x^3+3*x", "x^5+x^3+3*x", "6*x^6+2"]
    for text in cases:
        fld = F9 if "6" in text or "3*" in text else F7
        f = parse_poly(fld, text)
        assert parse_poly(fld, format_poly(f)) == f
    # whitespace-insensitive, duplicate exponents merge
    assert parse_poly(F7, " x ^ 2 + 3 * x ^ 2 ") == parse_poly(F7, "4*x^2")
    assert parse_poly(F7, "3+4") == FqPoly.zero(F7)


def test_parse_errors():
    for bad in ("", "x^", "2**x", "x+-1", "y", "5x"):
        with pytest.raises(PolyParseError):
            parse_poly(F7, bad)
    with pytest.raises(PolyParseError):
        parse_poly(F7, "7*x")      # 7 is not an element index of F_7


def test_format_examples():
    assert format_poly(parse_poly(F9, "3*x^3+3*x")) == "3*x^3+3*x"
    assert format_poly(FqPoly.zero(F7)) == "0"
    assert format_poly(FqPoly.monomial(F7, 1, 5)) == "x^5"
    assert format_poly(FqPoly.constant(F7, 4)) == "4"


PROPERTY_FIELDS = [F7, F9, make_field(2, 10), make_field(3, 7), make_field(251, 2)]


def _terms(draw, fld, top, size):
    """Up to `size` (exponent, coefficient) pairs with exponents up to top."""
    return draw(st.dictionaries(st.integers(0, top), st.integers(0, fld.q - 1),
                                max_size=size))


def _dense(terms):
    cs = [0] * (max(terms, default=-1) + 1)
    for e, c in terms.items():
        cs[e] = c
    return cs


@st.composite
def sparse_polys(draw):
    """A field, two polynomials f and g of up to 6 terms with exponents up
    to 3q (so most are unreduced), a short low-degree s to compose with g,
    and a scalar; f is built through the dense constructor."""
    fld = draw(st.sampled_from(PROPERTY_FIELDS))
    ft = _terms(draw, fld, 3 * fld.q, 6)
    f = FqPoly(fld, _dense(ft))
    assert f.terms == tuple(sorted((e, c) for e, c in ft.items() if c))
    g = FqPoly(fld, _dense(_terms(draw, fld, 3 * fld.q, 6)))
    s = FqPoly(fld, _dense(_terms(draw, fld, 6, 3)))
    return f, g, s, draw(st.integers(0, fld.q - 1))


@settings(max_examples=80, deadline=None)
@given(sparse_polys())
def test_sparse_poly_properties(polys):
    f, g, s, c = polys
    fld = f.field
    T = fld.tables()
    assert parse_poly(fld, format_poly(f)) == f
    r = f.reduce_exponents()
    assert r.degree < fld.q
    vf, vg = value_table(f), value_table(g)
    assert np.array_equal(vf, value_table(r))
    # eval_col reduces exponents itself, through its power columns
    assert np.array_equal(vf, T.eval_col(f.terms))
    # the ring operations, point by point
    assert np.array_equal(value_table(f + g), T.add_cols(vf, vg))
    assert np.array_equal(T.add_cols(value_table(f - g), vg), vf)
    assert np.array_equal(value_table(f * g), T.mul_cols(vf, vg))
    assert np.array_equal(value_table(s.compose(g)), value_table(s)[vg])
    assert np.array_equal(value_table(f.scaled(c)), T.scalar_mul(c, vf))
    assert all(f.eval(a) == vf[a] for a in (0, 1, fld.q - 1))
    if not g.is_zero():
        quot, rem = f.divmod(g)
        assert quot * g + rem == f and rem.degree < g.degree
    # the dense constructor round trip
    assert FqPoly(fld, _dense(dict(f.terms))) == f
