"""Multiplicative-coset criteria: the two-condition reduction, the
four-condition family, its generator, the induced-map laws, and the
square/non-square family."""

import random

import pytest

from ppforge.cyclotomic import (HermiteParams, Theorem1Params, cofactor_of,
                                fhat_on_mu_d, hermite_family,
                                hermite_sufficient, lemma_check,
                                theorem1_check, theorem1_generate,
                                theorem1_poly)
from ppforge.errors import FieldError, ScopeError
from ppforge.field import divisors, make_field
from ppforge.oracle import is_permutation
from ppforge.poly import (CyclotomicForm, FqPoly, expand_cyclotomic,
                          h_d_poly, parse_poly)

F7 = make_field(7)
F9 = make_field(3, 2)
F11 = make_field(11)
F13 = make_field(13)


def test_lemma_identity_case():
    for d in divisors(6):
        assert lemma_check(CyclotomicForm(1, d, FqPoly.one(F7))).verdict


def test_lemma_example_f7():
    cf = CyclotomicForm(1, 2, parse_poly(F7, "x+3"))
    rpt = lemma_check(cf)
    assert rpt.verdict
    f = expand_cyclotomic(cf)
    assert f == parse_poly(F7, "x^4+3*x")
    assert is_permutation(f)


def test_lemma_gcd_violation():
    # u=2 and (q-1)/d = 2 share a factor, whatever h is
    for h in (FqPoly.one(F7), parse_poly(F7, "x+1"), h_d_poly(F7, 3)):
        rpt = lemma_check(CyclotomicForm(2, 3, h))
        assert not rpt.condition("gcd(u,(q-1)/d)=1").holds
        assert not rpt.verdict


def test_lemma_rejects_non_divisor():
    with pytest.raises(ScopeError):
        lemma_check(CyclotomicForm(1, 4, FqPoly.one(F7)))


def test_theorem1_example_true():
    params = Theorem1Params(3, 1, 0, 2, FqPoly.one(F7))
    rpt = theorem1_check(params)
    assert rpt.verdict and all(c.holds for c in rpt.conditions)
    f = theorem1_poly(params)
    assert f == parse_poly(F7, "x^5+x^3+3*x")
    assert is_permutation(f)


def test_theorem1_b_zero():
    rpt = theorem1_check(Theorem1Params(3, 1, 0, 0, FqPoly.one(F7)))
    assert not rpt.condition("b!=0").holds
    assert not rpt.condition("1+g(1)/b is a d-th power in F_q*").holds
    assert not rpt.verdict


def test_theorem1_condition4_false():
    # b=1: 1+3 = 4 and 4^2 = 2 != 1, so 4 is not a cube
    params = Theorem1Params(3, 1, 0, 1, FqPoly.one(F7))
    rpt = theorem1_check(params)
    assert [c.holds for c in rpt.conditions] == [True, True, True, False]
    assert not is_permutation(theorem1_poly(params))


def test_theorem1_scope_errors():
    with pytest.raises(ScopeError):
        theorem1_check(Theorem1Params(2, 1, 0, 1, FqPoly.one(F7)))
    with pytest.raises(ScopeError):
        theorem1_check(Theorem1Params(4, 1, 0, 1, FqPoly.one(F7)))   # 4 does not divide 6
    with pytest.raises(ScopeError):
        theorem1_check(Theorem1Params(3, 0, 0, 1, FqPoly.one(F7)))


def test_generate_f7_defaults():
    # brute force over F_7 and the condition solve both yield b=2 only
    out = list(theorem1_generate(F7, 3))
    assert [(p.u, p.k, p.b) for p, _, _ in out] == [(1, 0, 2)]
    params, report, f = out[0]
    assert report == theorem1_check(params) and report.verdict
    assert f == parse_poly(F7, "x^5+x^3+3*x")
    assert is_permutation(f)


def test_generate_matches_oracle_on_a_grid():
    for u in range(1, 7):
        for k in range(3):
            emitted = {p.b for p, _, _ in theorem1_generate(F7, 3, (u,), (k,))}
            for b in F7.elements():
                params = Theorem1Params(3, u, k, b, FqPoly.one(F7))
                assert (b in emitted) == is_permutation(theorem1_poly(params))


def test_generate_explicit_g_divisible_k_beyond_d():
    # d=5, u=5, k=7 over F_11 with g=h_5: conditions and oracle agree on b=3
    out = list(theorem1_generate(F11, 5, (5,), (7,), g=h_d_poly(F11, 5)))
    assert [p.b for p, _, _ in out] == [3]
    assert is_permutation(out[0][2])


def test_generate_explicit_g_rejects_nondivisible():
    # x^2+x+1 is not divisible by h_5, and the four conditions genuinely do
    # not characterize permutations for it (b=4 passes them while failing
    # brute force), so the generator must refuse it
    g = parse_poly(F11, "x^2+x+1")
    with pytest.raises(FieldError):
        cofactor_of(F11, 5, g)
    with pytest.raises(FieldError):
        list(theorem1_generate(F11, 5, (5,), (7,), g=g))
    bad = Theorem1Params(5, 5, 7, 4, FqPoly.one(F11))  # divisible stand-in
    assert theorem1_check(bad) is not None  # the structural type cannot express the bad g


def test_generate_empty_bounds():
    # even u always shares a factor with (q-1)/d = 2
    assert list(theorem1_generate(F7, 3, (2, 4, 6), (0,))) == []
    assert list(theorem1_generate(F7, 3, (), ())) == []


def test_generate_builds_g_once_per_g0_and_never_for_an_empty_stream(monkeypatch):
    built = []
    original = Theorem1Params.g

    def counted(self):
        built.append(self.g0)
        return original(self)

    monkeypatch.setattr(Theorem1Params, "g", counted)
    assert list(theorem1_generate(F7, 3, (2, 4, 6), (0,))) == [] and built == []
    g0s = [FqPoly.constant(F7, c) for c in range(1, 7)]
    out = list(theorem1_generate(F7, 3, (1, 5), (0, 1, 2), g0s=g0s))
    assert len(out) > len(g0s)
    assert sorted(g0.terms for g0 in built) == sorted({p.g0.terms for p, _, _ in out})
    for params, _, f in out:
        assert f == expand_cyclotomic(params.form(original(params)))


def test_theorem1_is_the_lemma_with_h_equal_to_b_x_k_plus_g():
    g0 = parse_poly(F13, "x^2+5")
    for d in (3, 4, 6, 12):
        for u, k, b in ((1, 0, 2), (5, 2, 7), (7, 13, 1), (2, 1, 0)):
            params = Theorem1Params(d, u, k, b, g0)
            cf = params.form(params.g())
            assert cf.h == FqPoly.monomial(F13, b, k) + h_d_poly(F13, d) * g0
            assert theorem1_poly(params) == expand_cyclotomic(cf)
            assert lemma_check(cf).verdict == theorem1_check(params).verdict


def test_generate_order_is_lexicographic():
    g0s = [FqPoly.constant(F7, c) for c in range(7)]
    out = [(p.u, p.k, p.b, p.g0.terms) for p, _, _ in
           theorem1_generate(F7, 3, (1, 5), (0, 1, 2), g0s=g0s)]
    assert out == sorted(out)
    assert len(out) > 4


def test_fhat_examples():
    params = Theorem1Params(3, 1, 0, 2, FqPoly.one(F7))
    table = dict(fhat_on_mu_d(params))
    g1 = params.g().eval(1)
    m = 2
    assert table[1] == F7.pow(F7.add(2, g1), m)          # fhat(1) = (b+g(1))^((q-1)/d)
    assert table[2] == F7.mul(F7.pow(2, m), 2) == 1       # b^m * zeta^(u+km)
    assert table[4] == F7.mul(F7.pow(2, m), 4)


def test_fhat_monomial_law_sampled():
    rng = random.Random("fhat")
    for fld in (F7, make_field(13), F9):
        for d in [d for d in divisors(fld.q - 1) if d > 2]:
            m = (fld.q - 1) // d
            for _ in range(6):
                params = Theorem1Params(
                    d, rng.randrange(1, fld.q), rng.randrange(0, 2 * d),
                    rng.randrange(1, fld.q),
                    FqPoly(fld, [rng.randrange(fld.q) for _ in range(3)]))
                bm = fld.pow(params.b, m)
                for z, v in fhat_on_mu_d(params):
                    if z != 1:
                        assert v == fld.mul(bm, fld.pow(z, params.u + params.k * m))


def test_fhat_image_when_condition4_fails():
    # conditions 1-3 true, 4 false: the induced map hits mu_d minus {b^m}
    # away from 1 and misses it at 1
    checked = 0
    for fld in (F7, make_field(13)):
        for d in [d for d in divisors(fld.q - 1) if d > 2]:
            m = (fld.q - 1) // d
            for u in range(1, fld.q):
                for k in range(d):
                    for b in fld.units():
                        params = Theorem1Params(d, u, k, b, FqPoly.one(fld))
                        rpt = theorem1_check(params)
                        holds = [c.holds for c in rpt.conditions]
                        if holds[:3] != [True, True, True] or holds[3]:
                            continue
                        checked += 1
                        table = dict(fhat_on_mu_d(params))
                        bm = fld.pow(b, m)
                        mu = set(fld.mu_d(d))
                        assert {table[z] for z in mu - {1}} == mu - {bm}
                        assert table[1] != bm
    assert checked > 50


def test_hermite_coincident_branches():
    fam = hermite_family(HermiteParams(F7, 2, 2, 3, 3))
    two_a = F7.add(2, 2)
    assert fam.poly == FqPoly.monomial(F7, two_a, 3)


def test_hermite_example_f7():
    hp = HermiteParams(F7, 2, 1, 1, 5)
    fam = hermite_family(hp)
    assert hermite_sufficient(hp).verdict   # 4 and 2 are squares, gcd(5,6)=1
    assert is_permutation(fam.poly)
    assert (fam.square_coeff, fam.square_exp) == (4, 1)
    assert (fam.nonsquare_coeff, fam.nonsquare_exp) == (2, 5)


def test_hermite_zero_maps_to_zero():
    for hp in (HermiteParams(F7, 2, 1, 1, 5), HermiteParams(F9, 1, 2, 3, 1)):
        assert hermite_family(hp).poly.eval(0) == 0


@pytest.mark.parametrize("p,n", [(7, 1), (3, 2), (5, 2), (7, 2), (7, 3)])
def test_hermite_piecewise_identity(p, n):
    fld = make_field(p, n)
    q, s = fld.q, (make_field(p, n).q - 1) // 2
    rng = random.Random(f"hermite/{q}")
    for _ in range(5):
        hp = HermiteParams(fld, rng.randrange(1, q), rng.randrange(1, q),
                           rng.randrange(1, q), rng.randrange(1, q))
        fam = hermite_family(hp)
        for a in fld.units():
            expect = (fld.mul(fam.square_coeff, fld.pow(a, fam.square_exp))
                      if fld.pow(a, s) == 1 else
                      fld.mul(fam.nonsquare_coeff, fld.pow(a, fam.nonsquare_exp)))
            assert fam.poly.eval(a) == expect


def test_hermite_rejects_even_q():
    with pytest.raises(ScopeError):
        HermiteParams(make_field(2, 3), 1, 1, 1, 1)


@pytest.mark.parametrize("q0_p,q0_n", [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_mu_d_is_subfield_units_when_d_is_q0_minus_1(q0_p, q0_n):
    # q = q0^2 and d = q0-1 make mu_d the unit group of the q0-element subfield
    q0 = q0_p ** q0_n
    fld = make_field(q0_p, 2 * q0_n)
    d = q0 - 1
    fixed = {a for a in fld.units() if fld.pow(a, q0) == a}
    assert set(fld.mu_d(d)) == fixed
