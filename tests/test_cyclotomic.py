"""Multiplicative-coset criteria: the two-condition reduction, the
four-condition family, its generator, the induced-map laws, and the
square/non-square family."""

import gc
import inspect
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ppforge.cyclotomic import (HermiteParams, Theorem1Params, _induced_map, cofactor_of,
                                fhat_on_mu_d, hermite_coeff_ok, hermite_exp_ok, hermite_family,
                                hermite_sufficient, lemma_check,
                                theorem1_check, theorem1_generate,
                                theorem1_poly)
from ppforge.errors import FieldError, ScopeError
from ppforge.field import ADD_TABLE_MAX_Q, VECTOR_MAX_Q, divisors, make_field
from ppforge.oracle import is_permutation, run_equivalence_suite
from ppforge.poly import (CyclotomicForm, FqPoly, _collect, expand_cyclotomic,
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


def test_lemma_witness_names_the_least_missed_mu_d_element():
    # F_13, d=3: the induced map sends mu_3 = {1, 3, 9} to {1, 3, 3}
    cond = lemma_check(CyclotomicForm(5, 3, parse_poly(F13, "x^2+2"))).conditions[1]
    assert not cond.holds and cond.witness == "mu_d element 9 not attained"
    # h(6) = 0 sends 6 in mu_2 to 0, outside mu_2: the missed element still names it
    cond = lemma_check(CyclotomicForm(1, 2, parse_poly(F7, "x+1"))).conditions[1]
    assert not cond.holds and cond.witness == "mu_d element 6 not attained"


def test_lemma_rejects_non_divisor():
    with pytest.raises(ScopeError):
        lemma_check(CyclotomicForm(1, 4, FqPoly.one(F7)))


def _lemma_by_enumeration(cf):
    """(c1, c2, witness) of the lemma from the d images enumerated by
    _induced_map, two powers per root."""
    mu, image = _induced_map(cf)
    c2 = sorted(image) == sorted(mu)
    witness = None if c2 else f"mu_d element {min(set(mu) - set(image))} not attained"
    return math.gcd(cf.u, (cf.field.q - 1) // cf.d) == 1, c2, witness


def _index_form_hs(fld, d, rng):
    """1; h_d, zero at every root but 1; x+1, zero at -1 when d is even;
    then seeded random h."""
    hs = [FqPoly.one(fld), h_d_poly(fld, d), parse_poly(fld, "x+1")]
    return hs + [FqPoly(fld, [rng.randrange(fld.q) for _ in range(d + 2)]) for _ in range(6)]


def test_lemma_index_form_matches_the_induced_map():
    # the index form j -> (j*u + t_j) mod d against the enumerated map: every
    # divisor d and every u on table fields, and d = 3 on a prime field past
    # the tables, where mu_d and the powers are computed without logs
    rng = random.Random("lemma-index-form")
    cells = [(fld, d, range(1, fld.q))
             for fld in (F7, F9, F13, make_field(2, 4), make_field(5, 2))
             for d in divisors(fld.q - 1)]
    big = make_field(65539)
    assert big.q > VECTOR_MAX_Q
    cells.append((big, 3, [*range(1, 10), *rng.sample(range(10, big.q), 20)]))
    failed = 0
    for fld, d, us in cells:
        for h in _index_form_hs(fld, d, rng):
            for u in us:
                cf = CyclotomicForm(u, d, h)
                c1, c2 = lemma_check(cf).conditions
                assert (c1.holds, c2.holds, c2.witness) == _lemma_by_enumeration(cf), (fld, d, h, u)
                failed += not c2.holds
    assert failed  # the witness text is compared on failing cases too


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


def test_theorem1_witness_when_1_plus_g1_over_b_is_zero():
    # g(1) = 3 and 3/4 = 6 in F_7, so 1+g(1)/b = 0, which is no d-th power in F_q*
    cond = theorem1_check(Theorem1Params(3, 1, 0, 4, FqPoly.one(F7))).conditions[3]
    assert not cond.holds and cond.witness == "1+g(1)/b = 0 is zero"


def test_theorem1_scope_errors():
    with pytest.raises(ScopeError):
        theorem1_check(Theorem1Params(2, 1, 0, 1, FqPoly.one(F7)))
    with pytest.raises(ScopeError):
        theorem1_check(Theorem1Params(4, 1, 0, 1, FqPoly.one(F7)))   # 4 does not divide 6
    with pytest.raises(ScopeError):
        theorem1_check(Theorem1Params(3, 0, 0, 1, FqPoly.one(F7)))


@pytest.mark.parametrize("p,n", [(7, 1), (13, 1), (3, 3)])
def test_theorem1_condition4_table_matches_a_fresh_g0(p, n):
    # one g0 object per text serves every divisor d, (u, k) and b in turn,
    # so its condition-(4) table is filled across them; "1" and "x" are two
    # objects with equal g(1), "0" has g(1) = 0.  Each report must equal the
    # one made on a freshly parsed g0, whose table is empty
    fld = make_field(p, n)
    q = fld.q
    ds = [d for d in divisors(q - 1) if d > 2]
    texts = ("1", "x", "2*x^2+x+1", "0")
    shared = {t: parse_poly(fld, t) for t in texts}
    witnesses = set()
    for text, g0 in shared.items():
        for d in ds:
            for u, k in ((1, 0), (2, 1), (5, d - 1)):
                for b in range(q):
                    rpt = theorem1_check(Theorem1Params(d, u, k, b, g0))
                    fresh = parse_poly(fld, text)
                    assert not fresh._cond4
                    assert rpt == theorem1_check(Theorem1Params(d, u, k, b, fresh)), \
                        (text, d, u, k, b)
                    witnesses.add(rpt.conditions[3].witness)
        assert set(g0._cond4) == set(ds)
        assert all(set(table) == set(range(q)) for table in g0._cond4.values())
    # b = 0 and a b with 1 + g(1)/b = 0 are among the keys reached
    assert {"b=0: 1+g(1)/b is undefined", "1+g(1)/b = 0 is zero"} < witnesses
    # equal g(1), equal tables, but each object keeps its own
    assert shared["1"]._cond4 == shared["x"]._cond4
    assert shared["1"]._cond4 is not shared["x"]._cond4
    # where g(1) = 0 every b != 0 passes condition (4), under each d
    assert all(table[b] is True for table in shared["0"]._cond4.values() for b in range(1, q))


def test_theorem1_condition4_table_lives_and_dies_with_g0():
    g0 = parse_poly(F7, "x+2")
    run_equivalence_suite("theorem1", [F7], g0s=[g0])
    assert set(g0._cond4) == {3, 6}
    assert all(len(table) == 7 for table in g0._cond4.values())
    # g0 alone holds its table, and the table alone holds its per-d parts,
    # so they are freed with g0: nothing process-wide keeps them
    assert [r for r in gc.get_referrers(g0._cond4) if not inspect.isframe(r)] == [g0]
    for table in g0._cond4.values():
        assert [r for r in gc.get_referrers(table) if not inspect.isframe(r)] == [g0._cond4]
    # a second suite call on an equal, freshly parsed g0 fills a table of
    # its own from empty
    again = parse_poly(F7, "x+2")
    assert again == g0 and not again._cond4
    run_equivalence_suite("theorem1", [F7], g0s=[again])
    assert again._cond4 == g0._cond4 and again._cond4 is not g0._cond4
    # past ADD_TABLE_MAX_Q nothing is kept, so a long walk of b (generate
    # theorem1 on a large field) does not grow one
    big = make_field(1009)
    assert big.q > ADD_TABLE_MAX_Q
    g0 = parse_poly(big, "x+2")
    for b in range(50):
        rpt = theorem1_check(Theorem1Params(3, 1, 0, b, g0))
        assert rpt == theorem1_check(Theorem1Params(3, 1, 0, b, parse_poly(big, "x+2")))
    assert not g0._cond4


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
    # F_13 at every d > 2; at d = 12, m = 1 and x+12 is the g0 with g0(1) = 0
    g0s = [parse_poly(F13, t) for t in ("1", "2", "x+12")]
    for d in (d for d in divisors(12) if d > 2):
        us, ks = range(1, 13), range(d + 1)
        stream = [(p.u, p.k, p.b, p.g0) for p, _, _ in theorem1_generate(F13, d, us, ks, g0s)]
        grid = [(u, k, b, g0) for u in us for k in ks for b in F13.elements() for g0 in g0s
                if theorem1_check(Theorem1Params(d, u, k, b, g0)).verdict]
        assert stream == grid and stream, d


def test_generate_explicit_g_divisible_k_beyond_d():
    # d=5, u=5, k=7 over F_11 with g=h_5: conditions and oracle agree on b=3
    g0 = cofactor_of(F11, 5, h_d_poly(F11, 5))
    out = list(theorem1_generate(F11, 5, (5,), (7,), [g0]))
    assert out[0][0].g() == h_d_poly(F11, 5)
    assert [p.b for p, _, _ in out] == [3]
    assert is_permutation(out[0][2])


def test_generate_explicit_g_rejects_nondivisible():
    # x^2+x+1 is not divisible by h_5, and the four conditions genuinely do
    # not characterize permutations for it (b=4 passes them while failing
    # brute force), so it has no cofactor to hand the generator
    g = parse_poly(F11, "x^2+x+1")
    with pytest.raises(FieldError):
        cofactor_of(F11, 5, g)
    bad = Theorem1Params(5, 5, 7, 4, FqPoly.one(F11))  # divisible stand-in
    assert theorem1_check(bad) is not None  # the structural type cannot express the bad g


@st.composite
def _g_and_d(draw):
    """A field, a divisor d > 2 of q-1 and a g of up to 5 terms; half the
    draws are multiples of h_d, the others are left as drawn."""
    fld = draw(st.sampled_from([F7, F9, F13, make_field(2, 4), make_field(5, 2)]))
    d = draw(st.sampled_from([d for d in divisors(fld.q - 1) if d > 2]))
    terms = draw(st.dictionaries(st.integers(0, 2 * fld.q), st.integers(0, fld.q - 1),
                                 max_size=5))
    g = FqPoly(fld, [terms.get(e, 0) for e in range(max(terms, default=-1) + 1)])
    if draw(st.booleans()):
        g = h_d_poly(fld, d) * g
    return fld, d, g


@settings(max_examples=150, deadline=None)
@given(_g_and_d())
def test_cofactor_root_test_agrees_with_division(case):
    # g vanishes on mu_d minus {1} exactly when h_d divides it
    fld, d, g = case
    quot, rem = g.divmod(h_d_poly(fld, d))
    if rem.is_zero():
        assert cofactor_of(fld, d, g) == quot
    else:
        with pytest.raises(FieldError, match="not divisible"):
            cofactor_of(fld, d, g)


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


@pytest.mark.parametrize("p,n", [(7, 1), (3, 2), (13, 1), (5, 2)])
def test_hermite_terms_equal_the_merge_then_reduce_form(p, n):
    # hermite_family reduces each exponent before its one merge; merging
    # first and reducing after, which merges again where i + s >= q, gives
    # the same family on every (a, b, i, j) of the hermite suite's grid
    fld = make_field(p, n)
    q, s = fld.q, (fld.q - 1) // 2
    coeffs = [a for a in fld.units() if hermite_coeff_ok(fld, a)]
    exps = [i for i in range(1, q) if hermite_exp_ok(fld, i)]
    for a, b in itertools.product(coeffs, coeffs):
        for i, j in itertools.product(exps, exps):
            fam = hermite_family(HermiteParams(fld, a, b, i, j))
            two_step = _collect(fld, ((i + s, a), (i, a), (j + s, fld.neg(b)),
                                      (j, b))).reduce_exponents()
            assert fam.poly.terms == two_step.terms, (a, b, i, j)
            assert (fam.square_coeff, fam.square_exp) == (fld.add(a, a), i)
            assert (fam.nonsquare_coeff, fam.nonsquare_exp) == (fld.add(b, b), j)


def test_hermite_rejects_even_q():
    with pytest.raises(ScopeError):
        HermiteParams(make_field(2, 3), 1, 1, 1, 1)


def test_hermite_params_rejections():
    # even q is refused before the coefficients and exponents are read
    with pytest.raises(ScopeError):
        HermiteParams(make_field(2, 2), 0, 9, 0, 0)
    for a, b in ((0, 1), (1, 0), (7, 1), (1, 7), (-1, 1), (1, -3), (0, 0)):
        with pytest.raises(FieldError, match="nonzero element indices"):
            HermiteParams(F7, a, b, 1, 1)
    for i, j in ((0, 1), (1, 0), (-2, 1), (1, -1), (0, 0)):
        with pytest.raises(FieldError, match="must be positive"):
            HermiteParams(F7, 1, 1, i, j)
    hp = HermiteParams(F7, 6, 1, 1, 8)
    assert hp == (F7, 6, 1, 1, 8) and (hp.field, hp.a, hp.b, hp.i, hp.j) == (F7, 6, 1, 1, 8)


@pytest.mark.parametrize("p,n", [(7, 1), (3, 2)])
def test_hermite_family_on_every_parameter(p, n):
    # the polynomial from its definition, a*x^i*(x^s+1) - b*x^j*(x^s-1) with
    # s = (q-1)/2 and reduced exponents, on every (a, b, i, j), i and j past
    # q-1 included; the piecewise fields are (2a, i) and (2b, j)
    fld = make_field(p, n)
    q, s = fld.q, (fld.q - 1) // 2
    x_s = FqPoly.monomial(fld, 1, s)
    one = FqPoly.one(fld)
    for a, b in itertools.product(fld.units(), fld.units()):
        for i, j in itertools.product(range(1, q + 2), range(1, q + 2)):
            fam = hermite_family(HermiteParams(fld, a, b, i, j))
            expect = (FqPoly.monomial(fld, a, i) * (x_s + one)
                      - FqPoly.monomial(fld, b, j) * (x_s - one)).reduce_exponents()
            assert fam.poly == expect, (a, b, i, j)
            assert fam == (fam.poly, fld.add(a, a), i, fld.add(b, b), j)
            assert (fam.square_coeff, fam.square_exp) == (fld.add(a, a), i)
            assert (fam.nonsquare_coeff, fam.nonsquare_exp) == (fld.add(b, b), j)


@pytest.mark.parametrize("q0_p,q0_n", [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_mu_d_is_subfield_units_when_d_is_q0_minus_1(q0_p, q0_n):
    # q = q0^2 and d = q0-1 make mu_d the unit group of the q0-element subfield
    q0 = q0_p ** q0_n
    fld = make_field(q0_p, 2 * q0_n)
    d = q0 - 1
    fixed = {a for a in fld.units() if fld.pow(a, q0) == a}
    assert set(fld.mu_d(d)) == fixed
