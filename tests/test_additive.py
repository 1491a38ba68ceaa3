"""Additive-coset criteria: kernel/image machinery, the coverage criterion,
its corollaries, the trace-based construction, and the explicit family."""

import collections
import random

import pytest

from ppforge.additive import (AdditiveTriple, TraceTheoremParams, _trace_map,
                              commuting_criterion_check, example_family,
                              gamma_search, necessary_conditions_check,
                              proposition_check, subgroup_data,
                              trace_theorem_check, trace_theorem_poly,
                              triple_poly)
from ppforge.errors import FieldError, ScopeError
from ppforge.field import make_field, parse_field
from ppforge.oracle import (SAMPLE_SEED, additive_poly_corpus, arbitrary_g_corpus,
                            is_permutation, prime_coeff_poly_corpus,
                            prime_field_additive_corpus, trace_g_corpus, value_table)
from ppforge.poly import AdditivePoly, FqPoly, additive_commutes, parse_poly, trace_poly

F5 = make_field(5)
F9 = make_field(3, 2)
F8 = make_field(2, 3)
F25 = make_field(5, 2)

A_ID = AdditivePoly(F9, (1,))
B_TRACE9 = AdditivePoly(F9, (1, 1))


def test_subgroup_data_trace_f9():
    sd = subgroup_data(A_ID, B_TRACE9)
    assert sd.kernel == (0, 3, 6)          # {0, t, 2t}
    assert sd.image == (0, 1, 2)
    assert sd.a_kernel_image == (0, 3, 6)
    for gamma in sd.image:
        assert B_TRACE9.eval(sd.right_inverse[gamma]) == gamma
        assert sd.a_of_right_inverse[gamma] == A_ID.eval(sd.right_inverse[gamma])


@pytest.mark.parametrize("spec", ["13", "7^3", "2^4", "2^10", "3^7", "251^2"])
def test_values_match_the_oracle_column(spec):
    # one field per arithmetic tier: the scalar walk against eval_col
    fld = parse_field(spec)
    rng = random.Random(f"values/{spec}")
    for X in (AdditivePoly(fld, (1,)), trace_poly(fld),
              AdditivePoly(fld, [rng.randrange(fld.q) for _ in range(3)])):
        assert X.values() == tuple(value_table(X.expand()))


@pytest.mark.parametrize("spec", ["2^3", "3^2", "3^3", "2^4", "5^2", "7^3", "2^10", "3^7"])
def test_trace_map_from_its_basis_values_equals_the_walk(spec):
    # the trace map built digit by digit from Tr(t^i) against the walk of
    # the trace polynomial, element by element, and its kernel
    fld = parse_field(spec)
    walk = trace_poly(fld).values()
    assert _trace_map(fld) == (walk, tuple(x for x, v in enumerate(walk) if v == 0))


def test_trace_condition_1_per_a():
    # condition 1 is memoised per A; alternate A's so a stale entry would show
    kernel = [x for x in F9.elements() if trace_poly(F9).eval(x) == 0]
    h = FqPoly.one(F9)
    for cs in [(1,), (0, 1), (1, 1), (2,), (0, 1), (1, 1), (1,)]:
        A = AdditivePoly(F9, cs)
        c1 = trace_theorem_check(TraceTheoremParams(FqPoly.zero(F9), A, h)).conditions[0]
        assert c1.holds == (sorted(A.eval(b) for b in kernel) == kernel)


def test_trace_kernel_condition_reads_each_a_once(monkeypatch):
    # "A permutes ker Tr" reads A alone: over all its (h, g) rows, each A
    # object is evaluated at most once per point of F_p and of the kernel,
    # and a fresh A equal to it gets the same verdicts
    fld = parse_field("3^3")
    _, kernel = _trace_map(fld)
    As = prime_field_additive_corpus(fld)
    hs, gs = prime_coeff_poly_corpus(fld)[::4], trace_g_corpus(fld, SAMPLE_SEED)
    calls = collections.Counter()
    real_eval = AdditivePoly.eval

    def counted(self, a):
        calls[id(self)] += 1
        return real_eval(self, a)
    monkeypatch.setattr(AdditivePoly, "eval", counted)
    kept = [[trace_theorem_check(TraceTheoremParams(g, A, h)) for h in hs for g in gs]
            for A in As]
    assert set(calls) == {id(A) for A in As}
    assert max(calls.values()) <= fld.p + len(kernel)
    monkeypatch.undo()
    fresh = [[trace_theorem_check(TraceTheoremParams(g, AdditivePoly(fld, A.add_coeffs), h))
              for h in hs for g in gs] for A in As]
    assert fresh == kept
    assert {rpt.conditions[0].holds for rows in kept for rpt in rows} == {True, False}


def test_subgroup_data_identity_b():
    sd = subgroup_data(A_ID, AdditivePoly(F9, (1,)))
    assert sd.kernel == (0,)
    assert sd.image == tuple(F9.elements())


def test_subgroup_data_artin_schreier_prime_field():
    # x^p - x over F_p: kernel is everything, image is {0}
    B = AdditivePoly(F5, (4, 1))
    sd = subgroup_data(AdditivePoly(F5, (1,)), B)
    assert sd.kernel == tuple(F5.elements())
    assert sd.image == (0,)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_rank_nullity_sampled(p, n):
    fld = make_field(p, n)
    rng = random.Random(f"ranknull/{p}/{n}")
    one = AdditivePoly(fld, (1,))
    for _ in range(10):
        B = AdditivePoly(fld, [rng.randrange(fld.q) for _ in range(3)])
        sd = subgroup_data(one, B)
        assert len(sd.kernel) * len(sd.image) == fld.q


def test_right_inverse_preimage_rules():
    sd_least = subgroup_data(A_ID, B_TRACE9, preimage="least")
    sd_great = subgroup_data(A_ID, B_TRACE9, preimage="greatest")
    for gamma in sd_least.image:
        assert sd_least.right_inverse[gamma] <= sd_great.right_inverse[gamma]
        assert B_TRACE9.eval(sd_great.right_inverse[gamma]) == gamma
    with pytest.raises(FieldError):
        subgroup_data(A_ID, B_TRACE9, preimage="middle")


def test_proposition_identity():
    tr = AdditiveTriple(A_ID, AdditivePoly(F9, (1,)), FqPoly.zero(F9))
    assert proposition_check(tr).verdict
    assert triple_poly(tr) == FqPoly.x(F9)


def test_proposition_example_f9():
    # x + t*(x^3+x)^2 permutes F_9 (t = index 3, t^2 = -1)
    tr = AdditiveTriple(A_ID, B_TRACE9, parse_poly(F9, "3*x^2"))
    assert proposition_check(tr).verdict
    f = triple_poly(tr)
    assert is_permutation(f)


def test_proposition_a_zero():
    for g in (FqPoly.zero(F9), parse_poly(F9, "x^2+3")):
        tr = AdditiveTriple(AdditivePoly(F9), B_TRACE9, g)
        rpt = proposition_check(tr)
        assert not rpt.verdict
        assert not is_permutation(triple_poly(tr))


def test_proposition_matches_oracle_sampled():
    rng = random.Random("prop-oracle")
    for fld in (F9, F8):
        for _ in range(25):
            A = AdditivePoly(fld, [rng.randrange(fld.q) for _ in range(3)])
            B = AdditivePoly(fld, [rng.randrange(fld.q) for _ in range(3)])
            g = FqPoly(fld, [rng.randrange(fld.q) for _ in range(4)])
            tr = AdditiveTriple(A, B, g)
            assert proposition_check(tr).verdict == is_permutation(triple_poly(tr))


def test_coset_law():
    # f(alpha + beta) = f(alpha) + A(beta) for beta in ker B
    rng = random.Random("coset")
    for fld in (F9, F25):
        for _ in range(6):
            A = AdditivePoly(fld, [rng.randrange(fld.q) for _ in range(3)])
            B = AdditivePoly(fld, [rng.randrange(fld.q) for _ in range(3)])
            g = FqPoly(fld, [rng.randrange(fld.q) for _ in range(4)])
            f = triple_poly(AdditiveTriple(A, B, g))
            kernel = subgroup_data(A, B).kernel
            for alpha in fld.elements():
                fa = f.eval(alpha)
                for beta in kernel:
                    assert f.eval(fld.add(alpha, beta)) == fld.add(fa, A.eval(beta))


def test_right_inverse_choice_does_not_change_verdict():
    rng = random.Random("swap")
    for fld in (F9, F8):
        for _ in range(30):
            A = AdditivePoly(fld, [rng.randrange(fld.q) for _ in range(3)])
            B = AdditivePoly(fld, [rng.randrange(fld.q) for _ in range(3)])
            g = FqPoly(fld, [rng.randrange(fld.q) for _ in range(4)])
            tr = AdditiveTriple(A, B, g)
            v1 = proposition_check(tr, data=subgroup_data(A, B)).verdict
            v2 = proposition_check(tr, data=subgroup_data(A, B, preimage="greatest")).verdict
            assert v1 == v2


@pytest.mark.parametrize("p,n,sample", [(2, 2, None), (3, 1, None), (3, 2, 120), (2, 4, 60)])
def test_coset_label_cover_matches_the_sumset(p, n, sample):
    # the cover is decided from coset labels in O(|im B|); pin it, verdict
    # and witness, against the sumset A(ker B) + fhat(im B) built element by
    # element from a kernel and right inverse found here by brute force, on
    # every (A, B) cell of the proposition suite's corpora or a seeded
    # sample of them, each with the full g corpus
    fld = make_field(p, n)
    As = additive_poly_corpus(fld, 1009)
    gs = arbitrary_g_corpus(fld, 1009)
    cells = [(A, B) for B in As for A in As]
    if sample is not None:
        cells = random.Random(f"cover/{fld.designation()}").sample(cells, sample)
    elements = set(fld.elements())
    injectivity_alone = 0
    for A, B in cells:
        values = [B.eval(x) for x in fld.elements()]
        kernel = [x for x, v in enumerate(values) if v == 0]
        rinv = {}
        for x, v in enumerate(values):
            rinv.setdefault(v, x)
        a_kernel = {A.eval(beta) for beta in kernel}
        data = subgroup_data(A, B)
        assert B.values() == tuple(values)
        assert data.coset == tuple(min(fld.add(x, s) for s in a_kernel)
                                   for x in fld.elements())
        for g in gs:
            fhat = [fld.add(g.eval(gamma), A.eval(x)) for gamma, x in rinv.items()]
            missing = elements - {fld.add(s, v) for s in a_kernel for v in fhat}
            cond = proposition_check(AdditiveTriple(A, B, g), data=data).conditions[0]
            assert cond.holds == (not missing)
            assert cond.witness == (min(missing) if missing else None)
            # cases that only "A injective on ker B" refutes: fhat hits
            # |im B| distinct cosets, yet the sumset is short
            cosets = {frozenset(fld.add(v, s) for s in a_kernel) for v in fhat}
            injectivity_alone += bool(missing) and len(cosets) == len(rinv)
    # a cover test without the injectivity half would fail on these
    assert injectivity_alone > 0


def test_necessary_conditions_examples():
    g = parse_poly(F9, "3*x^2")
    # A = x is injective on any kernel
    rpt = necessary_conditions_check(AdditiveTriple(A_ID, B_TRACE9, g))
    assert rpt.condition("A is injective on ker B").holds
    # A = B = x^3+x collapses t and 0
    rpt2 = necessary_conditions_check(AdditiveTriple(B_TRACE9, B_TRACE9, g))
    assert not rpt2.condition("A is injective on ker B").holds
    # permuting triples satisfy both conditions
    tr = AdditiveTriple(A_ID, B_TRACE9, g)
    assert proposition_check(tr).verdict
    assert necessary_conditions_check(tr).verdict


def test_commuting_criterion_example():
    # A = x^3 permutes the trace kernel {0, t, 2t}: t -> 2t -> t
    A = AdditivePoly(F9, (0, 1))
    rpt = commuting_criterion_check(AdditiveTriple(A, B_TRACE9, FqPoly.zero(F9)))
    assert rpt.condition("A permutes ker B").holds


def test_commuting_criterion_trace_specialization():
    # A = x, B = trace: the criterion reduces to x + B(g(x)) permuting F_p
    for g in (parse_poly(F9, "3*x^2"), parse_poly(F9, "x^2"), FqPoly.zero(F9)):
        tr = AdditiveTriple(A_ID, B_TRACE9, g)
        rpt = commuting_criterion_check(tr)
        inner = [F9.add(c, B_TRACE9.eval(g.eval(c))) for c in range(3)]
        assert rpt.condition("A(x)+B(g(x)) permutes im B").holds == (sorted(inner) == [0, 1, 2])
        assert rpt.verdict == is_permutation(triple_poly(tr))


def test_commuting_criterion_rejects_noncommuting():
    A = AdditivePoly(F9, (3,))            # t*x
    B = AdditivePoly(F9, (0, 1))          # x^3
    with pytest.raises(ScopeError):
        commuting_criterion_check(AdditiveTriple(A, B, FqPoly.zero(F9)))


def test_commutation_belongs_to_the_subgroup_data():
    # the commuting criterion's hypothesis is read from subgroup_data(A, B)
    seen = set()
    for fld in (make_field(2, 2), make_field(3)):
        corpus = additive_poly_corpus(fld, 1009)
        for A in corpus:
            for B in corpus:
                data = subgroup_data(A, B)
                assert data.commutes == additive_commutes(A, B)
                seen.add(data.commutes)
                if not data.commutes:
                    with pytest.raises(ScopeError):
                        commuting_criterion_check(AdditiveTriple(A, B, FqPoly.zero(fld)),
                                                  data=data)
    assert seen == {True, False}


def test_commuting_criterion_matches_oracle_sampled():
    rng = random.Random("cor2")
    cases = 0
    pool = [AdditivePoly(F9, cs) for cs in
            [(1,), (0, 1), (1, 1), (2, 1), (0, 0, 1), (1, 0, 1)]]
    for A in pool:
        for B in pool:
            for _ in range(4):
                g = FqPoly(F9, [rng.randrange(9) for _ in range(3)])
                tr = AdditiveTriple(A, B, g)
                rpt = commuting_criterion_check(tr)   # all-F_p pool always commutes
                assert rpt.verdict == is_permutation(triple_poly(tr))
                cases += 1
    assert cases == 144


def test_trace_theorem_example_true():
    tp = TraceTheoremParams(FqPoly.zero(F9), A_ID, parse_poly(F9, "x^2+1"))
    rpt = trace_theorem_check(tp)
    assert rpt.verdict and all(c.holds for c in rpt.conditions)
    f = trace_theorem_poly(tp)
    assert f == parse_poly(F9, "x^7+2*x^5+x^3+x")   # ((x^3+x)^2+1)*x expanded
    assert is_permutation(f)


def test_trace_theorem_root_fails():
    tp = TraceTheoremParams(FqPoly.zero(F9), A_ID, parse_poly(F9, "x"))
    rpt = trace_theorem_check(tp)
    assert not rpt.condition("h has no roots in F_p").holds
    assert not rpt.verdict


def test_witness_strings():
    # proposition: the least element the sumset leaves uncovered
    F16 = make_field(2, 4)
    tr = AdditiveTriple(AdditivePoly(F16, (0, 1)), AdditivePoly(F16, (1, 1)),
                        parse_poly(F16, "x^3"))
    cond = proposition_check(tr).conditions[0]
    assert not cond.holds and cond.witness == 8
    assert cond.to_json_dict()["witness"] == 8
    # trace theorem: the least root of h in F_p
    tp = TraceTheoremParams(FqPoly.zero(F9), A_ID, parse_poly(F9, "x+2"))
    cond = trace_theorem_check(tp).condition("h has no roots in F_p")
    assert not cond.holds and cond.witness == "h(1) = 0"
    assert trace_theorem_check(TraceTheoremParams(
        FqPoly.zero(F9), A_ID, parse_poly(F9, "x"))).conditions[2].witness == "h(0) = 0"


def test_trace_theorem_identity_case():
    tp = TraceTheoremParams(FqPoly.zero(F9), A_ID, FqPoly.one(F9))
    assert trace_theorem_check(tp).verdict
    assert trace_theorem_poly(tp) == FqPoly.x(F9)


def test_trace_theorem_rejects_bad_coefficients():
    with pytest.raises(FieldError):
        TraceTheoremParams(FqPoly.zero(F9), AdditivePoly(F9, (3,)), FqPoly.one(F9))
    with pytest.raises(FieldError):
        TraceTheoremParams(FqPoly.zero(F9), A_ID, parse_poly(F9, "3*x+1"))


def test_trace_theorem_rejects_prime_fields():
    # over F_p the no-roots condition is not necessary (the kernel is trivial)
    tp = TraceTheoremParams(FqPoly.zero(F5), AdditivePoly(F5, (1,)), FqPoly.one(F5))
    with pytest.raises(ScopeError):
        trace_theorem_check(tp)


def test_trace_theorem_gamma_delta_preset():
    # g = gamma*h + delta is just another g; spot-check against the oracle
    rng = random.Random("gdelta")
    for fld in (F9, F25):
        gamma, delta = gamma_search(fld), rng.randrange(fld.q)
        for _ in range(8):
            h = FqPoly(fld, [rng.randrange(fld.p) for _ in range(3)])
            A = AdditivePoly(fld, [rng.randrange(fld.p) for _ in range(2)])
            tp = TraceTheoremParams(h.scaled(gamma) + FqPoly.constant(fld, delta), A, h)
            assert trace_theorem_check(tp).verdict == is_permutation(trace_theorem_poly(tp))


def test_no_roots_gives_unit_values_everywhere():
    # h without roots in F_p keeps h(B(alpha)) in F_p minus {0} for every alpha
    rng = random.Random("noroot")
    for fld in (F9, F25):
        B = trace_poly(fld)
        hs = [FqPoly(fld, [rng.randrange(fld.p) for _ in range(3)]) for _ in range(20)]
        for h in hs:
            if any(h.eval(c) == 0 for c in range(fld.p)):
                continue
            for alpha in fld.elements():
                v = h.eval(B.eval(alpha))
                assert 0 < v < fld.p


def test_gamma_search_examples():
    assert gamma_search(F9) == 3          # t, since t^2 = -1 under x^2+1
    assert gamma_search(F25) == 5         # least index with gamma^4 = -1
    assert F25.pow(5, 4) == F25.neg(1)
    for idx in range(5):
        if idx:
            assert F25.pow(idx, 4) != F25.neg(1)
    with pytest.raises(ScopeError):
        gamma_search(make_field(2, 2))
    with pytest.raises(ScopeError):
        gamma_search(F5)


def test_example_family_f9():
    f = example_family(F9, parse_poly(F9, "x^2"))
    assert f == parse_poly(F9, "3*x^6+6*x^4+3*x^2+x")
    assert f.degree == 6 == 2 * F9.p
    assert is_permutation(f)


def test_example_family_h_zero():
    assert example_family(F9, FqPoly.zero(F9)) == FqPoly.x(F9)


def test_example_family_f49_degree():
    F49 = make_field(7, 2)
    f = example_family(F49, parse_poly(F49, "x^2"))
    assert f.degree == 14
    assert is_permutation(f)


def test_example_family_validations():
    with pytest.raises(FieldError):
        example_family(F9, parse_poly(F9, "3*x"))     # coefficient outside F_p
    with pytest.raises(ScopeError):
        example_family(make_field(3, 3), FqPoly.one(make_field(3, 3)))


# ---------------------------------------------------------------------------
# the parameter records: tuple-backed, immutable, validated when made

def test_additive_records_are_tuples_read_by_field_name():
    g, h = parse_poly(F9, "x^2+1"), parse_poly(F9, "x+2")
    tr = AdditiveTriple(A_ID, B_TRACE9, g)
    assert tr == AdditiveTriple(A=A_ID, B=B_TRACE9, g=g) == (A_ID, B_TRACE9, g)
    assert (tr.A, tr.B, tr.g) == (A_ID, B_TRACE9, g) and tr.field is F9
    tp = TraceTheoremParams(g, A_ID, h)
    assert tp == TraceTheoremParams(g=g, A=A_ID, h=h) == (g, A_ID, h)
    assert (tp.g, tp.A, tp.h) == (g, A_ID, h) and tp.field is F9
    assert hash(tr) == hash(AdditiveTriple(A_ID, B_TRACE9, g))
    assert not hasattr(tr, "__dict__") and not hasattr(tp, "__dict__")


def test_additive_records_are_immutable():
    tr = AdditiveTriple(A_ID, B_TRACE9, FqPoly.zero(F9))
    tp = TraceTheoremParams(FqPoly.zero(F9), A_ID, FqPoly.one(F9))
    with pytest.raises(AttributeError):
        tr.g = FqPoly.one(F9)
    with pytest.raises(AttributeError):
        tp.h = FqPoly.zero(F9)
    assert tr.g == FqPoly.zero(F9) and tp.h == FqPoly.one(F9)


def test_additive_records_validate_when_made():
    zero9, zero25 = FqPoly.zero(F9), FqPoly.zero(F25)
    with pytest.raises(FieldError, match=r"^A, B and g must live over the same field$"):
        AdditiveTriple(A_ID, B_TRACE9, zero25)
    with pytest.raises(FieldError, match=r"^A, B and g must live over the same field$"):
        AdditiveTriple(A_ID, AdditivePoly(F25, (1,)), zero9)
    with pytest.raises(FieldError, match=r"^g, A and h must live over the same field$"):
        TraceTheoremParams(zero25, A_ID, FqPoly.one(F9))
    with pytest.raises(FieldError, match=r"^A has a coefficient outside F_p$"):
        TraceTheoremParams(zero9, AdditivePoly(F9, (3,)), FqPoly.one(F9))
    with pytest.raises(FieldError, match=r"^h has a coefficient outside F_p$"):
        TraceTheoremParams(zero9, A_ID, parse_poly(F9, "3*x+1"))
    # g is arbitrary: a coefficient outside F_p is allowed there
    assert TraceTheoremParams(parse_poly(F9, "3*x"), A_ID, FqPoly.one(F9)).field is F9
