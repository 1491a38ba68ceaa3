"""Ground-truth permutation testing and the criterion-vs-oracle harness.

is_permutation evaluates a polynomial at every field element and checks that
the image has q distinct values; no probabilistic shortcut is taken.  The
equivalence suites sweep parameter grids for each construction, compare the
criterion verdict case by case against the brute-force verdict, and report
every disagreement (there must be none).

The suites batch the brute-force side with integer table lookups.  Where a
whole coefficient axis is swept (the b axis of the four-condition family),
the value tables for all b are obtained at once via linearity of polynomial
evaluation in the coefficients; this is an exact identity, and a unit test
pins the batched rows against value_table on sampled parameters.
"""

import itertools
import math
import random
import time
from dataclasses import dataclass, field as _dc_field

import numpy as np

from .additive import (AdditiveTriple, TraceTheoremParams, example_family,
                       necessary_conditions_check, proposition_check,
                       commuting_criterion_check, subgroup_data,
                       trace_theorem_check)
from .cyclotomic import (HermiteParams, Theorem1Params, hermite_family,
                         hermite_sufficient, lemma_check, theorem1_check)
from .errors import OracleBoundError, UnknownSuiteError
from .field import VECTOR_MAX_Q, Field, divisors, parse_field
from .poly import (AdditivePoly, CyclotomicForm, FqPoly, additive_commutes, h_d_poly,
                   trace_poly)

DEFAULT_MAX_Q = VECTOR_MAX_Q
SAMPLE_SEED = 1009


# ---------------------------------------------------------------------------
# the oracle proper

def value_table(f: FqPoly) -> np.ndarray:
    """f evaluated at every element, as an index array of length q; exact."""
    fld = f.field
    if fld.q <= VECTOR_MAX_Q:
        return fld.tables().eval_col(f.reduce_exponents().terms)
    return np.fromiter((f.eval(a) for a in fld.elements()), dtype=np.int64, count=fld.q)


def _perm_col(vals: np.ndarray, q: int) -> bool:
    return bool(np.bincount(vals, minlength=q).max() == 1)


def is_permutation(f: FqPoly, *, max_q: int = DEFAULT_MAX_Q) -> bool:
    """Brute force: true iff the value table has q distinct entries."""
    q = f.field.q
    if q > max_q:
        raise OracleBoundError(f"q={q} exceeds the brute-force bound {max_q}")
    if q <= VECTOR_MAX_Q:
        return _perm_col(value_table(f), q)
    seen = set()
    for a in f.field.elements():
        v = f.eval(a)
        if v in seen:
            return False
        seen.add(v)
    return True


def _perm_mask_rows(vals: np.ndarray, q: int) -> np.ndarray:
    """Row-wise permutation test for an (r, q) table of element indices."""
    r = vals.shape[0]
    offs = np.arange(r, dtype=np.int64) * q
    counts = np.bincount((vals + offs[:, None]).ravel(), minlength=r * q)
    return counts.reshape(r, q).max(axis=1) == 1


# ---------------------------------------------------------------------------
# reporting

@dataclass
class Disagreement:
    field: str
    construction: str
    parameters: dict
    theorem_verdict: bool
    oracle_verdict: bool

    def to_json_dict(self) -> dict:
        return {
            "field": self.field,
            "construction": self.construction,
            "parameters": self.parameters,
            "theorem_verdict": self.theorem_verdict,
            "oracle_verdict": self.oracle_verdict,
        }


@dataclass
class EquivalenceReport:
    """Outcome of one suite run over a list of fields.

    `elapsed` is wall time and is deliberately left out of the JSON form so
    that repeated runs serialize byte-identically.
    """

    suite: str
    fields: list
    cases_run: int = 0
    disagreements: list = _dc_field(default_factory=list)
    elapsed: float = 0.0
    oracle_skipped: int = 0
    skipped_fields: list = _dc_field(default_factory=list)

    def passed(self) -> bool:
        return not self.disagreements

    def record(self, fld: Field, construction: str, parameters: dict,
               theorem_verdict: bool, oracle_verdict: bool):
        self.disagreements.append(Disagreement(
            fld.designation(), construction, parameters,
            bool(theorem_verdict), bool(oracle_verdict)))

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "fields": list(self.fields),
            "cases": self.cases_run,
            "oracle_skipped": self.oracle_skipped,
            "skipped_fields": list(self.skipped_fields),
            "disagreements": [d.to_json_dict() for d in self.disagreements],
        }


# ---------------------------------------------------------------------------
# deterministic sampling corpora

# corpus sizes: h per (q, d) cell of the lemma suite, random theorem1
# cofactors g0, random additive A, random g, trace-suite g, example h
LEMMA_H_COUNT = 200
THEOREM1_RANDOM_G0 = 20
RANDOM_A = 30
RANDOM_G = 20
TRACE_G_COUNT = 10
EXAMPLE_H_COUNT = 10


def _rng(seed, *tags) -> random.Random:
    return random.Random("/".join(str(t) for t in (seed, *tags)))


def _random_poly(fld: Field, rng: random.Random, max_deg: int) -> FqPoly:
    return FqPoly(fld, [rng.randrange(fld.q) for _ in range(max_deg + 1)])


def _coeff_pool(fld: Field) -> tuple:
    # {0, 1, t}; on prime fields t does not exist and the pool degrades
    return (0, 1) if fld.n == 1 else (0, 1, fld.p)


def lemma_h_corpus(fld: Field, d: int, seed) -> list:
    """h samples for one (q, d) cell: 1, h_d, then fixed-seed random ones."""
    out = [FqPoly.one(fld), h_d_poly(fld, d)]
    rng = _rng(seed, "lemma-h", fld.designation(), d)
    while len(out) < LEMMA_H_COUNT:
        out.append(_random_poly(fld, rng, d + 1))
    return out


def theorem1_g0_corpus(fld: Field, seed) -> list:
    """All constant cofactors plus fixed-seed random ones of degree <= 3."""
    out = [FqPoly.constant(fld, c) for c in range(fld.q)]
    rng = _rng(seed, "theorem1-g0", fld.designation())
    out += [_random_poly(fld, rng, 3) for _ in range(THEOREM1_RANDOM_G0)]
    return out


def additive_poly_corpus(fld: Field, seed) -> list:
    """Enumerated {0,1,t} coefficients on the slots x, x^p, x^(p^2), plus
    fixed-seed random additive polynomials on the same slots."""
    out = [AdditivePoly(fld, cs) for cs in itertools.product(_coeff_pool(fld), repeat=3)]
    rng = _rng(seed, "additive", fld.designation())
    out += [AdditivePoly(fld, [rng.randrange(fld.q) for _ in range(3)])
            for _ in range(RANDOM_A)]
    return out


def arbitrary_g_corpus(fld: Field, seed) -> list:
    """Enumerated degree-<=2 polynomials over {0,1,t} plus random deg <= 4."""
    out = [FqPoly(fld, cs) for cs in itertools.product(_coeff_pool(fld), repeat=3)]
    rng = _rng(seed, "gpoly", fld.designation())
    out += [_random_poly(fld, rng, 4) for _ in range(RANDOM_G)]
    return out


def prime_field_additive_corpus(fld: Field) -> list:
    """Every additive polynomial with F_p coefficients on slots up to x^(p^2)."""
    return [AdditivePoly(fld, cs) for cs in itertools.product(range(fld.p), repeat=3)]


def prime_coeff_poly_corpus(fld: Field) -> list:
    """Every polynomial of degree <= 2 with F_p coefficients."""
    return [FqPoly(fld, cs) for cs in itertools.product(range(fld.p), repeat=3)]


def trace_g_corpus(fld: Field, seed) -> list:
    rng = _rng(seed, "trace-g", fld.designation())
    return [_random_poly(fld, rng, 3) for _ in range(TRACE_G_COUNT)]


def example_h_corpus(fld: Field, seed) -> list:
    """x^2 first (the degree-2p family), then random F_p-coefficient h."""
    out = [FqPoly.monomial(fld, 1, 2)]
    rng = _rng(seed, "example-h", fld.designation())
    while len(out) < EXAMPLE_H_COUNT:
        out.append(FqPoly(fld, [rng.randrange(fld.p) for _ in range(4)]))
    return out


# ---------------------------------------------------------------------------
# suites
#
# A suite is a generator cases(fld, seed, T, **options) that walks its grid
# on one field.  T is the field's tables, or None beyond the brute-force
# bound.  It yields (construction, params, verdict, truth): a tuple named
# after the suite is one case, with truth the oracle's verdict (None beyond
# the bound); any other name is a structural invariant, yielded with the
# orientation (theorem_verdict, oracle_verdict) of the record it makes when
# the two differ.  Counting, comparing and recording belong to the driver.

def _lemma_cases(fld, seed, T, h_corpus=None):
    q = fld.q
    for d in divisors(q - 1):
        hs = h_corpus if h_corpus is not None else lemma_h_corpus(fld, d, seed)
        m = (q - 1) // d
        for hpos, h in enumerate(hs):
            h_text = h.text()
            w = None if T is None else value_table(h.substituted_power(m))
            for u in range(1, q):
                verdict = lemma_check(CyclotomicForm(u, d, h)).verdict
                truth = None if T is None else _perm_col(T.mul_cols(T.pow_col(u), w), q)
                yield "lemma", {"d": d, "u": u, "h": h_text, "h_pos": hpos}, verdict, truth


def _theorem1_cases(fld, seed, T, g0s=None):
    q = fld.q
    if g0s is None:
        g0s = theorem1_g0_corpus(fld, seed)
    b_all = np.arange(q, dtype=np.int64)
    for d in (d for d in divisors(q - 1) if d > 2):
        m = (q - 1) // d
        mu_not1 = np.array(fld.mu_d(d)[1:], dtype=np.int64)
        powm = None if T is None else T.pow_col(m)
        for g0pos, g0 in enumerate(g0s):
            g0_text = g0.text()
            if T is not None:
                g = h_d_poly(fld, d) * g0
                w = value_table(g.substituted_power(m))
                g_mu = value_table(g)[mu_not1]
            for u in range(1, q):
                if T is not None:
                    powu = T.pow_col(u)
                    v2 = T.mul_cols(powu, w)
                for k in range(d):
                    truths = [None] * q
                    if T is not None:
                        v1 = T.pow_col(u + k * m)
                        truths = _perm_mask_rows(
                            T.add_cols(T.mul_cols(b_all[:, None], v1[None, :]), v2[None, :]),
                            q).tolist()
                    for b, truth in enumerate(truths):
                        verdict = theorem1_check(Theorem1Params(d, u, k, b, g0)).verdict
                        yield ("theorem1",
                               {"d": d, "u": u, "k": k, "b": b, "g0": g0_text, "g0_pos": g0pos},
                               verdict, truth)
                    if T is None:
                        continue
                    # induced map collapses to b^((q-1)/d) * z^(u+k(q-1)/d)
                    # away from 1; verify the law on the whole grid, yielding
                    # only a broken law since its witness costs a search
                    inner = T.add_cols(T.mul_cols(b_all[1:, None], T.pow_col(k)[mu_not1][None, :]),
                                       g_mu[None, :])
                    lhs = T.mul_cols(powu[mu_not1][None, :], powm[inner])
                    rhs = T.mul_cols(powm[b_all[1:, None]], v1[mu_not1][None, :])
                    if not np.array_equal(lhs, rhs):
                        bad_b, bad_z = np.argwhere(lhs != rhs)[0]
                        yield ("fhat_monomial_law",
                               {"d": d, "u": u, "k": k, "b": int(bad_b) + 1,
                                "zeta": int(mu_not1[bad_z]), "g0": g0_text},
                               True, False)


class _AdditiveCache:
    """Caches shared by the proposition and corollary2 suites.

    col(X) is the value column of an additive polynomial.  g_on_image(B, g,
    image) returns, once per (B, g), g on im B as a dict for the criteria
    and, within the oracle bound, the column g(B(x)) for the oracle.
    """

    def __init__(self, T):
        self.T = T
        self._cols = {}
        self._g = {}

    def col(self, X: AdditivePoly) -> np.ndarray:
        c = self._cols.get(X)
        if c is None:
            c = self._cols[X] = value_table(X.expand())
        return c

    def commutes(self, A: AdditivePoly, B: AdditivePoly) -> bool:
        if self.T is None:
            return additive_commutes(A, B)
        ca, cb = self.col(A), self.col(B)
        return np.array_equal(ca[cb], cb[ca])

    def g_on_image(self, B: AdditivePoly, g: FqPoly, image) -> tuple:
        hit = self._g.get((B, g))
        if hit is None:
            gi = {gamma: g.eval(gamma) for gamma in image}
            gcol = None
            if self.T is not None:
                lut = np.zeros(self.T.q, dtype=np.int64)
                lut[list(gi)] = list(gi.values())
                gcol = lut[self.col(B)]
            hit = self._g[(B, g)] = gi, gcol
        return hit


def _proposition_cases(fld, seed, T):
    q = fld.q
    As = additive_poly_corpus(fld, seed)
    gs = arbitrary_g_corpus(fld, seed)
    a_texts = [A.expand().text() for A in As]
    g_texts = [g.text() for g in gs]
    cache = _AdditiveCache(T)
    for bpos, B in enumerate(As):
        for apos, A in enumerate(As):
            data = subgroup_data(A, B)
            data_swap = subgroup_data(A, B, preimage="greatest")
            if apos == 0:
                yield ("rank_nullity",
                       {"B": a_texts[bpos], "kernel": len(data.kernel), "image": len(data.image)},
                       True, len(data.kernel) * len(data.image) == q)
            for gpos, g in enumerate(gs):
                gi, gcol = cache.g_on_image(B, g, data.image)
                tr = AdditiveTriple(A, B, g)
                verdict = proposition_check(tr, data=data, g_on_image=gi).verdict
                swapped = proposition_check(tr, data=data_swap, g_on_image=gi).verdict
                params = {"A_pos": apos, "B_pos": bpos, "g_pos": gpos,
                          "A": a_texts[apos], "B": a_texts[bpos], "g": g_texts[gpos]}
                yield "right_inverse_swap", params, verdict, swapped
                truth = None if T is None else _perm_col(T.add_cols(cache.col(A), gcol), q)
                yield "proposition", params, verdict, truth
                if truth:
                    nec = necessary_conditions_check(tr, data=data, g_on_image=gi)
                    yield "corollary1", params, nec.verdict, truth


def _corollary2_cases(fld, seed, T):
    q = fld.q
    As = additive_poly_corpus(fld, seed)
    gs = arbitrary_g_corpus(fld, seed)
    cache = _AdditiveCache(T)
    pairs = [(A, B) for A in As for B in As if cache.commutes(A, B)]
    trace_b = trace_poly(fld)
    seen = set(pairs)
    pairs += [(A, trace_b) for A in prime_field_additive_corpus(fld) if (A, trace_b) not in seen]
    texts = {X: X.expand().text() for X in set(itertools.chain.from_iterable(pairs))}
    g_texts = [g.text() for g in gs]
    for ppos, (A, B) in enumerate(pairs):
        data = subgroup_data(A, B)
        for gpos, g in enumerate(gs):
            gi, gcol = cache.g_on_image(B, g, data.image)
            rpt = commuting_criterion_check(AdditiveTriple(A, B, g), data=data,
                                            g_on_image=gi, verified_commuting=True)
            truth = None if T is None else _perm_col(T.add_cols(cache.col(A), gcol), q)
            yield ("corollary2",
                   {"pair_pos": ppos, "g_pos": gpos,
                    "A": texts[A], "B": texts[B], "g": g_texts[gpos]},
                   rpt.verdict, truth)


def _trace_theorem_cases(fld, seed, T):
    p, q = fld.p, fld.q
    As = prime_field_additive_corpus(fld)
    hs = prime_coeff_poly_corpus(fld)
    gs = trace_g_corpus(fld, seed)
    h_texts = [h.text() for h in hs]
    g_texts = [g.text() for g in gs]
    if T is not None:
        bcol = value_table(trace_poly(fld).expand())

        def on_trace(f):  # the column f(B(x)); B(x) lies in F_p
            return np.array([f.eval(c) for c in range(p)], dtype=np.int64)[bcol]

        gcols = [on_trace(g) for g in gs]
    for apos, A in enumerate(As):
        a_text = A.expand().text()
        acol = None if T is None else value_table(A.expand())
        for hpos, h in enumerate(hs):
            hacol = None if T is None else T.mul_cols(on_trace(h), acol)
            for gpos, g in enumerate(gs):
                verdict = trace_theorem_check(TraceTheoremParams(g, A, h)).verdict
                truth = None if T is None else _perm_col(T.add_cols(gcols[gpos], hacol), q)
                yield ("trace_theorem",
                       {"A_pos": apos, "h_pos": hpos, "g_pos": gpos,
                        "A": a_text, "h": h_texts[hpos], "g": g_texts[gpos]},
                       verdict, truth)


def _hermite_cases(fld, seed, T):
    q = fld.q
    good_coeffs = [a for a in fld.units() if fld.is_dth_power(fld.add(a, a), 2)]
    good_exps = [i for i in range(1, q) if math.gcd(i, q - 1) == 1]
    if T is not None:
        sq_mask = np.asarray(T.pow_col((q - 1) // 2)) == 1
        ns_mask = ~sq_mask
        ns_mask[0] = False
    for a, b, i, j in itertools.product(good_coeffs, good_coeffs, good_exps, good_exps):
        hp = HermiteParams(fld, a, b, i, j)
        fam = hermite_family(hp)
        params = {"a": a, "b": b, "i": i, "j": j}
        yield "hermite_sufficient", params, True, hermite_sufficient(hp).verdict
        if T is None:
            yield "hermite", params, True, None
            continue
        vals = value_table(fam.poly)
        yield "hermite", params, True, _perm_col(vals, q)
        on_sq = T.scalar_mul(fam.square_coeff, T.pow_col(i))
        on_ns = T.scalar_mul(fam.nonsquare_coeff, T.pow_col(j))
        piecewise = (vals[0] == 0
                     and np.array_equal(vals[sq_mask], on_sq[sq_mask])
                     and np.array_equal(vals[ns_mask], on_ns[ns_mask]))
        yield "hermite_piecewise", params, True, piecewise


def _example_family_cases(fld, seed, T):
    for hpos, h in enumerate(example_h_corpus(fld, seed)):
        f = example_family(fld, h)
        params = {"h": h.text(), "h_pos": hpos, "poly": f.text()}
        if hpos == 0:
            yield "example_degree", params, True, f.degree == 2 * fld.p
        yield ("example_family", params, True,
               None if T is None else _perm_col(value_table(f), fld.q))


def _always(fld) -> bool:
    return True


# name -> (applies, cases): applies(fld) states the suite's hypotheses on
# the field; fields where it is false are skipped and listed in the report
SUITES = {
    "lemma": (_always, _lemma_cases),
    "theorem1": (lambda fld: any(d > 2 for d in divisors(fld.q - 1)), _theorem1_cases),
    "proposition": (_always, _proposition_cases),
    "corollary2": (_always, _corollary2_cases),
    "trace_theorem": (lambda fld: fld.n > 1, _trace_theorem_cases),
    "hermite": (lambda fld: fld.q % 2 == 1, _hermite_cases),
    "example_family": (lambda fld: fld.n == 2 and fld.p != 2, _example_family_cases),
}

SUITE_NAMES = tuple(SUITES)

DEFAULT_SUITE_FIELDS = {
    "lemma": ("2^2", "5", "7", "2^3", "3^2", "11", "13", "2^4", "5^2", "3^3"),
    "theorem1": ("7", "3^2", "11", "13", "5^2", "3^3"),
    "proposition": ("2^2", "2^3", "3^2", "2^4", "5^2", "3^3"),
    "corollary2": ("2^2", "2^3", "3^2", "2^4", "5^2", "3^3"),
    "trace_theorem": ("2^3", "3^2", "5^2", "3^3"),
    "hermite": ("7", "3^2", "11", "13", "5^2", "3^3"),
    "example_family": ("3^2", "5^2", "7^2", "11^2", "13^2"),
}


def run_equivalence_suite(suite: str, fields=None, seed=SAMPLE_SEED,
                          max_q: int = None, **options) -> EquivalenceReport:
    """Run one named suite over a field list and report all disagreements.

    fields defaults to the suite's standard grid; entries may be Field
    objects or "p^n" strings.  Fields outside a suite's hypotheses are
    skipped and listed in the report.  Cases on fields beyond the
    brute-force bound are condition-checked only and counted in
    oracle_skipped.  Keyword options are forwarded to the suite (e.g.
    h_corpus for the lemma suite to restrict its h grid).
    """
    name = str(suite).replace("-", "_")
    if name == "example":
        name = "example_family"
    if name not in SUITES:
        raise UnknownSuiteError(f"unknown suite {suite!r}; known: {', '.join(SUITE_NAMES)}")
    applies, cases = SUITES[name]
    if fields is None:
        fields = DEFAULT_SUITE_FIELDS[name]
    field_objs = [f if isinstance(f, Field) else parse_field(str(f)) for f in fields]
    if max_q is None:
        max_q = DEFAULT_MAX_Q
    rep = EquivalenceReport(suite=name,
                            fields=[f.designation() for f in field_objs])
    t0 = time.perf_counter()
    for fld in field_objs:
        if not applies(fld):
            rep.skipped_fields.append(fld.designation())
            continue
        T = fld.tables() if fld.q <= min(max_q, VECTOR_MAX_Q) else None
        for construction, params, verdict, truth in cases(fld, seed, T, **options):
            if construction == name:
                rep.cases_run += 1
                if truth is None:
                    rep.oracle_skipped += 1
                    continue
            if verdict != truth:
                rep.record(fld, construction, params, verdict, truth)
    rep.elapsed = time.perf_counter() - t0
    return rep
