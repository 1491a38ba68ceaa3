"""Ground-truth permutation testing and the criterion-vs-oracle harness.

is_permutation evaluates a polynomial at every field element and checks that
the image has q distinct values; no probabilistic shortcut is taken.  The
equivalence suites sweep parameter grids for each construction one cell at a
time, compare the criterion verdicts of a cell's rows against the brute-force
verdicts as two lists, and report every disagreement (there must be none).

The suites batch the brute-force side with integer table lookups.  Where a
whole coefficient axis is swept (the b axis of the four-condition family),
the value tables for all b are obtained at once via linearity of polynomial
evaluation in the coefficients; this is an exact identity, and unit tests
pin the batched rows against value_table and is_permutation of the expanded
polynomial on sampled parameters.
"""

import dataclasses
import functools
import itertools
import math
import random
import time
from dataclasses import dataclass, field as _dc_field

import numpy as np

from .additive import (AdditiveTriple, TraceTheoremParams, _trace_map, example_family,
                       necessary_conditions_check, proposition_check,
                       commuting_criterion_check, subgroup_data,
                       trace_theorem_check)
from .cyclotomic import (HermiteParams, Theorem1Params, hermite_coeff_ok, hermite_exp_ok,
                         hermite_family, hermite_sufficient, lemma_check, theorem1_check)
from .errors import OracleBoundError, UnknownSuiteError
from .field import VECTOR_MAX_Q, Field, check_expansion, divisors, parse_field
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


def is_permutation(f: FqPoly, *, max_q: int = DEFAULT_MAX_Q) -> bool:
    """Brute force: true iff the value table has q distinct entries."""
    q = f.field.q
    if q > max_q:
        raise OracleBoundError(f"q={q} exceeds the brute-force bound {max_q}")
    return bool(_perm_mask_rows(value_table(f)[None, :], q)[0])


def _perm_mask_rows(vals: np.ndarray, q: int) -> np.ndarray:
    """Row-wise permutation test for an (r, q) table of element indices."""
    r = vals.shape[0]
    offs = np.arange(r, dtype=np.int64) * q
    counts = np.bincount((vals + offs[:, None]).ravel(), minlength=r * q)
    return counts.reshape(r, q).max(axis=1) == 1


# the most entries one stacked oracle table may hold: the size of the
# largest add table add_cols caches, 512 x 512
STACK_MAX_ENTRIES = 1 << 18


def value_rows(polys, T) -> np.ndarray:
    """The value tables of a corpus of polynomials over the field of tables
    T, as a (len(polys), q) index array whose row i is value_table(polys[i]).

    Each exponent of the union of the corpus's reduced exponents gets a
    coefficient column, 0 where a polynomial lacks it, and one eval_col call
    evaluates a slice of rows of at most STACK_MAX_ENTRIES entries.
    """
    reduced = [f.reduce_exponents().terms for f in polys]
    # a corpus of zero polynomials still gets rows: one zero term at e = 0
    exps = sorted({e for terms in reduced for e, _ in terms}) or [0]
    at = {e: j for j, e in enumerate(exps)}
    coeffs = np.zeros((len(exps), len(polys), 1), dtype=np.int64)
    for row, terms in enumerate(reduced):
        for e, c in terms:
            coeffs[at[e], row] = c
    return _by_slices(len(polys), T.q,
                      lambda lo, hi: T.eval_col(list(zip(exps, coeffs[:, lo:hi]))))


def _by_slices(rows: int, width: int, block) -> np.ndarray:
    """Run block(lo, hi) over consecutive row slices of a stacked table
    whose rows hold `width` entries, each slice at most STACK_MAX_ENTRIES
    entries (one row at least); block returns an array whose first axis
    runs along its rows, and the slices are concatenated along it."""
    step = max(1, STACK_MAX_ENTRIES // width)
    return np.concatenate([block(lo, min(lo + step, rows)) for lo in range(0, rows, step)])


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
        return dataclasses.asdict(self)


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
# bound.  It yields one block per cell, (construction, verdicts, truths,
# params): a cell is one setting of the data a criterion holds fixed, and
# its rows run along a free axis.  verdicts is a bool sequence over the
# rows and truths a bool sequence of the same length, or None beyond the
# bound.  A block named after the suite holds cases, with truths the
# oracle's verdicts; any other name is a structural invariant, whose rows
# record (theorem_verdict, oracle_verdict) = (verdict, truth) when the two
# differ.  params(i) builds row i's parameter dict; the driver calls it only
# for a row it records, and before it asks for the next block, since params
# reads the generator's loop variables.  Counting, comparing and recording
# belong to the driver.
#
# Two helpers do what the suites share.  _stacked_truths makes every case
# truth, from one stacked oracle table for the cells that share a map.
# _replayed decides the criterion side once per distinct key, a key being
# what a cell's verdicts read, and replays it to the key's other cells; the
# lemma and the additive suites key their cells.  Per suite, the cells
# (fixed data by free axis) and what one table stacks:
#   lemma           (d, h) by u: the cells of one d
#   theorem1        (d, g0, u) by (k, b): one cell
#   proposition     (A, B) by g: the cells of one B
#   corollary2      commuting (A, B) by g: the cells of one A
#   trace_theorem   (A, h) by g: the cells of one A
#   hermite         (a, b) by (i, j): one cell
#   example_family  one cell by h

def _first_ids(keys) -> list:
    """Each key's id: the position of the first key equal to it."""
    first = {}
    return [first.setdefault(key, pos) for pos, key in enumerate(keys)]


def _replayed(keys, decide):
    """decide(pos) for each key of the list in turn, asked at the key's
    first position (its id, _first_ids) and replayed to its later positions.
    Every position of a key gets the same result object, so decide returns
    tuples, not lists.

    A suite keys a cell on what its verdicts read, so equal keys give equal
    verdicts.  Only the criterion side is replayed: the oracle side stays
    per position, so a wrong key shows up as disagreements.  A result is
    dropped at its key's last position, so on a corpus with no duplicate
    maps one cell is kept at a time.
    """
    ids = _first_ids(keys)
    last = {i: pos for pos, i in enumerate(ids)}
    kept = {}
    for pos, i in enumerate(ids):
        cell = kept.pop(i) if i in kept else decide(i)
        if last[i] != pos:
            kept[i] = cell
        yield cell


def _stacked_truths(T, cells, rows, vals):
    """The oracle verdicts of `cells` cells of `rows` rows each, one bool
    list per cell, from one table stacked in slices of at most
    STACK_MAX_ENTRIES entries (_by_slices): vals(k, r) gives the value rows
    of rows r of cells k, two index arrays.  Beyond the oracle bound (T is
    None) each cell's truths are None."""
    if T is None:
        return [None] * cells

    def block(lo, hi):
        k, r = np.divmod(np.arange(lo, hi), rows)
        return _perm_mask_rows(vals(k, r), T.q)
    return _by_slices(cells * rows, T.q, block).reshape(cells, rows).tolist()


def _lemma_cases(fld, seed, T):
    # a cell fixes (d, h), and its rows run over u.  A lemma verdict reads u
    # only through u mod d and gcd(u, m) = 1, and h only through
    # h.mu_positions(d): lemma_check is asked once per distinct pair of them
    q = fld.q
    us = range(1, q)
    ds = divisors(q - 1)
    hs = lemma_h_corpus(fld, 1, seed)
    # the whole grid is weighed before its first cell: its cases, each
    # divisor's h corpus being the size of the first's (LEMMA_H_COUNT)
    check_expansion(len(ds) * len(hs) * (q - 1),
                    f"the lemma grid of (d, h) cells by u for q={q}")
    for d in ds:
        m = (q - 1) // d
        if d > 1:
            hs = lemma_h_corpus(fld, d, seed)
        u_ids = _first_ids([(u % d, math.gcd(u, m) == 1) for u in us])

        def decide(hpos):
            by_id = {i: lemma_check(CyclotomicForm(us[i], d, hs[hpos])).verdict
                     for i in set(u_ids)}
            return tuple([by_id[i] for i in u_ids])
        if T is not None:
            w = value_rows([h.substituted_power(m) for h in hs], T)

        def vals(k, r):
            """The rows of h_k(x^m) times x^(r+1), with one x^u column per
            u of the slice."""
            u0s, at = np.unique(r, return_inverse=True)
            u_pows = np.stack([T.pow_col(u0 + 1) for u0 in u0s.tolist()])
            return T.mul_cols(u_pows[at], w[k])
        cells = zip(hs, _replayed([h.mu_positions(d) for h in hs], decide),
                    _stacked_truths(T, len(hs), q - 1, vals))
        for hpos, (h, verdicts, truths) in enumerate(cells):
            yield ("lemma", verdicts, truths,
                   lambda i: {"d": d, "u": us[i], "h": h.text(), "h_pos": hpos})


def _theorem1_cases(fld, seed, T, g0s=None):
    # f = x^u * H(x^m) with H = b*x^k + g; a cell fixes (d, g0, u), and its
    # d*q rows run over (k, b), row i at k = i // q and b = i % q.  Neither
    # the H(x^m) rows nor the law depend on u: both are made per (d, g0)
    q = fld.q
    ds = [d for d in divisors(q - 1) if d > 2]
    # the whole grid is weighed before its first cell and before its g0
    # corpus is drawn: its (d, g0, u) cells by b
    g0_count = q + THEOREM1_RANDOM_G0 if g0s is None else len(g0s)
    check_expansion(len(ds) * g0_count * (q - 1) * q,
                    f"the theorem1 grid of (d, g0, u) cells by b for q={q}")
    row = tuple.__new__
    if g0s is None:
        g0s = theorem1_g0_corpus(fld, seed)
    b_not0 = np.arange(1, q, dtype=np.int64)
    for d in ds:
        m = (q - 1) // d
        mu_not1 = np.array(fld.mu_d(d)[1:], dtype=np.int64)
        powm = None if T is None else T.pow_col(m)
        for g0pos, g0 in enumerate(g0s):
            g0_text = g0.text()
            held = None
            if T is not None:
                g = h_d_poly(fld, d) * g0
                w = value_table(g.substituted_power(m))
                g_mu = value_table(g)[mu_not1]

                # the H(x^m) rows of one slice, linear in b; the slice is all
                # d*q rows on every default grid, and then they are built once
                @functools.lru_cache(maxsize=1)
                def h_rows(lo, hi):
                    rows = np.arange(lo, hi)
                    ks = rows // q
                    v1 = np.stack([T.pow_col(k * m) for k in range(ks[0], ks[-1] + 1)])
                    return T.add_cols(T.mul_cols((rows % q)[:, None], v1[ks - ks[0]]),
                                      w[None, :])

                # away from 1 the induced map is z^u * (b*z^k + g(z))^m; z^u is a
                # unit, so the law b^m * z^(u+km) holds for one u exactly when
                # (b*z^k + g(z))^m = b^m * z^(km): one row per k checks it for
                # every b != 0, and its witness is searched for only when broken
                def law(lo, hi):
                    """Both sides of the u-free law for k in lo..hi-1, as
                    (k, b-1, z) arrays over z in mu_d minus {1}."""
                    ks = range(lo, hi)
                    zk = np.stack([T.pow_col(k)[mu_not1] for k in ks])
                    inner = T.add_cols(T.mul_cols(b_not0[None, :, None], zk[:, None, :]), g_mu)
                    zkm = np.stack([T.pow_col(k * m)[mu_not1] for k in ks])
                    return powm[inner], T.mul_cols(powm[b_not0][None, :, None], zkm[:, None, :])
                held = _by_slices(d, (q - 1) * (d - 1),
                                  lambda lo, hi: np.equal(*law(lo, hi)).all(axis=(1, 2)))
            for u in range(1, q):
                # the cell's corners validate its rows, which are then made
                # as plain tuples; theorem1_check is still asked once per row
                for corner in ((0, 0), (d - 1, q - 1)):
                    Theorem1Params(d, u, *corner, g0)
                verdicts = [theorem1_check(row(Theorem1Params, (d, u, k, b, g0))).verdict
                            for k in range(d) for b in range(q)]

                def params(i):
                    return {"d": d, "u": u, "k": i // q, "b": i % q, "g0": g0_text,
                            "g0_pos": g0pos}
                truths, = _stacked_truths(T, 1, d * q, lambda k, r: T.mul_cols(
                    T.pow_col(u)[None, :], h_rows(r[0], r[-1] + 1)))
                yield "theorem1", verdicts, truths, params

                def witness(k):
                    lhs, rhs = law(k, k + 1)
                    _, bad_b, bad_z = np.argwhere(lhs != rhs)[0]
                    return {"d": d, "u": u, "k": k, "b": int(b_not0[bad_b]),
                            "zeta": int(mu_not1[bad_z]), "g0": g0_text}
                yield "fhat_monomial_law", (True,) * d, held, witness


def _additive_truths(T, gs, maps):
    """The oracle side shared by the proposition and corollary2 suites:
    truths(pairs) gives the oracle verdicts on A(x) + g(B(x)) for each
    (A, B) pair of positions in maps and every g of the corpus, one bool
    list per pair (None beyond the oracle bound), stacked in one table
    (_stacked_truths).  G holds the g corpus's value rows and cols the
    maps' value columns, made once per suite call, so G[r, cols[b]] is the
    column of g_r(B(x)).  The criteria read nothing from here: they read
    g.values().
    """
    if T is not None:
        G = value_rows(gs, T)
        cols = value_rows([X.expand() for X in maps], T)

    def truths(pairs):
        a, b = np.array(pairs, dtype=np.int64).T
        return _stacked_truths(T, len(pairs), len(gs), lambda k, r: T.add_cols(
            cols[a[k]], G[r[:, None], cols[b[k]]]))
    return truths


def _proposition_cases(fld, seed, T):
    q = fld.q
    As = additive_poly_corpus(fld, seed)
    # the whole grid is weighed before its first cell: each (A, B) cell
    # walks F_q to label the cosets of A(ker B)
    check_expansion(len(As) ** 2 * q, f"the proposition grid of (A, B) cells by elements for q={q}")
    values = [A.values() for A in As]
    gs = arbitrary_g_corpus(fld, seed)
    a_texts = [A.expand().text() for A in As]
    g_texts = [g.text() for g in gs]
    truths_of = _additive_truths(T, gs, As)
    row = tuple.__new__

    def decide(pos):
        """subgroup_data, the verdicts under the least and under the
        greatest preimage, and necessary(r), the corollary1 verdict of g
        row r, decided on its first demand and kept."""
        A, B = As[pos % len(As)], As[pos // len(As)]
        data = subgroup_data(A, B)
        data_swap = subgroup_data(A, B, preimage="greatest")
        # the cell's first and last rows validate it; its rows are then
        # made as plain tuples
        AdditiveTriple(A, B, gs[0]), AdditiveTriple(A, B, gs[-1])
        trs = [row(AdditiveTriple, (A, B, g)) for g in gs]
        verdicts, swapped = (tuple([proposition_check(tr, data=dt).verdict for tr in trs])
                             for dt in (data, data_swap))
        return data, verdicts, swapped, functools.cache(
            lambda r: necessary_conditions_check(trs[r], data=data).verdict)

    # the cells in the order of the loop below, B outer and A inner, keyed
    # on the maps' values, all that the criteria read of A and B
    cells = _replayed([(a, b) for b in values for a in values], decide)
    for bpos in range(len(As)):
        for apos, truths in enumerate(truths_of([(apos, bpos) for apos in range(len(As))])):
            data, verdicts, swapped, necessary = next(cells)
            if apos == 0:
                yield ("rank_nullity", (True,), (len(data.kernel) * len(data.image) == q,),
                       lambda _: {"B": a_texts[bpos], "kernel": len(data.kernel),
                                  "image": len(data.image)})

            def params(gpos):
                return {"A_pos": apos, "B_pos": bpos, "g_pos": gpos,
                        "A": a_texts[apos], "B": a_texts[bpos], "g": g_texts[gpos]}
            yield "right_inverse_swap", verdicts, swapped, params
            yield "proposition", verdicts, truths, params
            if truths is not None:
                # corollary1 is asked only on the rows the oracle holds
                held = list(itertools.compress(range(len(truths)), truths))
                yield ("corollary1", [necessary(r) for r in held], [truths[r] for r in held],
                       lambda i: params(held[i]))


def _corollary2_cases(fld, seed, T):
    q = fld.q
    As = additive_poly_corpus(fld, seed)
    gs = arbitrary_g_corpus(fld, seed)
    # a pair is two positions in maps: As, then the F_p-coefficient A that
    # are paired with the trace map, then the trace map
    maps = As + prime_field_additive_corpus(fld) + [trace_poly(fld)]
    values = [X.values() for X in maps]
    trace_b = len(maps) - 1
    pairs = [(a, b) for a in range(len(As)) for b in range(len(As))
             if additive_commutes(As[a], As[b])]
    seen = {(maps[a], maps[b]) for a, b in pairs}
    pairs += [(a, trace_b) for a in range(len(As), trace_b)
              if (maps[a], maps[trace_b]) not in seen]
    # the whole grid is weighed before its first cell: each pair walks F_q
    # to label the cosets of A(ker B)
    check_expansion(len(pairs) * q, f"the corollary2 grid of (A, B) pairs by elements for q={q}")
    g_texts = [g.text() for g in gs]
    truths_of = _additive_truths(T, gs, maps)
    row = tuple.__new__

    def decide(pos):
        A, B = (maps[x] for x in pairs[pos])
        data = subgroup_data(A, B)
        AdditiveTriple(A, B, gs[0]), AdditiveTriple(A, B, gs[-1])
        return tuple([commuting_criterion_check(row(AdditiveTriple, (A, B, g)), data=data).verdict
                      for g in gs])

    # keyed on the maps' values, all that the criterion reads of A and B
    cells = _replayed([(values[a], values[b]) for a, b in pairs], decide)
    # the oracle stacks the pairs of one A, consecutive in pairs
    for _, group in itertools.groupby(enumerate(pairs), key=lambda at: at[1][0]):
        group = list(group)
        for (ppos, (a, b)), truths in zip(group, truths_of([ab for _, ab in group])):
            yield ("corollary2", next(cells), truths,
                   lambda gpos: {"pair_pos": ppos, "g_pos": gpos, "A": maps[a].expand().text(),
                                 "B": maps[b].expand().text(), "g": g_texts[gpos]})


def _trace_theorem_cases(fld, seed, T):
    q = fld.q
    As = prime_field_additive_corpus(fld)
    hs = prime_coeff_poly_corpus(fld)
    # the whole grid is weighed before its first cell: each A walks F_q
    # once, and each (A, h) cell reads its rows on F_p only
    check_expansion(len(As) * (q + len(hs) * fld.p),
                    f"the trace_theorem grid of A walks and (A, h) cells for q={q}")
    # a verdict reads A only on ker Tr, as a set, and on F_p, and h only on
    # F_p: A is keyed on its sorted kernel values, read from its values, and
    # its prime values, h on its prime values
    _, kernel = _trace_map(fld)
    a_keys = [(tuple(sorted(map(A.values().__getitem__, kernel))), A.prime_values())
              for A in As]
    gs = trace_g_corpus(fld, seed)
    h_texts = [h.text() for h in hs]
    g_texts = [g.text() for g in gs]
    if T is not None:
        bcol = value_table(trace_poly(fld).expand())
        gcols = value_rows(gs, T)[:, bcol]
        hcols = value_rows(hs, T)[:, bcol]
        acols = value_rows([A.expand() for A in As], T)
    row = tuple.__new__

    def decide(pos):
        A, h = As[pos // len(hs)], hs[pos % len(hs)]
        # the cell's first and last rows validate it; its rows are then
        # made as plain tuples
        TraceTheoremParams(gs[0], A, h), TraceTheoremParams(gs[-1], A, h)
        return tuple([trace_theorem_check(row(TraceTheoremParams, (g, A, h))).verdict
                      for g in gs])

    # the cells in the order of the loop below: A outer, h inner; the
    # oracle stacks the cells of one A
    cells = _replayed([(a, h.prime_values()) for a in a_keys for h in hs], decide)
    for apos, A in enumerate(As):
        if T is not None:
            ha = T.mul_cols(hcols, acols[apos])
        by_h = _stacked_truths(T, len(hs), len(gs), lambda k, r: T.add_cols(gcols[r], ha[k]))
        for hpos, truths in enumerate(by_h):
            yield ("trace_theorem", next(cells), truths,
                   lambda gpos: {"A_pos": apos, "h_pos": hpos, "g_pos": gpos,
                                 "A": A.expand().text(), "h": h_texts[hpos], "g": g_texts[gpos]})


def _hermite_cases(fld, seed, T):
    # the grid is filtered to the sufficient conditions, so every verdict is
    # True; a cell fixes (a, b), and its rows run over the exponents (i, j).
    # hermite_sufficient reads a and b only through hermite_coeff_ok, and i
    # and j only through hermite_exp_ok, which the filter makes true on every
    # row: it is asked once per cell and its verdict replayed to the rows
    q = fld.q
    good_coeffs = [a for a in fld.units() if hermite_coeff_ok(fld, a)]
    good_exps = [i for i in range(1, q) if hermite_exp_ok(fld, i)]
    check_expansion(len(good_exps) ** 2, f"the hermite exponent grid for q={q}")
    # the whole grid is weighed before its first cell.  It admits no field
    # past q = 79, so a cell's (rows, terms, q) table stays within
    # STACK_MAX_ENTRIES (185,024 entries at most, on q = 59), unsliced
    check_expansion(len(good_coeffs) ** 2 * len(good_exps) ** 2,
                    f"the hermite grid of (a, b) cells by exponent pairs for q={q}")
    exps = list(itertools.product(good_exps, good_exps))
    rows = len(exps)
    verdicts = [True] * rows
    if T is not None:
        sq_mask = T.pow_col((q - 1) // 2) == 1   # the nonzero squares
        # x^e at every element, row e for e = 0..q-1: the grid's families
        # have reduced terms and exponents i, j below q
        pows = np.stack([T.pow_col(e) for e in range(q)])
        # the x^i and x^j rows of the grid's exponent pairs, for the
        # pieces 2a*x^i on the squares and 2b*x^j on the non-squares
        x_i, x_j = pows[np.array(exps).T]
    row = tuple.__new__
    for a, b in itertools.product(good_coeffs, good_coeffs):
        # the cell's corners validate its rows, which are then made as tuples
        first = HermiteParams(fld, a, b, *exps[0])
        HermiteParams(fld, a, b, *exps[-1])

        def params(r):
            return {"a": a, "b": b, "i": exps[r][0], "j": exps[r][1]}
        yield ("hermite_sufficient", verdicts, [hermite_sufficient(first).verdict] * rows,
               params)
        if T is not None:
            terms = [hermite_family(row(HermiteParams, (fld, a, b, i, j))).terms
                     for i, j in exps]
            # each row's terms padded with (0, 0) to the cell's widest row:
            # 0*x^0 is the zero column, so a padded row sums to its own
            # polynomial.  es and cs are (term, row) exponent and coefficient
            # arrays
            width = max(map(len, terms))
            flat = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(
                t + ((0, 0),) * (width - len(t)) for t in terms)),
                dtype=np.int64, count=2 * rows * width)
            es, cs = flat.reshape(rows, width, 2).T
            vals = functools.reduce(T.add_cols, T.mul_cols(cs[:, :, None], pows[es]))
            piecewise = np.where(sq_mask, T.mul_cols(T.add_cols(a, a), x_i),
                                 T.mul_cols(T.add_cols(b, b), x_j))
            piecewise[:, 0] = 0
        truths, = _stacked_truths(T, 1, rows, lambda k, r: vals[r])
        yield "hermite", verdicts, truths, params
        if T is not None:
            yield "hermite_piecewise", verdicts, (vals == piecewise).all(axis=1), params


def _example_family_cases(fld, seed, T):
    hs = example_h_corpus(fld, seed)
    fs = [example_family(fld, h) for h in hs]

    def params(hpos):
        return {"h": hs[hpos].text(), "h_pos": hpos, "poly": fs[hpos].text()}
    yield "example_degree", (True,), (fs[0].degree == 2 * fld.p,), params
    truths, = _stacked_truths(T, 1, len(fs), lambda k, r: value_rows([fs[i] for i in r], T))
    yield "example_family", [True] * len(fs), truths, params


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


def _as_list(rows) -> list:
    """A block's verdicts or truths as a list of Python values."""
    if type(rows) is list:
        return rows
    return rows.tolist() if isinstance(rows, np.ndarray) else list(rows)


def run_equivalence_suite(suite: str, fields=None, seed=SAMPLE_SEED,
                          max_q: int = None, **options) -> EquivalenceReport:
    """Run one named suite over a field list and report all disagreements.

    fields defaults to the suite's standard grid; entries may be Field
    objects or "p^n" strings.  Fields outside a suite's hypotheses are
    skipped and listed in the report.  Cases on fields beyond the
    brute-force bound are condition-checked only and counted in
    oracle_skipped.  Keyword options are forwarded to the suite (e.g.
    g0s for the theorem1 suite to restrict its g0 grid).  A suite block
    whose truths and verdicts differ in length raises ValueError rather
    than being broadcast.
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
        for construction, verdicts, truths, params in cases(fld, seed, T, **options):
            rows = len(verdicts) if construction == name else 0
            rep.cases_run += rows
            if truths is None:
                rep.oracle_skipped += rows
                continue
            if len(truths) != len(verdicts):
                raise ValueError(f"{construction}: {len(verdicts)} verdicts, {len(truths)} truths")
            # two lists compare in C; row indices are looked up only in a
            # block that differs
            verdicts, truths = _as_list(verdicts), _as_list(truths)
            if verdicts != truths:
                for i, (verdict, truth) in enumerate(zip(verdicts, truths)):
                    if verdict != truth:
                        rep.record(fld, construction, params(i), verdict, truth)
    rep.elapsed = time.perf_counter() - t0
    return rep
