"""Brute-force oracle contract, its vector/scalar consistency, and the
suite driver, including its power to catch a broken criterion."""

import collections
import dataclasses
import functools
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from ppforge import oracle
from ppforge.additive import (AdditiveTriple, TraceTheoremParams, commuting_criterion_check,
                              necessary_conditions_check, proposition_check, subgroup_data,
                              trace_theorem_check, trace_theorem_poly, triple_poly)
from ppforge import cyclotomic
from ppforge.cyclotomic import (HermiteParams, Theorem1Params, fhat_on_mu_d, hermite_coeff_ok,
                                hermite_exp_ok, hermite_family, hermite_sufficient,
                                lemma_check, theorem1_poly)
from ppforge.errors import ExpansionTooLargeError, OracleBoundError, UnknownSuiteError
from ppforge.field import VECTOR_MAX_Q, Field, FieldTables, divisors, make_field, parse_field
from ppforge.oracle import (SUITE_NAMES, additive_poly_corpus, is_permutation,
                            lemma_h_corpus, run_equivalence_suite,
                            theorem1_g0_corpus, value_rows, value_table)
from ppforge.poly import (AdditivePoly, CyclotomicForm, FqPoly, additive_commutes,
                          expand_cyclotomic, h_d_poly, parse_additive, parse_poly,
                          trace_poly)
from ppforge.report import ConditionReport

F7 = make_field(7)
F9 = make_field(3, 2)


def test_is_permutation_examples():
    assert is_permutation(FqPoly.x(F7))
    assert not is_permutation(parse_poly(F7, "x^2"))
    f = parse_poly(F7, "x^5+x^3+3*x")
    assert tuple(value_table(f)) == (0, 5, 4, 6, 1, 3, 2)
    assert is_permutation(f)


def test_value_table_matches_scalar_horner():
    rng = random.Random("vt")
    for fld in (F7, F9, make_field(2, 4)):
        for _ in range(10):
            coeffs = {rng.randrange(4 * fld.q): rng.randrange(fld.q) for _ in range(6)}
            deg = max(coeffs)
            f = FqPoly(fld, [coeffs.get(e, 0) for e in range(deg + 1)])
            assert list(value_table(f)) == [f.eval(a) for a in fld.elements()]


# one field per column tier: XOR (2^4, 2^10, 2^16) and packed digits, the
# latter with the add table beside them (13, 7^3), without it (3^7, 251^2)
# and on a prime above 512 (4099)
ROW_FIELDS = [(13, 1), (7, 3), (2, 4), (2, 10), (3, 7), (251, 2), (2, 16), (4099, 1)]


@pytest.mark.parametrize("p,n", ROW_FIELDS)
def test_value_rows_equal_stacked_value_tables(p, n, monkeypatch):
    fld = make_field(p, n)
    q, T = fld.q, fld.tables()
    rng = random.Random(f"rows/{q}")
    zero = FqPoly(fld)
    sparse = [FqPoly(fld, [0] * e + [rng.randrange(1, q)]) for e in rng.sample(range(1, 3 * q), 3)]
    d = divisors(q - 1)[1]
    lemma = [h.substituted_power((q - 1) // d) for h in lemma_h_corpus(fld, d, 5)[:12]]
    corpora = [
        [zero, FqPoly(fld, [0, 1, rng.randrange(1, q)]), zero, *sparse,   # no constant term
         FqPoly(fld, [rng.randrange(q) for _ in range(6)]), FqPoly.one(fld)],
        [zero], [zero, zero], [sparse[0]], lemma]
    for polys in corpora:
        rows = value_rows(polys, T)
        assert rows.dtype == np.int64 and rows.shape == (len(polys), q)
        assert rows.tolist() == np.stack([value_table(f) for f in polys]).tolist()
    # the lemma's h(x^m) rows fold onto mu_d: every term column holds d values
    columns = []
    real = FieldTables.scalar_mul
    monkeypatch.setattr(FieldTables, "scalar_mul",
                        lambda self, c, xs: columns.extend([xs.shape[-1]] * len(xs))
                        or real(self, c, xs))
    value_rows(lemma, T)
    assert columns and set(columns) == {d}
    # slices of three rows, the last one short, stack the same rows
    monkeypatch.setattr(oracle, "STACK_MAX_ENTRIES", 3 * q)
    assert value_rows(lemma, T).tolist() == np.stack([value_table(f) for f in lemma]).tolist()


def test_lemma_evaluates_each_divisor_in_one_eval_col_call(monkeypatch):
    # the 200 h(x^m) rows of a divisor are one eval_col call: 6 on F_13
    fld = parse_field("13")
    real = FieldTables.eval_col
    rows = []

    def spy(self, terms):
        rows.append(terms[0][1].shape)
        return real(self, terms)
    monkeypatch.setattr(FieldTables, "eval_col", spy)
    rep = run_equivalence_suite("lemma", fields=[fld])
    assert rep.passed() and rep.cases_run == 14400
    assert rows == [(oracle.LEMMA_H_COUNT, 1)] * len(divisors(12)) == [(200, 1)] * 6


@pytest.mark.parametrize("p,n", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (2, 4), (5, 2), (3, 3), (7, 2)])
def test_monomial_criterion(p, n):
    fld = make_field(p, n)
    q = fld.q
    for u in range(1, 2 * (q - 1) + 1):
        f = FqPoly.monomial(fld, 1, u)
        assert is_permutation(f) == (math.gcd(u, q - 1) == 1)


def test_reduce_invariance():
    rng = random.Random("red")
    for _ in range(10):
        coeffs = {rng.randrange(5 * 9): rng.randrange(9) for _ in range(5)}
        deg = max(coeffs)
        f = FqPoly(F9, [coeffs.get(e, 0) for e in range(deg + 1)])
        assert is_permutation(f) == is_permutation(f.reduce_exponents())


def test_bound_errors():
    with pytest.raises(OracleBoundError):
        is_permutation(FqPoly.x(make_field(7, 2)), max_q=10)
    # within the bound everything works
    assert is_permutation(FqPoly.x(make_field(7, 2)), max_q=49)


def test_batched_linearity_identity():
    # the theorem1 suite evaluates f_b = x^u*(b*x^(km) + g(x^m)) for all b
    # through linearity in b; pin that identity against value_table
    rng = random.Random("linb")
    for fld in (F7, F9):
        q = fld.q
        for d in [d for d in divisors(q - 1) if d > 2]:
            m = (q - 1) // d
            for _ in range(4):
                u = rng.randrange(1, q)
                k = rng.randrange(0, d)
                g0 = FqPoly(fld, [rng.randrange(q) for _ in range(3)])
                v1 = value_table(FqPoly.monomial(fld, 1, u + k * m))
                p0 = Theorem1Params(d, u, k, 0, g0)
                v2 = value_table(theorem1_poly(p0))      # the b=0 slice
                for b in fld.elements():
                    fb = value_table(theorem1_poly(Theorem1Params(d, u, k, b, g0)))
                    combined = [fld.add(fld.mul(b, int(x1)), int(x2))
                                for x1, x2 in zip(v1, v2)]
                    assert list(fb) == combined


def _rows(suite, fld):
    """The suite's blocks on fld, expanded into (construction, params,
    verdict, truth) rows, with truth None beyond the oracle bound.  params
    is built for the suite's own cases only: an invariant's params(i) may
    be its witness, which exists only when the invariant is broken."""
    for construction, verdicts, truths, params in oracle.SUITES[suite][1](
            fld, oracle.SAMPLE_SEED, fld.tables()):
        for i, verdict in enumerate(verdicts):
            yield (construction, params(i) if construction == suite else None, verdict,
                   None if truths is None else bool(truths[i]))


def _expanded(suite, fld, params) -> FqPoly:
    """The polynomial of one additive-suite case, rebuilt from its texts."""
    A, g = parse_additive(fld, params["A"]), parse_poly(fld, params["g"])
    if suite == "trace_theorem":
        return trace_theorem_poly(TraceTheoremParams(g, A, parse_poly(fld, params["h"])))
    return triple_poly(AdditiveTriple(A, parse_additive(fld, params["B"]), g))


@pytest.mark.parametrize("suite,spec", [("proposition", "3"), ("proposition", "2^2"),
                                        ("corollary2", "2^2"), ("corollary2", "3^2"),
                                        ("trace_theorem", "2^3"), ("trace_theorem", "3^2"),
                                        ("theorem1", "7"), ("theorem1", "3^2"),
                                        ("lemma", "7"), ("lemma", "3^2"),
                                        ("hermite", "7"), ("hermite", "3^2")])
def test_batched_additive_truths_match_the_expanded_polynomial(suite, spec):
    # every suite decides the rows of a cell with one stacked oracle table;
    # pin sampled truths of both signs (hermite's grid holds only permutations)
    # against is_permutation of the polynomial rebuilt from the recorded
    # params, which shares no code with the criteria
    fld = parse_field(spec)
    by_truth = {True: [], False: []}
    for construction, params, _, truth in _rows(suite, fld):
        if construction == suite:
            by_truth[truth].append(params)
    assert by_truth[True] and (suite == "hermite") != bool(by_truth[False])
    rng = random.Random(f"batched/{suite}/{spec}")
    for truth, rows in by_truth.items():
        for params in rng.sample(rows, min(len(rows), 60)):
            assert is_permutation(_rebuilt(suite, fld, params)) == truth, params


def _counting_eval(monkeypatch, cls):
    """Patch cls.eval to count calls per polynomial object."""
    calls, keep = collections.Counter(), []
    real = cls.eval

    def counted(self, a):
        if id(self) not in calls:
            keep.append(self)  # keeps ids unique while counting
        calls[id(self)] += 1
        return real(self, a)
    monkeypatch.setattr(cls, "eval", counted)
    return calls


@pytest.mark.parametrize("suite,spec", [("proposition", "2^2"), ("proposition", "3"),
                                        ("corollary2", "2^2"), ("corollary2", "3"),
                                        ("trace_theorem", "2^3")])
def test_each_additive_map_is_walked_once(monkeypatch, suite, spec):
    # every walk of F_q goes through values(), kept per object: no g is
    # evaluated more than q times, and no additive map more than n times,
    # at its basis t^i, however many cells use it; the trace criterion
    # reads its g and h on F_p only, p times each
    fld = parse_field(spec)
    seed = oracle.SAMPLE_SEED
    g_reads = fld.q
    if suite == "trace_theorem":
        g_reads = fld.p
        maps = len(oracle.prime_field_additive_corpus(fld)) + 1  # and the trace map
        polys = len(oracle.prime_coeff_poly_corpus(fld)) + len(oracle.trace_g_corpus(fld, seed))
    else:
        maps = len(additive_poly_corpus(fld, seed))
        polys = len(oracle.arbitrary_g_corpus(fld, seed))
    if suite == "corollary2":
        maps += 1 + len(oracle.prime_field_additive_corpus(fld))  # the trace pairs
    calls = _counting_eval(monkeypatch, AdditivePoly)
    g_calls = _counting_eval(monkeypatch, FqPoly)
    for _ in _rows(suite, fld):
        pass
    assert max(calls.values()) == fld.n
    assert sum(calls.values()) <= maps * fld.n
    assert max(g_calls.values()) == g_reads
    assert sum(g_calls.values()) <= polys * g_reads


def _fresh_verdicts(suite, fld):
    """fresh(construction, at, g_rows): the scalar verdicts of the rows of
    one additive-suite block at the g positions g_rows, asked anew with the
    objects at its corpus position (the params at) as pairs (verdict,
    verdict under the greatest preimage).  Nothing is kept per map."""
    seed = oracle.SAMPLE_SEED
    if suite == "trace_theorem":
        As, hs = oracle.prime_field_additive_corpus(fld), oracle.prime_coeff_poly_corpus(fld)
        gs = oracle.trace_g_corpus(fld, seed)
    else:
        As, gs = additive_poly_corpus(fld, seed), oracle.arbitrary_g_corpus(fld, seed)

    def fresh(construction, at, g_rows):
        if construction == "trace_theorem":
            A, h = As[at["A_pos"]], hs[at["h_pos"]]
            return [(trace_theorem_check(TraceTheoremParams(gs[r], A, h)).verdict, None)
                    for r in g_rows]
        if construction == "corollary2":
            A, B = parse_additive(fld, at["A"]), parse_additive(fld, at["B"])
            data = subgroup_data(A, B)
            return [(commuting_criterion_check(AdditiveTriple(A, B, gs[r]), data=data).verdict,
                     None) for r in g_rows]
        A, B = As[at["A_pos"]], As[at["B_pos"]]
        data, swap = position_data(at["A_pos"], at["B_pos"])
        trs = [AdditiveTriple(A, B, gs[r]) for r in g_rows]
        if construction == "corollary1":
            return [(necessary_conditions_check(tr, data=data).verdict, None) for tr in trs]
        return [(proposition_check(tr, data=data).verdict,
                 construction == "right_inverse_swap" and proposition_check(tr, data=swap).verdict)
                for tr in trs]

    # a position's blocks come one after another: its subgroup data is kept
    # for them, and for no other position
    @functools.lru_cache(maxsize=1)
    def position_data(apos, bpos):
        return (subgroup_data(As[apos], As[bpos]),
                subgroup_data(As[apos], As[bpos], preimage="greatest"))
    return fresh


# trace_theorem on 3^3 merges different A maps (27 maps, 4 readings on
# ker Tr and F_p), and on 2^3 different h (8 maps, 4 readings on F_2)
REPLAYED = ([(suite, spec) for suite in ("proposition", "corollary2")
             for spec in ("3", "5", "2^2", "3^2")]
            + [("trace_theorem", spec) for spec in ("2^2", "2^3", "3^2", "3^3")])


@pytest.mark.parametrize("suite,spec", REPLAYED)
def test_replayed_verdicts_equal_fresh_scalar_calls(suite, spec):
    # each distinct additive cell is decided once and its verdicts replayed
    # to every position with the same maps: every block's verdicts, the
    # invariants' included, must be what the scalar criteria say when asked
    # anew with the objects at that position
    fld = parse_field(spec)
    fresh_verdicts = _fresh_verdicts(suite, fld)
    blocks = collections.Counter()
    for construction, verdicts, truths, params in oracle.SUITES[suite][1](
            fld, oracle.SAMPLE_SEED, fld.tables()):
        blocks[construction] += 1
        if not verdicts:
            continue
        at = params(0)
        if construction == "rank_nullity":
            data = subgroup_data(AdditivePoly(fld), parse_additive(fld, at["B"]))
            assert tuple(truths) == (len(data.kernel) * len(data.image) == fld.q,)
            continue
        # a cell's rows run over the g corpus; corollary1 keeps the held ones
        rows = range(len(verdicts))
        g_rows = [params(i)["g_pos"] for i in rows] if construction == "corollary1" else rows
        fresh = fresh_verdicts(construction, at, g_rows)
        assert list(verdicts) == [v for v, _ in fresh], (construction, at)
        if construction == "right_inverse_swap":
            assert list(truths) == [s for _, s in fresh], at
    assert set(blocks) == ({"rank_nullity", "right_inverse_swap", "proposition", "corollary1"}
                           if suite == "proposition" else {suite})


def _counting(monkeypatch, names):
    """Patch each name in oracle to count its calls."""
    calls = collections.Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call
    for name in names:
        monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
    return calls


def test_each_distinct_proposition_cell_is_decided_once(monkeypatch):
    # on F_5, x^5 = x: the 38 corpus entries are the 5 maps c*x, so the 38^2
    # cells hold 25 distinct (A, B) map pairs, each decided once under both
    # preimage rules over the 28 g
    calls = _counting(monkeypatch, ("proposition_check", "subgroup_data",
                                    "necessary_conditions_check"))
    fld = parse_field("5")
    gs = len(oracle.arbitrary_g_corpus(fld, oracle.SAMPLE_SEED))
    rep = run_equivalence_suite("proposition", fields=[fld])
    assert rep.passed() and rep.cases_run == 38 * 38 * gs
    assert gs == 28 and calls["proposition_check"] == 2 * 5 * 5 * gs
    assert calls["subgroup_data"] == 2 * 5 * 5
    assert 0 < calls["necessary_conditions_check"] <= 5 * 5 * gs


@pytest.mark.parametrize("suite,spec,criterion,cells", [
    # a trace_theorem cell is an (A, h) reading: A's values on ker Tr, as a
    # set, and on F_p, and h's values on F_p
    ("trace_theorem", "2^3", "trace_theorem_check", 4 * 4),    # 8 A and 8 h, 4 readings each
    ("trace_theorem", "3^2", "trace_theorem_check", 6 * 27),   # 9 A maps, 6 readings
    ("trace_theorem", "3^3", "trace_theorem_check", 4 * 27),   # 27 A maps, 4 readings
    ("corollary2", "2^4", "commuting_criterion_check", None)])   # 57 maps: one per case
def test_each_distinct_cell_is_decided_once(monkeypatch, suite, spec, criterion, cells):
    # one criterion call per g row of each distinct cell; on a corpus with
    # no duplicate maps that is one call per case, as without the replay
    calls = _counting(monkeypatch, (criterion,))
    rep = run_equivalence_suite(suite, fields=[spec])
    rows = rep.cases_run if cells is None else cells * oracle.TRACE_G_COUNT
    assert rep.passed() and calls[criterion] == rows


@pytest.mark.parametrize("suite,spec", [("lemma", "7"), ("proposition", "3"),
                                        ("corollary2", "2^2"), ("trace_theorem", "3^3")])
def test_a_wrong_key_shows_up_as_disagreements(monkeypatch, suite, spec):
    # only the criterion side is replayed: with every key given id 0, every
    # cell replays the first one's verdicts, while each position's truths
    # still come from its own rows of the oracle table
    cases = run_equivalence_suite(suite, fields=[spec]).cases_run
    monkeypatch.setattr(oracle, "_first_ids", lambda keys: [0] * len(keys))
    rep = run_equivalence_suite(suite, fields=[spec])
    assert rep.cases_run == cases
    assert suite in {d.construction for d in rep.disagreements}


def test_lemma_reads_h_once_per_root(monkeypatch):
    # h(z) does not depend on u: the lemma suite evaluates each h of a
    # (d, h) cell at most once per root of mu_d, however many u it decides
    calls = _counting_eval(monkeypatch, FqPoly)
    rows = roots = 0
    for fld in (parse_field("13"), parse_field("3^2")):
        rows += sum(1 for _ in _rows("lemma", fld))
        roots += sum(oracle.LEMMA_H_COUNT * d for d in divisors(fld.q - 1))
    assert rows == oracle.LEMMA_H_COUNT * (6 * 12 + 4 * 8)
    assert sum(calls.values()) <= roots


@pytest.mark.parametrize("spec", ["7", "13", "3^2", "2^4"])
def test_lemma_verdicts_equal_fresh_scalar_calls(spec):
    # the lemma suite asks lemma_check once per distinct (h.mu_positions(d),
    # u mod d, gcd(u, m) = 1) and replays its verdict: every block must be
    # what lemma_check says when asked anew at that (d, h, u)
    fld = parse_field(spec)
    hs = {d: lemma_h_corpus(fld, d, oracle.SAMPLE_SEED) for d in divisors(fld.q - 1)}
    blocks = 0
    for construction, verdicts, truths, params in oracle.SUITES["lemma"][1](
            fld, oracle.SAMPLE_SEED, fld.tables()):
        at = params(0)
        h = hs[at["d"]][at["h_pos"]]
        assert construction == "lemma" and len(verdicts) == len(truths) == fld.q - 1
        assert list(verdicts) == [lemma_check(CyclotomicForm(u, at["d"], h)).verdict
                                  for u in range(1, fld.q)], at
        blocks += 1
    assert blocks == oracle.LEMMA_H_COUNT * len(hs)


def test_lemma_check_is_asked_once_per_distinct_key(monkeypatch):
    # on F_13 the 14,400 lemma cases hold 5,275 distinct keys: per d, the
    # distinct h.mu_positions(d) times the distinct (u mod d, gcd(u, m) = 1)
    calls = _counting(monkeypatch, ("lemma_check",))
    fld = parse_field("13")
    rep = run_equivalence_suite("lemma", fields=[fld])
    assert rep.passed() and rep.cases_run == 14400
    keys = 0
    for d in divisors(12):
        m = 12 // d
        positions = {h.mu_positions(d) for h in lemma_h_corpus(fld, d, oracle.SAMPLE_SEED)}
        keys += len(positions) * len({(u % d, math.gcd(u, m) == 1) for u in range(1, 13)})
    assert calls["lemma_check"] == keys == 5275


def test_lemma_truths_do_not_depend_on_the_slice(monkeypatch):
    # the rows of all h of a divisor are stacked in one table; slices of
    # five rows cut it across h boundaries and across the u axis
    fld = F7

    def truths():
        return [list(truths) for _, _, truths, _ in oracle.SUITES["lemma"][1](
            fld, oracle.SAMPLE_SEED, fld.tables())]
    whole = truths()
    monkeypatch.setattr(oracle, "STACK_MAX_ENTRIES", 5 * fld.q)
    assert truths() == whole
    # and the stacked rows are those of the expanded polynomials
    rows = [is_permutation(expand_cyclotomic(CyclotomicForm(u, d, h)))
            for d in divisors(6) for h in lemma_h_corpus(fld, d, oracle.SAMPLE_SEED)
            for u in range(1, 7)]
    assert [t for block in whole for t in block] == rows


@pytest.mark.parametrize("suite,spec", [("proposition", "3"), ("corollary2", "2^2"),
                                        ("trace_theorem", "2^3")])
def test_additive_truths_do_not_depend_on_the_slice(monkeypatch, suite, spec):
    # the additive suites stack the cells of one map in one table: one per B
    # for the proposition, one per A for corollary2 and trace_theorem.
    # Slices of five rows cut it across g rows and across cells, and no
    # table the row test receives holds more than the bound
    fld = parse_field(spec)
    if suite == "trace_theorem":
        maps = len(oracle.prime_field_additive_corpus(fld))
    else:
        maps = len(additive_poly_corpus(fld, oracle.SAMPLE_SEED))
    if suite == "corollary2":
        maps += len(oracle.prime_field_additive_corpus(fld))   # those paired with the trace
    tables, real = [], oracle._perm_mask_rows

    def spied(vals, q):
        tables.append(vals.size)
        return real(vals, q)
    monkeypatch.setattr(oracle, "_perm_mask_rows", spied)

    def truths():
        tables.clear()
        return [(construction, list(truths)) for construction, _, truths, _
                in oracle.SUITES[suite][1](fld, oracle.SAMPLE_SEED, fld.tables())]
    whole = truths()
    cells = sum(construction == suite for construction, _ in whole)
    assert len(tables) <= maps < cells and max(tables) <= oracle.STACK_MAX_ENTRIES
    monkeypatch.setattr(oracle, "STACK_MAX_ENTRIES", 5 * fld.q)
    assert truths() == whole
    assert len(tables) > maps and max(tables) <= 5 * fld.q


def _lemma_h_one(monkeypatch):
    """Restrict the lemma suite's h grid to h = 1, where f = x^u."""
    monkeypatch.setattr(oracle, "lemma_h_corpus", lambda fld, d, seed: [FqPoly.one(fld)])


def test_stacked_tables_stay_within_the_entry_bound(monkeypatch):
    # one stacked table of the lemma on 2^10 would hold 1023 x 1024 entries
    # (8 MB a copy); the rows are stacked in slices of at most
    # STACK_MAX_ENTRIES entries
    fld = parse_field("2^10")
    _lemma_h_one(monkeypatch)
    tracemalloc.start()
    try:
        rep = run_equivalence_suite("lemma", fields=[fld])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed() and rep.cases_run == 8184
    assert peak < 16 * 2 ** 20


def test_values_is_one_walk(monkeypatch):
    # the one kept walk, for an additive map (its n basis images) and for
    # an FqPoly (every element)
    A, g = parse_additive(F9, "x^3+3*x"), parse_poly(F9, "x^5+3*x^2+1")
    for X, expanded, evals in ((A, A.expand(), F9.n), (g, g, F9.q)):
        calls = _counting_eval(monkeypatch, type(X))
        first = X.values()
        assert sum(calls.values()) == evals
        assert X.values() is first and sum(calls.values()) == evals
        assert first == tuple(value_table(expanded))


def _verdicts_and_truths(suite, spec):
    rows = [(verdict, truth) for construction, _, verdict, truth
            in _rows(suite, parse_field(spec)) if construction == suite]
    return [v for v, _ in rows], [t for _, t in rows]


def test_oracle_truths_read_no_criterion_data(monkeypatch):
    # corrupt what the criteria read (the image of B, and scalar FqPoly.eval):
    # the verdicts change, the oracle's truths must not
    cases = [("proposition", "3"), ("corollary2", "2^2"), ("trace_theorem", "2^3"),
             ("lemma", "7")]
    clean = [_verdicts_and_truths(*case) for case in cases]
    real_subgroup_data, real_eval = oracle.subgroup_data, FqPoly.eval

    def short_image(*args, **kwargs):
        data = real_subgroup_data(*args, **kwargs)
        return dataclasses.replace(data, image=data.image[:-1])
    monkeypatch.setattr(oracle, "subgroup_data", short_image)
    monkeypatch.setattr(FqPoly, "eval", lambda self, a: self.field.add(real_eval(self, a), 1))
    for case, (verdicts, truths) in zip(cases, clean):
        patched_verdicts, patched_truths = _verdicts_and_truths(*case)
        assert patched_verdicts != verdicts, case
        assert patched_truths == truths, case


def test_run_suite_unknown_name():
    with pytest.raises(UnknownSuiteError):
        run_equivalence_suite("nonsense")


def test_run_suite_empty_field_list():
    rep = run_equivalence_suite("lemma", fields=[])
    assert rep.cases_run == 0 and rep.passed()


def test_run_suite_example_alias():
    rep = run_equivalence_suite("example", fields=["3^2"])
    assert rep.suite == "example_family"
    assert rep.cases_run == 10 and rep.passed()


def test_lemma_suite_restricted_to_monomials(monkeypatch):
    # h = 1 makes f = x^u, so the lemma must reproduce the gcd criterion;
    # the suite compares against brute force on exactly that grid
    _lemma_h_one(monkeypatch)
    rep = run_equivalence_suite("lemma", fields=["7"])
    assert rep.cases_run == len(divisors(6)) * 6
    assert rep.passed()


def test_inapplicable_fields_are_skipped():
    rep = run_equivalence_suite("example_family", fields=["7", "3^2"])
    assert rep.skipped_fields == ["7"]
    assert rep.cases_run == 10
    rep2 = run_equivalence_suite("trace_theorem", fields=["5"])
    assert rep2.skipped_fields == ["5"] and rep2.cases_run == 0
    rep3 = run_equivalence_suite("hermite", fields=["2^2"])
    assert rep3.skipped_fields == ["2^2"] and rep3.cases_run == 0


# (suite, fields, fields outside the suite's hypotheses); the lemma's h
# grid is restricted to h = 1
SKIPPED_GRIDS = {
    "lemma": (["7"], []),
    "theorem1": (["3", "7"], ["3"]),
    "proposition": (["5"], []),
    "corollary2": (["5"], []),
    "trace_theorem": (["5", "2^3"], ["5"]),
    "hermite": (["2^2", "7"], ["2^2"]),
    "example_family": (["7", "3^2"], ["7"]),
}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_oracle_skipped_counting(suite, monkeypatch):
    fields, skipped = SKIPPED_GRIDS[suite]
    _lemma_h_one(monkeypatch)
    rep = run_equivalence_suite(suite, fields=fields, max_q=3)
    assert rep.cases_run > 0
    assert rep.oracle_skipped == rep.cases_run
    assert rep.skipped_fields == skipped
    assert rep.passed()    # nothing to compare, nothing to disagree
    if suite == "lemma":
        assert rep.cases_run == len(divisors(6)) * 6


@pytest.mark.parametrize("max_q", [None, 2])
@pytest.mark.parametrize("suite,spec", [
    ("lemma", "7"), ("theorem1", "7"), ("proposition", "3"), ("corollary2", "2^2"),
    ("trace_theorem", "2^3"), ("hermite", "7"), ("example_family", "3^2")])
def test_every_case_truth_comes_from_the_stacker(monkeypatch, suite, spec, max_q):
    # _stacked_truths is the one place where case truths are made: the
    # cells times rows it is asked for are the suite's cases, and beyond the
    # oracle bound (max_q = 2) its oracle-skipped cases
    asked, real = [], oracle._stacked_truths

    def spied(T, cells, rows, vals):
        asked.append(cells * rows)
        return real(T, cells, rows, vals)
    monkeypatch.setattr(oracle, "_stacked_truths", spied)
    rep = run_equivalence_suite(suite, fields=[spec], max_q=max_q)
    assert rep.passed() and rep.cases_run > 0
    assert sum(asked) == rep.cases_run
    assert rep.oracle_skipped == (0 if max_q is None else rep.cases_run)


def test_driver_compares_blocks_and_builds_params_only_for_records(monkeypatch):
    calls = []

    def params_of(block):
        def params(i):
            calls.append((block, i))
            return {"block": block, "row": i}
        return params

    def fake_cases(fld, seed, T):
        truths = np.ones(6, dtype=bool)
        truths[[1, 4]] = False
        yield "fake", [True] * 6, truths, params_of("cases")
        yield "fake_law", (True, True), (True, False), params_of("law")
        yield "fake", [True, False, True], None, params_of("skipped")
    monkeypatch.setitem(oracle.SUITES, "fake", (lambda fld: True, fake_cases))
    rep = run_equivalence_suite("fake", fields=["7"])
    assert (rep.cases_run, rep.oracle_skipped) == (6 + 3, 3)   # the law's rows are no cases
    assert [(d.construction, d.parameters, d.theorem_verdict, d.oracle_verdict)
            for d in rep.disagreements] == [("fake", {"block": "cases", "row": 1}, True, False),
                                            ("fake", {"block": "cases", "row": 4}, True, False),
                                            ("fake_law", {"block": "law", "row": 1}, True, False)]
    assert calls == [("cases", 1), ("cases", 4), ("law", 1)]

    def broadcast_cases(fld, seed, T):
        # one truth against three verdicts would broadcast without the check
        yield "fake", [True, False, True], np.ones(1, dtype=bool), params_of("broadcast")
    monkeypatch.setitem(oracle.SUITES, "fake", (lambda fld: True, broadcast_cases))
    with pytest.raises(ValueError):
        run_equivalence_suite("fake", fields=["7"])
    assert len(calls) == 3


def _dropping(criterion, index):
    """The criterion with its index-th condition left out of the verdict."""
    def mutant(*args, **kwargs):
        report = criterion(*args, **kwargs)
        return ConditionReport.build(
            c for i, c in enumerate(report.conditions) if i != index)
    return mutant


# (suite, criterion, condition index, field); theorem1's b!=0 (index 2) is
# left out on purpose, see test_theorem1_b_nonzero_is_covered_by_condition_4
MUTANTS = (
    [("lemma", "lemma_check", i, "7") for i in range(2)]
    + [("theorem1", "theorem1_check", i, "7") for i in (0, 1, 3)]
    + [("trace_theorem", "trace_theorem_check", i, "2^3") for i in range(3)]
    + [("corollary2", "commuting_criterion_check", i, "2^2") for i in range(2)]
    + [("proposition", "proposition_check", 0, "2")])


@pytest.mark.parametrize("suite,criterion,index,field", MUTANTS)
def test_harness_catches_a_dropped_condition(monkeypatch, suite, criterion, index, field):
    monkeypatch.setattr(oracle, criterion, _dropping(getattr(oracle, criterion), index))
    rep = run_equivalence_suite(suite, fields=[field])
    assert rep.disagreements
    assert {d.construction for d in rep.disagreements} == {suite}


def test_planted_add_table_fault_surfaces_as_disagreements(monkeypatch):
    # the oracle's columns add in packed spread words and through the add
    # table derived from them, the criteria's scalars through Zech
    # logarithms: one wrong entry in either must show as disagreements, not
    # pass unseen or break the criterion side.  eval_col sums in spread
    # alone, so the lemma's oracle sees the spread plant but not the addf one
    real_init = FieldTables.__init__

    def addf_fault(self):
        self.addf[1 * self.q + 1] = 5  # 1 + 1 = 2 in F_9, not t + 2

    def spread_fault(self):
        self.spread[1] = self.spread[2]  # after addf was derived from it

    for fault, one_plus_one, shown, unseen in [
            (addf_fault, 5, ("proposition",), ("lemma",)),
            (spread_fault, 2, ("proposition", "lemma"), ())]:
        def planted(self, field, fault=fault):
            real_init(self, field)
            fault(self)

        monkeypatch.setattr(FieldTables, "__init__", planted)
        fld = Field(3, 2)  # a fresh instance, not make_field's
        assert fld.tables().add_cols(1, 1) == one_plus_one
        for suite in shown:
            assert run_equivalence_suite(suite, fields=[fld]).disagreements, suite
        for suite in unseen:
            assert run_equivalence_suite(suite, fields=[fld]).passed(), suite
        assert fld.add(1, 1) == 2


def test_theorem1_b_nonzero_is_covered_by_condition_4(monkeypatch):
    # condition 4 is recorded false whenever b = 0, so dropping b!=0 changes
    # no verdict: the grid cannot show that condition's necessity
    monkeypatch.setattr(oracle, "theorem1_check", _dropping(oracle.theorem1_check, 2))
    assert run_equivalence_suite("theorem1", fields=["7"]).passed()


def _negating(criterion):
    """The criterion with its verdict forced false: the report rebuilt from
    its three parts."""
    def mutant(*args, **kwargs):
        report = criterion(*args, **kwargs)
        return ConditionReport(report.conditions, False, report.witness)
    return mutant


@functools.cache
def _corpus(name, fld, *args):
    return getattr(oracle, name)(fld, *args, oracle.SAMPLE_SEED)


def _rebuilt(suite, fld, params) -> FqPoly:
    """The polynomial of one recorded case, rebuilt from its parameters."""
    if suite == "theorem1":
        g0 = _corpus("theorem1_g0_corpus", fld)[params["g0_pos"]]
        return theorem1_poly(Theorem1Params(params["d"], params["u"], params["k"],
                                            params["b"], g0))
    if suite == "lemma":
        h = _corpus("lemma_h_corpus", fld, params["d"])[params["h_pos"]]
        return expand_cyclotomic(CyclotomicForm(params["u"], params["d"], h))
    if suite == "hermite":
        return hermite_family(HermiteParams(fld, params["a"], params["b"], params["i"],
                                            params["j"]))
    return _expanded(suite, fld, params)


# (suite, criterion, mutant, field); corollary1 records only permuting rows,
# mapped back to their g, so a necessity check that always fails records
# every one of them
REPRODUCED = [("theorem1", "theorem1_check", _dropping(oracle.theorem1_check, 0), "7"),
              ("lemma", "lemma_check", _dropping(oracle.lemma_check, 1), "7"),
              ("proposition", "proposition_check", _dropping(oracle.proposition_check, 0), "2"),
              ("proposition", "necessary_conditions_check",
               _negating(oracle.necessary_conditions_check), "3")]


@pytest.mark.parametrize("suite,criterion,mutant,field", REPRODUCED,
                         ids=["theorem1-drop0-7", "lemma-drop1-7", "proposition-drop0-2",
                              "corollary1-negated-3"])
def test_recorded_params_reproduce_their_disagreement(monkeypatch, suite, criterion, mutant,
                                                      field):
    # a misaligned params(i) would record a neighbouring row: rebuild each
    # recorded polynomial and ask the oracle again
    monkeypatch.setattr(oracle, criterion, mutant)
    fld = parse_field(field)
    rep = run_equivalence_suite(suite, fields=[fld])
    assert rep.disagreements
    for d in rep.disagreements:
        assert is_permutation(_rebuilt(suite, fld, d.parameters)) == d.oracle_verdict, d


def test_theorem1_law_is_checked_once_per_d_g0(monkeypatch):
    # with g = (h_d + x)*g0 the law breaks; the suite checks it in its u-free
    # form, once per (d, g0), so each broken (d, g0, k) is recorded once per
    # u with the same witness, and that witness breaks the full law with z^u
    fld = F7
    monkeypatch.setattr(oracle, "h_d_poly", lambda f, d: h_d_poly(f, d) + FqPoly.x(f))
    monkeypatch.setattr(cyclotomic, "h_d_poly", oracle.h_d_poly)
    g0s = {g0.text(): g0 for g0 in theorem1_g0_corpus(fld, oracle.SAMPLE_SEED)}
    assert len(g0s) == len(theorem1_g0_corpus(fld, oracle.SAMPLE_SEED))
    by_cell = collections.defaultdict(list)
    for rec in run_equivalence_suite("theorem1", fields=[fld]).disagreements:
        if rec.construction == "fhat_monomial_law":
            p = rec.parameters
            by_cell[p["d"], p["g0"], p["k"]].append((p["u"], p["b"], p["zeta"]))
    assert by_cell
    for (d, g0_text, k), rows in by_cell.items():
        assert [u for u, _, _ in rows] == list(range(1, fld.q))
        assert len({(b, zeta) for _, b, zeta in rows}) == 1
        m = (fld.q - 1) // d
        for u, b, zeta in rows:
            fhat = dict(fhat_on_mu_d(Theorem1Params(d, u, k, b, g0s[g0_text])))
            assert fhat[zeta] != fld.mul(fld.pow(b, m), fld.pow(zeta, u + k * m))


@pytest.mark.parametrize("spec", ["7", "3^2", "13"])
def test_hermite_sufficient_verdicts_equal_fresh_per_row_calls(monkeypatch, spec):
    # hermite_sufficient is asked once per (a, b) cell and its verdict
    # replayed to the cell's (i, j) rows: every row's truth in the
    # hermite_sufficient block must be what the criterion says when asked
    # anew at that row
    fld = parse_field(spec)
    calls = _counting(monkeypatch, ("hermite_sufficient",))
    cells = 0
    for construction, verdicts, truths, params in oracle.SUITES["hermite"][1](
            fld, oracle.SAMPLE_SEED, fld.tables()):
        if construction == "hermite_sufficient":
            cells += 1
            assert list(truths) == [hermite_sufficient(HermiteParams(fld, **params(r))).verdict
                                    for r in range(len(verdicts))], params(0)
    assert cells == calls["hermite_sufficient"] == ((fld.q - 1) // 2) ** 2


def _without_b_x_j(hp):
    """hermite_family with its b*x^j term dropped."""
    return hermite_family(hp) - FqPoly.monomial(hp.field, hp.b, hp.j)


def _j_read_as_i(hp):
    """hermite_family built with x^i for x^j: still a permutation on every
    row of the grid, but wrong on the non-squares of the rows with i != j."""
    return hermite_family(hp._replace(j=hp.i))


def _plus_one(hp):
    """hermite_family with the constant term 1 added: five terms on the
    unmerged rows, one of them a true x^0 beside the padding of shorter
    rows."""
    return hermite_family(hp) + FqPoly.one(hp.field)


def _hermite_rows_failing(fld, family) -> set:
    """(construction, a, b, i, j) of each row of the hermite grid on fld
    where family's polynomial does not permute ("hermite") or differs from
    the pieces 2a*x^i on the nonzero squares and 2b*x^j on the non-squares
    ("hermite_piecewise"), judged row by row with scalar arithmetic."""
    s = (fld.q - 1) // 2
    coeffs = [a for a in fld.units() if hermite_coeff_ok(fld, a)]
    exps = [i for i in range(1, fld.q) if hermite_exp_ok(fld, i)]
    failing = set()
    for row in itertools.product(coeffs, coeffs, exps, exps):
        a, b, i, j = row
        f = family(HermiteParams(fld, *row))
        vals = [f.eval(x) for x in fld.elements()]
        pieces = [0] + [fld.mul(fld.add(a, a), fld.pow(x, i)) if fld.pow(x, s) == 1 else
                        fld.mul(fld.add(b, b), fld.pow(x, j))
                        for x in fld.units()]
        if len(set(vals)) != fld.q:
            failing.add(("hermite", *row))
        if vals != pieces:
            failing.add(("hermite_piecewise", *row))
    return failing


@pytest.mark.parametrize("spec", ["7", "3^2"])
@pytest.mark.parametrize("family,constructions", [
    (_without_b_x_j, {"hermite", "hermite_piecewise"}),
    (_j_read_as_i, {"hermite_piecewise"}),
    (_plus_one, {"hermite_piecewise"})], ids=["without_b_x_j", "nonsquare_exp", "plus_one"])
def test_harness_catches_a_broken_hermite_family(monkeypatch, spec, family, constructions):
    # the suite reads each cell's families into arrays: the rows it records
    # must be exactly the rows whose own family fails, as a scalar walk of
    # each row's polynomial and pieces finds them
    fld = parse_field(spec)
    failing = _hermite_rows_failing(fld, family)
    assert {construction for construction, *_ in failing} == constructions
    monkeypatch.setattr(oracle, "hermite_family", family)
    rep = run_equivalence_suite("hermite", fields=[fld])
    assert {(d.construction, *(d.parameters[k] for k in "abij"))
            for d in rep.disagreements} == failing
    assert len(rep.disagreements) == len(failing)


def test_hermite_grid_past_the_guard_is_refused():
    # 65521 has phi(65520)^2 = 1.9e8 exponent pairs: refused before the
    # product is built
    with pytest.raises(ExpansionTooLargeError):
        run_equivalence_suite("hermite", fields=["65521"])


def test_scalar_oracle_tier_beyond_the_vector_bound():
    fld = make_field(65537)
    assert fld.q > VECTOR_MAX_Q
    cube = FqPoly.monomial(fld, 1, 3)
    assert is_permutation(cube, max_q=70000)            # gcd(3, 65536) = 1
    assert not is_permutation(FqPoly.monomial(fld, 1, 2), max_q=70000)
    vals = value_table(cube)
    assert len(vals) == fld.q
    for a in (0, 1, 2, 3, 40000, 65536):
        assert vals[a] == pow(a, 3, 65537)
    with pytest.raises(OracleBoundError):
        is_permutation(cube)


def test_report_json_shape_excludes_elapsed(monkeypatch):
    _lemma_h_one(monkeypatch)
    rep = run_equivalence_suite("lemma", fields=["7"])
    d = rep.to_json_dict()
    assert "elapsed" not in d
    assert d["suite"] == "lemma" and d["fields"] == ["7"]
    assert d["disagreements"] == []
    assert rep.elapsed > 0


def test_corpora_are_deterministic_and_sized():
    assert len(lemma_h_corpus(F9, 4, 1009)) == 200
    assert lemma_h_corpus(F9, 4, 1009) == lemma_h_corpus(F9, 4, 1009)
    assert lemma_h_corpus(F9, 4, 1009) != lemma_h_corpus(F9, 4, 1010)
    g0s = theorem1_g0_corpus(F7, 1009)
    assert len(g0s) == 7 + 20
    assert g0s[:7] == [FqPoly.constant(F7, c) for c in range(7)]
    ads = additive_poly_corpus(F9, 1009)
    assert len(ads) == 27 + 30
    # prime fields lack t, so the enumerated pool degrades to {0,1}
    assert len(additive_poly_corpus(F7, 1009)) == 8 + 30


@pytest.mark.parametrize("spec", ["3^2", "2^4", "5^2", "3^3"])
def test_suite_commute_filter_matches_library_op(spec):
    # the corollary2 suite filters pairs with additive_commutes, which
    # compares A(B(x)) with B(A(x)) on the basis t^i only; pin it against
    # composed value columns on every element, over the suite's maps: the
    # corpus, the F_p-coefficient maps and the trace map
    fld = parse_field(spec)
    T = fld.tables()
    maps = (additive_poly_corpus(fld, 1009) + oracle.prime_field_additive_corpus(fld)
            + [trace_poly(fld)])
    cols = [T.eval_col(A.expand().reduce_exponents().terms) for A in maps]
    both = set()
    for A, acol in zip(maps, cols):
        for B, bcol in zip(maps, cols):
            full = bool(np.array_equal(acol[bcol], bcol[acol]))
            assert full == additive_commutes(A, B)
            both.add(full)
    assert both == {True, False}
