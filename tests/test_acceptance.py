"""Acceptance criteria: every criterion-vs-oracle suite at full grid size,
exact expected case counts, zero disagreements, and the stated runtime
ceilings.  One PASS/FAIL line is printed per criterion (visible with -s,
or in captured output on failure)."""

import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ppforge.additive import example_family, gamma_search
from ppforge.field import divisors, make_field, parse_field
from ppforge.oracle import (DEFAULT_SUITE_FIELDS, is_permutation,
                            run_equivalence_suite)
from ppforge.poly import FqPoly, h_d_poly


def _criterion(num, name, ok, detail=""):
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _by_construction(report, construction):
    return [d for d in report.disagreements if d.construction == construction]


@pytest.fixture(scope="session")
def lemma_report():
    return run_equivalence_suite("lemma")


@pytest.fixture(scope="session")
def theorem1_report():
    return run_equivalence_suite("theorem1")


@pytest.fixture(scope="session")
def proposition_report():
    return run_equivalence_suite("proposition")


@pytest.fixture(scope="session")
def corollary2_report():
    return run_equivalence_suite("corollary2")


@pytest.fixture(scope="session")
def trace_report():
    return run_equivalence_suite("trace_theorem")


@pytest.fixture(scope="session")
def hermite_report():
    return run_equivalence_suite("hermite")


def test_criterion_1_lemma_equivalence(lemma_report):
    rep = lemma_report
    assert rep.fields == ["2^2", "5", "7", "2^3", "3^2", "11", "13", "2^4", "5^2", "3^3"]
    expected = sum(len(divisors(parse_field(f).q - 1)) * (parse_field(f).q - 1) * 200
                   for f in rep.fields)
    detail = f"{rep.cases_run} cases, {len(rep.disagreements)} disagreements, {rep.elapsed:.1f}s"
    _criterion(1, "lemma equivalence", rep.cases_run == expected
               and not rep.disagreements and rep.elapsed < 120, detail)


def test_criterion_2_theorem1_equivalence(theorem1_report):
    rep = theorem1_report
    assert rep.fields == ["7", "3^2", "11", "13", "5^2", "3^3"]
    expected = 0
    for f in rep.fields:
        q = parse_field(f).q
        dsum = sum(d for d in divisors(q - 1) if d > 2)
        expected += (q - 1) * dsum * q * (q + 20)
    bad = _by_construction(rep, "theorem1")
    detail = f"{rep.cases_run} cases, {len(bad)} disagreements, {rep.elapsed:.1f}s"
    _criterion(2, "theorem1 equivalence", rep.cases_run == expected
               and not bad and rep.elapsed < 300, detail)


def test_criterion_3_proposition_equivalence(proposition_report):
    rep = proposition_report
    assert rep.fields == ["2^2", "2^3", "3^2", "2^4", "5^2", "3^3"]
    expected = len(rep.fields) * (27 + 30) ** 2 * (27 + 20)
    bad = _by_construction(rep, "proposition")
    swaps = _by_construction(rep, "right_inverse_swap")
    detail = (f"{rep.cases_run} cases, {len(bad)} disagreements, "
              f"{len(swaps)} swap-sensitive verdicts, {rep.elapsed:.1f}s")
    _criterion(3, "proposition equivalence + right-inverse independence",
               rep.cases_run == expected and not bad and not swaps, detail)


def test_criterion_4_corollary1_necessity(proposition_report):
    bad = _by_construction(proposition_report, "corollary1")
    _criterion(4, "corollary-1 necessity", not bad,
               f"{len(bad)} permuting cases violating an injectivity condition")


def test_criterion_5_corollary2_equivalence(corollary2_report):
    rep = corollary2_report
    # the commuting subset always contains the full (A in F_p[x], B=trace) block
    g_count = 27 + 20
    floor = sum(parse_field(f).p ** 3 for f in rep.fields) * g_count
    detail = f"{rep.cases_run} cases, {len(rep.disagreements)} disagreements, {rep.elapsed:.1f}s"
    _criterion(5, "corollary-2 equivalence on commuting pairs",
               rep.cases_run >= floor and rep.cases_run % g_count == 0
               and not rep.disagreements, detail)


def test_criterion_6_trace_theorem_equivalence(trace_report):
    rep = trace_report
    assert rep.fields == ["2^3", "3^2", "5^2", "3^3"]
    expected = sum(parse_field(f).p ** 6 * 10 for f in rep.fields)
    detail = f"{rep.cases_run} cases, {len(rep.disagreements)} disagreements, {rep.elapsed:.1f}s"
    _criterion(6, "trace-theorem equivalence",
               rep.cases_run == expected and not rep.disagreements, detail)


def test_criterion_7_low_degree_family_reproduction():
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7, 11, 13):
        fld = make_field(p, 2)
        gamma = gamma_search(fld)
        assert fld.pow(gamma, p - 1) == fld.neg(1)
        f = example_family(fld, FqPoly.monomial(fld, 1, 2))
        ok = ok and f.degree == 2 * p and is_permutation(f)
    elapsed = time.perf_counter() - t0
    _criterion(7, "x + gamma*(x^p+x)^2 family over F_p^2",
               ok and elapsed < 10, f"p in (3,5,7,11,13), {elapsed:.2f}s")


def test_criterion_8_hermite_family(hermite_report):
    rep = hermite_report
    assert rep.fields == ["7", "3^2", "11", "13", "5^2", "3^3"]
    expected = 0
    for fstr in rep.fields:
        fld = parse_field(fstr)
        q = fld.q
        coeffs = sum(1 for a in fld.units() if fld.is_dth_power(fld.add(a, a), 2))
        exps = sum(1 for i in range(1, q) if math.gcd(i, q - 1) == 1)
        expected += coeffs * coeffs * exps * exps
    failures = [d for d in rep.disagreements
                if d.construction in ("hermite", "hermite_piecewise", "hermite_sufficient")]
    detail = f"{rep.cases_run} cases, {len(failures)} failures, {rep.elapsed:.1f}s"
    _criterion(8, "hermite family: permutations and piecewise identities",
               rep.cases_run == expected and not failures, detail)


def test_criterion_9_structural_invariants(proposition_report, theorem1_report):
    rank_bad = _by_construction(proposition_report, "rank_nullity")
    fhat_bad = _by_construction(theorem1_report, "fhat_monomial_law")
    hd_ok = True
    for fstr in DEFAULT_SUITE_FIELDS["lemma"]:
        fld = parse_field(fstr)
        for d in divisors(fld.q - 1):
            h = h_d_poly(fld, d)
            for z in fld.mu_d(d):
                hd_ok = hd_ok and h.eval(z) == (d % fld.p if z == 1 else 0)
    detail = (f"{len(rank_bad)} rank-nullity violations, "
              f"{len(fhat_bad)} induced-map law violations, h_d values "
              f"{'ok' if hd_ok else 'WRONG'}")
    _criterion(9, "structural invariants", not rank_bad and not fhat_bad and hd_ok, detail)


def test_criterion_10_selftest_determinism():
    # the golden file pins the bytes across changes to the code as well
    cmd = [sys.executable, "-m", "ppforge", "selftest", "--suite", "all",
           "--fields", "7,3^2"]
    golden = (Path(__file__).parent / "data" / "selftest_7_9.jsonl").read_bytes()
    r1 = subprocess.run(cmd, capture_output=True, timeout=900)
    r2 = subprocess.run(cmd, capture_output=True, timeout=900)
    ok = (r1.returncode == 0 and r2.returncode == 0
          and r1.stdout == golden and r1.stdout == r2.stdout)
    _criterion(10, "selftest output is byte-identical across runs and to the golden file",
               ok, f"{len(r1.stdout)} bytes per run, {len(golden)} golden")
