"""The three workloads: inputs made from the seed, and the checks on outputs.

Every function here is independent of ppforge's arithmetic: request inputs
and their expected outcomes come from integer facts (gcds and sums of F_p
digits), so the benchmark can judge the program without trusting it.
"""

import contextlib
import io
import json
import math
import random

# ---------------------------------------------------------------------------
# sweeps: one operation is one run_equivalence_suite call
#
# Operations take well under two seconds and a pass about three, so that a
# run repeats each operation six to twelve times and can take the median of
# its scaled repeats (see run.py).  The theorem1 grids are cut through the
# suite's `g0s` option: a pass takes two single-g0 calls on 3^3 (the whole
# grid of 47 g0 is 15 s) and two calls of four g0 on 13, the g0 chosen by
# the seed, half of them constant and half random.  The proposition suite cannot be cut and
# runs 152,703 cases (6 s) on any field with n > 1, so it runs on the prime
# field 5, where its corpora are smaller.  The small trace_theorem cells run
# as one call over three fields, so that no operation is much shorter than
# the others and the latency percentiles fall on calls of half a second or
# more, whose median repeat varies less.

class SweepOp:
    """One suite call: `suite` over `fields`, optionally restricted to the
    theorem1 cofactors at `g0_positions` of the (single) field's seeded g0
    corpus."""

    __slots__ = ("suite", "fields", "g0_positions", "label")

    def __init__(self, suite, fields, g0_positions=None):
        self.suite = suite
        self.fields = (fields,) if isinstance(fields, str) else tuple(fields)
        self.g0_positions = g0_positions
        self.label = f"{suite} {','.join(self.fields)}"
        if g0_positions is not None:
            self.label += f" g0[{','.join(map(str, g0_positions))}]"


# theorem1_g0_corpus: every constant of F_q, then this many random g0
THEOREM1_RANDOM_G0 = 20
# lemma_h_corpus: h samples per divisor d of q-1
LEMMA_H_PER_D = 200
# additive_poly_corpus / arbitrary_g_corpus: every polynomial over the pool
# {0, 1, t} ({0, 1} on a prime field) on three slots, then this many random
# A and g
RANDOM_A = 30
RANDOM_G = 20
TRACE_G_PER_CELL = 10


def _pool_cube(n: int) -> int:
    return (2 if n == 1 else 3) ** 3


SWEEPS = ("sweep-cyclotomic", "sweep-additive")


def sweep_ops(name: str, seed: int) -> list:
    """The operations of one pass, in order; the same seed, the same pass."""
    if name == "sweep-cyclotomic":
        rng = random.Random(f"sweep-cyclotomic/{seed}")

        def g0s(q, constants, randoms):
            """Corpus positions: constants come first, then the random g0."""
            return (rng.sample(range(q), constants)
                    + [q + i for i in rng.sample(range(THEOREM1_RANDOM_G0), randoms)])

        on_13 = g0s(13, 4, 4)
        on_27 = g0s(27, 1, 1)
        return ([SweepOp("theorem1", "13", tuple(sorted(on_13[i::2]))) for i in (0, 1)]
                + [SweepOp("theorem1", "3^3", (i,)) for i in on_27]
                + [SweepOp("lemma", "13"), SweepOp("lemma", "3^2"),
                   SweepOp("hermite", "13"), SweepOp("hermite", "5^2")])
    if name == "sweep-additive":
        return [SweepOp("proposition", "5"), SweepOp("corollary2", "2^4"),
                SweepOp("trace_theorem", ("2^3", "3^2", "3^3"))]
    raise KeyError(name)


def split_field(spec: str) -> tuple:
    p, _, n = spec.partition("^")
    return int(p), int(n or 1)


def _divisors(m: int) -> list:
    return [d for d in range(1, m + 1) if m % d == 0]


def _phi(m: int) -> int:
    return sum(1 for i in range(1, m + 1) if math.gcd(i, m) == 1)


def expected_cases(op: SweepOp):
    """The exact number of cases the call must run, from the sizes of its
    grids; None for corollary2, whose count depends on the seed."""
    if op.suite == "corollary2":
        return None
    return sum(_field_cases(op, spec) for spec in op.fields)


def _field_cases(op: SweepOp, spec: str) -> int:
    p, n = split_field(spec)
    q = p ** n
    if op.suite == "theorem1":
        g0s = len(op.g0_positions) if op.g0_positions is not None else q + THEOREM1_RANDOM_G0
        # every d > 2 dividing q-1, u in 1..q-1, k in 0..d-1, b in F_q
        return g0s * sum((q - 1) * d * q for d in _divisors(q - 1) if d > 2)
    if op.suite == "lemma":
        return LEMMA_H_PER_D * len(_divisors(q - 1)) * (q - 1)
    if op.suite == "hermite":
        # a, b range over the (q-1)/2 units with 2a a square; i, j over
        # the exponents prime to q-1
        return ((q - 1) // 2 * _phi(q - 1)) ** 2
    if op.suite == "proposition":
        return (_pool_cube(n) + RANDOM_A) ** 2 * (_pool_cube(n) + RANDOM_G)
    if op.suite == "trace_theorem":
        # F_p-coefficient A on x, x^p, x^(p^2); h of degree <= 2 over F_p
        return p ** 3 * p ** 3 * TRACE_G_PER_CELL
    raise KeyError(op.suite)


def cell_problems(op: SweepOp, report) -> list:
    """Why a finished call is wrong; empty when its counts and verdicts hold."""
    problems = []
    cases = report.cases_run
    expected = expected_cases(op)
    if expected is not None and cases != expected:
        problems.append(f"{cases} cases, expected {expected}")
    if op.suite == "corollary2":
        # every g per commuting (A, B) pair, and the pairs include every
        # F_p-coefficient A with the trace map
        p, n = split_field(op.fields[0])
        gs = _pool_cube(n) + RANDOM_G
        if cases % gs or cases < p ** 3 * gs:
            problems.append(f"{cases} cases is not a multiple of {gs} "
                            f"that is at least {p ** 3 * gs}")
    if report.disagreements:
        problems.append(f"{len(report.disagreements)} disagreements, first "
                        f"{report.disagreements[0].to_json_dict()}")
    if report.oracle_skipped or report.skipped_fields:
        problems.append(f"oracle skipped {report.oracle_skipped} cases, "
                        f"fields skipped {report.skipped_fields}")
    return problems


# ---------------------------------------------------------------------------
# requests: a deck of CLI calls over one field per arithmetic tier

REQUEST_FIELDS = ("7^3", "2^10", "3^7", "251^2", "2^16")
GENERATE_LIMIT = 3

# The deck: (kind, field, d, requests).  d is a divisor of q-1 above 2.
# Requests fall into three latency bands on this mix -- small-field calls
# of a few ms, large-field calls of 10-100 ms, and a heavy band above
# 100 ms -- sized 20/24/8, so that the median lands inside the middle band
# and p90 among the theorem1 and generate requests on 251^2 and 2^16 just
# below the lemma requests on 3^7, not on a gap between groups.  check
# proposition runs on 7^3 only: on 2^10 a request costs 0.2-0.4 s
# depending on the kernel sizes the seed draws, at 3^7 half a second, and
# at 2^16 18 s (corollary2 58 s).
DECK_MIX = (
    ("verify", "7^3", None, 3), ("verify", "2^10", None, 3), ("verify", "3^7", None, 2),
    ("check-theorem1", "7^3", 3, 1), ("check-theorem1", "7^3", 19, 1),
    ("check-lemma", "7^3", 3, 1), ("check-lemma", "7^3", 19, 1),
    ("check-theorem1", "2^10", 3, 1), ("check-theorem1", "2^10", 31, 1),
    ("check-lemma", "2^10", 3, 1), ("check-lemma", "2^10", 31, 1),
    ("check-proposition", "7^3", None, 1), ("generate-theorem1", "7^3", 19, 1),
    ("generate-theorem1", "2^10", 31, 1), ("generate-theorem1", "3^7", 1093, 1),

    ("verify", "251^2", None, 4), ("verify", "2^16", None, 4),
    ("check-lemma", "251^2", 5, 2), ("check-lemma", "251^2", 63, 2),
    ("check-lemma", "2^16", 5, 2), ("check-lemma", "2^16", 17, 2),
    ("check-theorem1", "251^2", 5, 2), ("check-theorem1", "2^16", 5, 2),
    ("check-theorem1", "3^7", 1093, 2), ("generate-theorem1", "251^2", 5, 2),

    ("check-theorem1", "2^16", 17, 2), ("check-theorem1", "251^2", 63, 2),
    ("check-lemma", "3^7", 1093, 2), ("generate-theorem1", "2^16", 5, 2),
)


class Request:
    __slots__ = ("kind", "field", "argv", "expect", "template")

    def __init__(self, kind, field, argv, expect=None):
        self.kind = kind
        self.field = field
        self.argv = argv
        self.expect = expect
        self.template = None   # the DECK_MIX row it came from, as text


def _poly_text(terms) -> str:
    """Text grammar for {exponent: coefficient index}, zero terms dropped."""
    parts = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        if c == 0:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            parts.append(("" if c == 1 else f"{c}*") + ("x" if e == 1 else f"x^{e}"))
    return "+".join(parts) or "0"


# Inputs have every term present, and exponents come from a narrow window,
# so a request's cost depends on its template and not on how many
# coefficients the seed happened to zero or on how high it put the degree
# (eval_col walks the dense coefficient list: verify on 251^2 costs twice as
# much at x^60000 as at x^2000).

def _exponent(rng, q) -> int:
    """An exponent from a window of width q/32 (at least 16) at q/2."""
    return q // 2 + rng.randrange(max(q // 32, 16))


def _random_poly(rng, q, deg) -> str:
    return _poly_text({e: rng.randrange(1, q) for e in range(deg + 1)})


def _random_additive(rng, p, q) -> str:
    return _poly_text({p ** i: rng.randrange(1, q) for i in range(3)})


def _coprime_exponents(rng, q, d, m):
    """u, k with gcd(u, m) = 1 and gcd(d, u + k*m) = 1 (conditions 1, 2)."""
    while True:
        u, k = _exponent(rng, q), rng.randrange(d)
        if math.gcd(u, m) == 1 and math.gcd(d, u + k * m) == 1:
            return u, k


def _verify(rng, spec, p, q, want_perm):
    # c*x^k + e permutes F_q exactly when gcd(k, q-1) = 1
    k = _exponent(rng, q)
    while want_perm and math.gcd(k, q - 1) != 1:
        k = _exponent(rng, q)
    perm = math.gcd(k, q - 1) == 1
    poly = _poly_text({k: rng.randrange(1, q), 0: rng.randrange(1, q)})
    return Request("verify", spec,
                   ["verify", spec, poly, "--expect", "true" if perm else "false"], perm)


def _check_theorem1(rng, spec, p, q, d):
    m = (q - 1) // d
    if rng.random() < 0.5:
        u, k = _coprime_exponents(rng, q, d, m)
    else:
        u, k = _exponent(rng, q), rng.randrange(d)
    return Request("check-theorem1", spec, [
        "check", "theorem1", spec, "--d", str(d), "--u", str(u), "--k", str(k),
        "--b", str(rng.randrange(q)), "--g0", _random_poly(rng, q, 2), "--oracle"])


def _check_lemma(rng, spec, p, q, d):
    return Request("check-lemma", spec, [
        "check", "lemma", spec, "--d", str(d), "--u", str(_exponent(rng, q)),
        "--h", _random_poly(rng, q, 2), "--oracle"])


def _check_proposition(rng, spec, p, q):
    return Request("check-proposition", spec, [
        "check", "proposition", spec, "--A", _random_additive(rng, p, q),
        "--B", _random_additive(rng, p, q), "--g", _random_poly(rng, q, 4), "--oracle"])


def _generate_theorem1(rng, spec, p, q, d):
    u, k = _coprime_exponents(rng, q, d, (q - 1) // d)
    # g0 with F_p digits summing to 0 mod p: g(1) = 0, so condition 4 holds
    # for every b != 0 and the stream is b = 1, 2, 3.
    a2, a1 = rng.randrange(1, p), rng.randrange(p)
    g0 = _poly_text({2: a2, 1: a1, 0: (-(a2 + a1)) % p})
    return Request("generate-theorem1", spec, [
        "generate", "theorem1", spec, "--d", str(d), "--u", str(u), "--k", str(k),
        "--g0", g0, "--limit", str(GENERATE_LIMIT)], (d, u, k))


def _make_request(rng, kind, spec, d, index):
    p, n = split_field(spec)
    q = p ** n
    if kind == "verify":
        req = _verify(rng, spec, p, q, want_perm=index % 2 == 0)
    elif kind == "check-proposition":
        req = _check_proposition(rng, spec, p, q)
    else:
        make = {"check-theorem1": _check_theorem1, "check-lemma": _check_lemma,
                "generate-theorem1": _generate_theorem1}[kind]
        req = make(rng, spec, p, q, d)
    req.template = f"{kind} {spec}" + (f" d={d}" if d else "")
    return req


def request_deck(seed) -> list:
    """The requests one deck issues, in order; the same seed, the same deck."""
    rng = random.Random(f"requests-mixed-q/{seed}")
    deck = [_make_request(rng, kind, spec, d, i)
            for kind, spec, d, count in DECK_MIX
            for i in range(count)]
    rng.shuffle(deck)
    return deck


def call_cli(main, argv) -> tuple:
    """Run ppforge's CLI in process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def request_problems(req: Request, code: int, out: str, err: str) -> tuple:
    """(problems, oracle comparisons the request completed)."""
    if code != 0:
        return [f"exit {code}: {err.strip()[:200]}"], 0
    try:
        records = [json.loads(line) for line in out.splitlines() if line]
    except ValueError as exc:
        return [f"unparsable output: {exc}"], 0
    if not all(isinstance(rec, dict) for rec in records):
        return ["output lines are not JSON objects"], 0
    problems = []
    for rec in records:
        if rec.get("field") != req.field:
            problems.append(f"field {rec.get('field')!r}")
        verdict = rec.get("verdict")
        if not isinstance(verdict, bool):
            problems.append(f"verdict {verdict!r}")
        elif rec.get("oracle") != ("confirmed" if verdict else "refuted"):
            problems.append(f"oracle {rec.get('oracle')!r} with verdict {verdict}: "
                            f"{rec.get('note', '')}")
    if req.kind == "verify":
        if len(records) != 1 or records[0].get("verdict") is not req.expect:
            problems.append(f"expected one record with verdict {req.expect}")
    elif req.kind == "generate-theorem1":
        d, u, k = req.expect
        got = [(r.get("verdict"), r["parameters"].get("d"), r["parameters"].get("u"),
                r["parameters"].get("k"), r["parameters"].get("b"))
               for r in records if isinstance(r.get("parameters"), dict)]
        want = [(True, d, u, k, b) for b in range(1, GENERATE_LIMIT + 1)]
        if got != want:
            problems.append(f"generated {got}, expected {want}")
    elif len(records) != 1:
        problems.append(f"{len(records)} records, expected 1")
    return problems, (0 if problems else len(records))
