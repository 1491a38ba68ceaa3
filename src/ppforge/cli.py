"""Command-line surface: field info, brute-force verification, criterion
checks, family generation, and the self-test harness.

Output is line-delimited JSON with a schema_version tag; --pretty switches
to a human-readable rendering.  Exit codes: 0 success, 2 usage/parse/scope
error, 3 expectation mismatch.  The brute-force bound resolves as CLI flag
> PPFORGE_MAX_Q environment variable > oracle.DEFAULT_MAX_Q (the vectorized
bound field.VECTOR_MAX_Q = 2^16).
"""

import argparse
import functools
import itertools
import json
import os
import sys

from .additive import (AdditiveTriple, TraceTheoremParams,
                       commuting_criterion_check, example_family,
                       gamma_search, proposition_check, trace_theorem_check,
                       trace_theorem_poly, triple_poly)
from .cyclotomic import (HermiteParams, Theorem1Params, cofactor_of,
                         hermite_family, hermite_sufficient, lemma_check,
                         theorem1_check, theorem1_generate)
from .errors import ExpansionTooLargeError, PPForgeError
from .field import Field, parse_field
from .oracle import (DEFAULT_MAX_Q, SUITE_NAMES, is_permutation,
                     run_equivalence_suite, SAMPLE_SEED)
from .poly import (CyclotomicForm, FqPoly, expand_cyclotomic, parse_additive,
                   parse_poly)
from .report import Condition, ConditionReport

SCHEMA_VERSION = "1.0"
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3

CHECK_CONSTRUCTIONS = ("lemma", "theorem1", "proposition", "corollary2",
                       "trace_theorem", "hermite")
GENERATE_CONSTRUCTIONS = ("theorem1", "example", "hermite")


def _resolve_max_q(args) -> int:
    if getattr(args, "max_q", None) is not None:
        return args.max_q
    env = os.environ.get("PPFORGE_MAX_Q")
    if not env:
        return DEFAULT_MAX_Q
    try:
        return int(env)
    except ValueError:
        raise PPForgeError(f"PPFORGE_MAX_Q={env!r} is not an integer") from None


def _record(fld: Field, construction: str, parameters: dict,
            report: ConditionReport, poly: FqPoly, oracle: str) -> dict:
    conditions = [] if report is None else [c.to_json_dict() for c in report.conditions]
    verdict = None if report is None else report.verdict
    return {
        "schema_version": SCHEMA_VERSION,
        "field": fld.designation(),
        "construction": construction,
        "parameters": parameters,
        "conditions": conditions,
        "verdict": verdict,
        "polynomial": None if poly is None else poly.text(),
        "oracle": oracle,
    }


def _emit(args, record: dict):
    if getattr(args, "pretty", False):
        lines = [f"field {record['field']}  {record.get('construction', record.get('suite', ''))}"]
        for key in ("parameters", "verdict", "polynomial", "oracle", "note", "cases",
                    "oracle_skipped", "skipped_fields", "elapsed"):
            if key in record and record[key] is not None:
                lines.append(f"  {key}: {record[key]}")
        for cond in record.get("conditions", ()):
            mark = "ok " if cond["holds"] else "FAIL"
            extra = f"  [{cond['witness']}]" if "witness" in cond else ""
            lines.append(f"  [{mark}] {cond['label']}{extra}")
        if record.get("disagreements"):
            for d in record["disagreements"]:
                lines.append(f"  DISAGREE {d}")
        print("\n".join(lines))
    else:
        print(json.dumps(record, separators=(",", ":")))


def _confirm(poly: FqPoly, verdict: bool, max_q: int, enabled: bool) -> tuple:
    """Run the oracle on an expanded polynomial and name the outcome.

    Returns (status, note): status is confirmed/refuted/skipped; a non-None
    note explains a skip that was forced rather than requested.
    """
    if not enabled:
        return "skipped", None
    if poly.field.q > max_q:
        return "skipped", f"q={poly.field.q} exceeds brute-force bound {max_q}"
    perm = is_permutation(poly, max_q=max_q)
    if perm == verdict:
        return ("confirmed" if perm else "refuted"), None
    return None, perm  # a disagreement: the caller decides what it means


def _need(args, *names):
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise PPForgeError(f"missing required option(s): {', '.join('--' + m for m in missing)}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_field_info(args) -> int:
    fld = parse_field(args.field)
    record = {
        "schema_version": SCHEMA_VERSION,
        "field": fld.designation(),
        "p": fld.p,
        "n": fld.n,
        "q": fld.q,
        "modulus": FqPoly(fld, fld.modulus).text(),
        "primitive_element": fld.primitive_element(),
    }
    if args.pretty:
        print("\n".join(f"{k}: {v}" for k, v in record.items() if k != "schema_version"))
    else:
        print(json.dumps(record, separators=(",", ":")))
    return EXIT_OK


def cmd_verify(args) -> int:
    fld = parse_field(args.field)
    poly = parse_poly(fld, args.polynomial)
    max_q = _resolve_max_q(args)
    perm = is_permutation(poly, max_q=max_q)
    record = _record(fld, "oracle", {}, None, poly,
                     "confirmed" if perm else "refuted")
    record["verdict"] = perm
    _emit(args, record)
    if args.expect is not None and (args.expect == "true") != perm:
        print(f"expectation mismatch: expected {args.expect}, oracle says {perm}",
              file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _check_lemma(args, fld):
    _need(args, "d", "u", "h")
    cf = CyclotomicForm(args.u, args.d, parse_poly(fld, args.h))
    report = lemma_check(cf)
    return ({"d": args.d, "u": args.u, "h": cf.h.text()}, report,
            lambda: expand_cyclotomic(cf))


def _check_theorem1(args, fld):
    _need(args, "d", "u", "k", "b")
    if args.g is not None:
        g0 = cofactor_of(fld, args.d, parse_poly(fld, args.g))
    else:
        g0 = parse_poly(fld, args.g0 if args.g0 is not None else "1")
    params = Theorem1Params(args.d, args.u, args.k, args.b, g0)
    report = theorem1_check(params)
    try:
        g = params.g()
    except ExpansionTooLargeError:
        g = None
    # past the guard, params.g() raises again and the expansion is refused
    return ({"d": args.d, "u": args.u, "k": args.k, "b": args.b,
             "g0": g0.text(), "g": None if g is None else g.text()},
            report, lambda: expand_cyclotomic(params.form(params.g() if g is None else g)))


def _check_triple(args, fld):
    _need(args, "A", "B", "g")
    tr = AdditiveTriple(parse_additive(fld, args.A), parse_additive(fld, args.B),
                        parse_poly(fld, args.g))
    check = (proposition_check if args.construction == "proposition"
             else commuting_criterion_check)
    return ({"A": args.A, "B": args.B, "g": tr.g.text()},
            check(tr), lambda: triple_poly(tr))


def _check_trace_theorem(args, fld):
    _need(args, "A", "h", "g")
    tp = TraceTheoremParams(parse_poly(fld, args.g), parse_additive(fld, args.A),
                            parse_poly(fld, args.h))
    return ({"A": args.A, "h": tp.h.text(), "g": tp.g.text()},
            trace_theorem_check(tp), lambda: trace_theorem_poly(tp))


def _check_hermite(args, fld):
    _need(args, "a", "b", "i", "j")
    hp = HermiteParams(fld, args.a, args.b, args.i, args.j)
    return ({"a": args.a, "b": args.b, "i": args.i, "j": args.j},
            hermite_sufficient(hp), lambda: hermite_family(hp).poly)


# each check returns (parameters, report, expand): the polynomial is expanded
# only after the conditions are evaluated, so a polynomial too large to expand
# still gets its conditions and verdict
_CHECKS = {
    "lemma": _check_lemma,
    "theorem1": _check_theorem1,
    "proposition": _check_triple,
    "corollary2": _check_triple,
    "trace_theorem": _check_trace_theorem,
    "hermite": _check_hermite,
}


def cmd_check(args) -> int:
    fld = parse_field(args.field)
    parameters, report, expand = _CHECKS[args.construction](args, fld)
    try:
        poly = expand()
    except ExpansionTooLargeError as exc:
        record = _record(fld, args.construction, parameters, report, None, "skipped")
        record["note"] = f"{exc}; the conditions and verdict do not need it"
        _emit(args, record)
        return EXIT_OK
    status, note = _confirm(poly, report.verdict, _resolve_max_q(args), args.oracle)
    if status is None and args.construction != "hermite":
        raise PPForgeError(f"internal: the {args.construction} verdict "
                           f"{report.verdict} contradicts the oracle")
    record = _record(fld, args.construction, parameters, report, poly,
                     status if status else "skipped")
    if status is None:
        # hermite's criterion is sufficient-only, so it may miss a permutation
        record["note"] = ("criterion is sufficient-only: the polynomial "
                          f"{'permutes' if note else 'does not permute'} anyway")
    elif note:
        record["note"] = note
    _emit(args, record)
    return EXIT_OK


def cmd_generate(args) -> int:
    fld = parse_field(args.field)
    max_q = _resolve_max_q(args)
    limit = args.limit
    emitted = 0

    def emit(record) -> bool:
        nonlocal emitted
        if limit is not None and emitted >= limit:
            return False
        _emit(args, record)
        emitted += 1
        return limit is None or emitted < limit

    if args.construction == "theorem1":
        _need(args, "d")
        u_values = _parse_range(args.u if args.u is not None else "1")
        k_values = _parse_range(args.k if args.k is not None else "0")
        g = parse_poly(fld, args.g) if args.g is not None else None
        g0s = None
        if g is None:
            g0s = [parse_poly(fld, t) for t in (args.g0 or ["1"])]
        stream = theorem1_generate(fld, args.d, u_values, k_values, g0s=g0s, g=g)
        for params, poly in stream:
            report = theorem1_check(params)
            status, note = _confirm(poly, True, max_q, not args.no_oracle)
            if status is None:
                raise PPForgeError("internal: generator emitted a non-permutation")
            record = _record(fld, "theorem1",
                             {"d": params.d, "u": params.u, "k": params.k,
                              "b": params.b, "g0": params.g0.text()},
                             report, poly, status)
            if not emit(record):
                break
    elif args.construction == "example":
        h = parse_poly(fld, args.h if args.h is not None else "x^2")
        poly = example_family(fld, h)
        gamma = gamma_search(fld)
        status, note = _confirm(poly, True, max_q, not args.no_oracle)
        if status is None:
            raise PPForgeError("internal: example family is not a permutation")
        report = ConditionReport.build((Condition("gamma^(p-1)=-1", True, gamma),))
        record = _record(fld, "example", {"h": h.text(), "gamma": gamma,
                                          "degree": poly.degree},
                         report, poly, status)
        emit(record)
    else:  # hermite
        q = fld.q
        if q % 2 == 0:
            raise PPForgeError("hermite generation needs odd q")
        i_values = _parse_range(args.i) if args.i is not None else range(1, q)
        j_values = _parse_range(args.j) if args.j is not None else range(1, q)
        a_values = _parse_range(args.a) if args.a is not None else range(1, q)
        b_values = _parse_range(args.b) if args.b is not None else range(1, q)
        for a, b, i, j in itertools.product(a_values, b_values, i_values, j_values):
            hp = HermiteParams(fld, a, b, i, j)
            if not hermite_sufficient(hp).verdict:
                continue
            fam = hermite_family(hp)
            status, note = _confirm(fam.poly, True, max_q, not args.no_oracle)
            if status is None:
                raise PPForgeError("internal: sufficient condition failed the oracle")
            record = _record(fld, "hermite", {"a": a, "b": b, "i": i, "j": j},
                             fam.sufficient, fam.poly, status)
            if not emit(record):
                break
    return EXIT_OK


def cmd_selftest(args) -> int:
    suites = args.suite or ["all"]
    if any(s == "all" for s in suites):
        suites = list(SUITE_NAMES)
    fields = args.fields.split(",") if args.fields else None
    max_q = _resolve_max_q(args)
    failed = False
    for suite in suites:
        rep = run_equivalence_suite(suite, fields=fields, seed=args.seed, max_q=max_q)
        record = {"schema_version": SCHEMA_VERSION}
        record.update(rep.to_json_dict())
        if args.pretty:
            record["elapsed"] = f"{rep.elapsed:.2f}s"
            record["field"] = ",".join(record.pop("fields"))
            _emit(args, record)
        else:
            print(json.dumps(record, separators=(",", ":")))
        if not rep.passed():
            failed = True
    return 1 if failed else EXIT_OK


def _parse_range(text: str):
    """"N" or "A..B" (inclusive)."""
    s = str(text)
    try:
        if ".." in s:
            lo, hi = s.split("..", 1)
            return range(int(lo), int(hi) + 1)
        return (int(s),)
    except ValueError:
        raise PPForgeError(f'range {s!r} is not "N" or "A..B"') from None


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppforge",
        description="Permutation-polynomial criteria, generators, and a "
                    "brute-force verification harness over small finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("field-info", help="print p, n, q, modulus, primitive element")
    p_info.add_argument("field")
    p_info.add_argument("--pretty", action="store_true")

    p_verify = sub.add_parser("verify", help="brute-force permutation test of a polynomial")
    p_verify.add_argument("field")
    p_verify.add_argument("polynomial")
    p_verify.add_argument("--expect", choices=["true", "false"])
    p_verify.add_argument("--max-q", type=int, dest="max_q")
    p_verify.add_argument("--pretty", action="store_true")

    p_check = sub.add_parser("check", help="evaluate a construction's conditions")
    p_check.add_argument("construction", choices=CHECK_CONSTRUCTIONS)
    p_check.add_argument("field")
    p_check.add_argument("--d", type=int)
    p_check.add_argument("--u", type=int)
    p_check.add_argument("--k", type=int)
    p_check.add_argument("--b", type=int)
    p_check.add_argument("--h")
    p_check.add_argument("--g")
    p_check.add_argument("--g0")
    p_check.add_argument("--A")
    p_check.add_argument("--B")
    p_check.add_argument("--a", type=int)
    p_check.add_argument("--i", type=int)
    p_check.add_argument("--j", type=int)
    p_check.add_argument("--oracle", action="store_true",
                         help="also run the brute-force oracle on the expanded polynomial")
    p_check.add_argument("--max-q", type=int, dest="max_q")
    p_check.add_argument("--pretty", action="store_true")

    p_gen = sub.add_parser("generate", help="stream verdict-true family members")
    p_gen.add_argument("construction", choices=GENERATE_CONSTRUCTIONS)
    p_gen.add_argument("field")
    p_gen.add_argument("--d", type=int)
    p_gen.add_argument("--u", help='"N" or "A..B"')
    p_gen.add_argument("--k", help='"N" or "A..B"')
    p_gen.add_argument("--g0", action="append", help="cofactor polynomial (repeatable)")
    p_gen.add_argument("--g", help="explicit g; must be divisible by h_d")
    p_gen.add_argument("--h", help="example construction: h with F_p coefficients")
    p_gen.add_argument("--a", help='"N" or "A..B"')
    p_gen.add_argument("--b", help='"N" or "A..B"')
    p_gen.add_argument("--i", help='"N" or "A..B"')
    p_gen.add_argument("--j", help='"N" or "A..B"')
    p_gen.add_argument("--limit", type=int)
    p_gen.add_argument("--no-oracle", action="store_true", dest="no_oracle")
    p_gen.add_argument("--max-q", type=int, dest="max_q")
    p_gen.add_argument("--pretty", action="store_true")

    p_self = sub.add_parser("selftest", help="criterion-vs-oracle equivalence suites")
    p_self.add_argument("--suite", action="append",
                        help=f"one of {', '.join(SUITE_NAMES)} or 'all' (repeatable)")
    p_self.add_argument("--fields", help="comma-separated field list overriding suite defaults")
    p_self.add_argument("--seed", type=int, default=SAMPLE_SEED)
    p_self.add_argument("--max-q", type=int, dest="max_q")
    p_self.add_argument("--pretty", action="store_true")

    return parser


_COMMANDS = {
    "field-info": cmd_field_info,
    "verify": cmd_verify,
    "check": cmd_check,
    "generate": cmd_generate,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except PPForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
