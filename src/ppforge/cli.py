"""Command-line surface: field info, brute-force verification, criterion
checks, family generation, and the self-test harness.

Output is line-delimited JSON with a schema_version tag; --pretty switches
to a human-readable rendering.  Exit codes: 0 success, 1 a selftest suite
with disagreements, 2 usage/parse/scope error, 3 expectation mismatch.  The
brute-force bound resolves as CLI flag > PPFORGE_MAX_Q environment variable
> oracle.DEFAULT_MAX_Q (the vectorized bound field.VECTOR_MAX_Q = 2^16).
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
                         hermite_coeff_ok, hermite_exp_ok, hermite_family,
                         hermite_sufficient, lemma_check, theorem1_check,
                         theorem1_generate)
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


def _resolve_max_q(args) -> int:
    max_q = getattr(args, "max_q", None)
    if max_q is None:
        env = os.environ.get("PPFORGE_MAX_Q")
        try:
            max_q = int(env) if env else DEFAULT_MAX_Q
        except ValueError:
            raise PPForgeError(f"PPFORGE_MAX_Q={env!r} is not an integer") from None
    if max_q < 0:
        raise PPForgeError(f"the brute-force bound must be >= 0, got {max_q}")
    return max_q


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


def _need(args, *names):
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise PPForgeError(f"missing required option(s): {', '.join('--' + m for m in missing)}")


def _theorem1_cofactors(args, fld) -> list:
    """The Theorem 1 cofactors g0: the --g0 texts parsed (x^0 by default),
    or the one cofactor g / h_d of an explicit --g, which raises unless h_d
    divides g.  --g fixes g0, so the two options are alternatives."""
    if args.g is None:
        return [parse_poly(fld, t) for t in args.g0 or ["1"]]
    if args.g0 is not None:
        raise PPForgeError("pass either --g0 or an explicit --g, not both")
    return [cofactor_of(fld, args.d, parse_poly(fld, args.g))]


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
    _emit(args, {"schema_version": SCHEMA_VERSION, "field": fld.designation(),
                 "construction": "oracle", "parameters": {}, "conditions": [],
                 "verdict": perm, "polynomial": poly.text(),
                 "oracle": "confirmed" if perm else "refuted"})
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
    g0 = _theorem1_cofactors(args, fld)[-1]  # a repeated --g0: the last one
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
            hermite_sufficient(hp), lambda: hermite_family(hp))


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
CHECK_CONSTRUCTIONS = tuple(_CHECKS)


def _generate_theorem1(args, fld):
    _need(args, "d")
    u_values = _parse_range(args.u if args.u is not None else "1")
    k_values = _parse_range(args.k if args.k is not None else "0")
    g0s = _theorem1_cofactors(args, fld)
    for params, report, poly in theorem1_generate(fld, args.d, u_values, k_values, g0s):
        yield ({"d": params.d, "u": params.u, "k": params.k, "b": params.b,
                "g0": params.g0.text()}, report, lambda poly=poly: poly)


def _generate_example(args, fld):
    h = parse_poly(fld, args.h if args.h is not None else "x^2")
    poly = example_family(fld, h)
    gamma = gamma_search(fld)
    yield ({"h": h.text(), "gamma": gamma, "degree": poly.degree},
           ConditionReport.build((Condition("gamma^(p-1)=-1", True, gamma),)),
           lambda: poly)


def _generate_hermite(args, fld):
    axes = [range(1, fld.q) if r is None else _parse_range(r)
            for r in (args.a, args.b, args.i, args.j)]
    if not all(axes):
        return
    for corner in (0, -1):  # each bound is an interval: the corners validate the grid
        HermiteParams(fld, *(axis[corner] for axis in axes))
    # each condition reads one axis ("2a is a square", "2b is a square", and
    # gcd(i*j, q-1) = 1 splits over i and j): each pass of a loop filters
    # its axis again, as far as that pass reaches
    a_ok, b_ok, i_ok, j_ok = passing = [
        functools.partial(filter, functools.partial(ok, fld), axis)
        for ok, axis in zip((hermite_coeff_ok, hermite_coeff_ok, hermite_exp_ok,
                             hermite_exp_ok), axes)]
    if any(next(axis(), None) is None for axis in passing):
        return  # an axis where nothing passes empties the grid
    for a in a_ok():
        for b in b_ok():
            for i in i_ok():
                for j in j_ok():
                    hp = HermiteParams(fld, a, b, i, j)
                    report = hermite_sufficient(hp)
                    if report.verdict:
                        yield ({"a": a, "b": b, "i": i, "j": j}, report,
                               lambda hp=hp: hermite_family(hp))


# each generator streams (parameters, report, expand) for the verdict-true
# members of its family, in a stable order, as the checks return them
_GENERATORS = {
    "theorem1": _generate_theorem1,
    "example": _generate_example,
    "hermite": _generate_hermite,
}
GENERATE_CONSTRUCTIONS = tuple(_GENERATORS)


def _answer(args, fld: Field, parameters: dict, report: ConditionReport, expand,
            run_oracle: bool):
    """Emit one candidate: its conditions and verdict, the polynomial unless
    it is past the expansion guard, and the oracle's outcome.

    An oracle that contradicts the verdict is an internal error, save for
    hermite's sufficient-only criterion missing a permutation.
    """
    record = {"schema_version": SCHEMA_VERSION, "field": fld.designation(),
              "construction": args.construction, "parameters": parameters,
              "conditions": [c.to_json_dict() for c in report.conditions],
              "verdict": report.verdict, "polynomial": None, "oracle": "skipped"}
    try:
        poly = expand()
    except ExpansionTooLargeError as exc:
        record["note"] = f"{exc}; the conditions and verdict do not need it"
        _emit(args, record)
        return
    record["polynomial"] = poly.text()
    max_q = _resolve_max_q(args)
    if not run_oracle:
        pass
    elif fld.q > max_q:
        record["note"] = f"q={fld.q} exceeds brute-force bound {max_q}"
    elif is_permutation(poly, max_q=max_q) == report.verdict:
        record["oracle"] = "confirmed" if report.verdict else "refuted"
    elif args.construction == "hermite" and not report.verdict:
        record["note"] = "criterion is sufficient-only: the polynomial permutes anyway"
    else:
        raise PPForgeError(f"internal: the {args.construction} verdict "
                           f"{report.verdict} contradicts the oracle")
    _emit(args, record)


def cmd_check(args) -> int:
    fld = parse_field(args.field)
    _answer(args, fld, *_CHECKS[args.construction](args, fld), args.oracle)
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise PPForgeError(f"--limit must be >= 0, got {args.limit}")
    fld = parse_field(args.field)
    stream = _GENERATORS[args.construction](args, fld)
    for parameters, report, expand in itertools.islice(stream, args.limit):
        _answer(args, fld, parameters, report, expand, not args.no_oracle)
    return EXIT_OK


def cmd_selftest(args) -> int:
    suites = args.suite or ["all"]
    if any(s == "all" for s in suites):
        suites = list(SUITE_NAMES)
    fields = args.fields.split(",") if args.fields is not None else None
    max_q = _resolve_max_q(args)
    failed = False
    for suite in suites:
        rep = run_equivalence_suite(suite, fields=fields, seed=args.seed, max_q=max_q)
        record = {"schema_version": SCHEMA_VERSION, **rep.to_json_dict()}
        if args.pretty:
            record["elapsed"] = f"{rep.elapsed:.2f}s"
            record["field"] = ",".join(record.pop("fields"))
        _emit(args, record)
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
    p_check.add_argument("--g0", action="append")
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
