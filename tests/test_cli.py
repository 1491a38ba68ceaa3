"""Command-line surface: exit codes, JSON schema, and determinism."""

import contextlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ppforge
import ppforge.cli
import ppforge.cyclotomic
import ppforge.oracle
import ppforge.poly
from ppforge.cli import main
from ppforge.cyclotomic import HermiteParams, hermite_sufficient
from ppforge.field import divisors, parse_field
from ppforge.report import ConditionReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


def run_subprocess(*argv):
    """The CLI in a child process, with 10 s and a 2 GB address space."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2_000_000 * 1024,) * 2)

    env = {**os.environ, "PYTHONPATH": str(Path(ppforge.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "ppforge", *argv], capture_output=True,
                          text=True, timeout=10, env=env, preexec_fn=limit_memory)


def test_field_info(capsys):
    code, out, _ = run_cli(capsys, "field-info", "7")
    rec = json_lines(out)[0]
    assert code == 0
    assert (rec["p"], rec["n"], rec["q"]) == (7, 1, 7)
    code, out, _ = run_cli(capsys, "field-info", "3^2")
    rec = json_lines(out)[0]
    assert rec["modulus"] == "x^2+1" and rec["primitive_element"] == 4


def test_field_info_large_extension_is_quick():
    # the primitive-element search skips F_p, whose orders divide p-1 < q-1
    proc = run_subprocess("field-info", "1000003^3")
    assert proc.returncode == 0, proc.stderr
    rec = json_lines(proc.stdout)[0]
    assert rec["q"] == 1000003 ** 3 and rec["primitive_element"] == 1000009


def test_field_info_safe_prime_is_quick():
    # p-1 = 2 * 2305843009213688669: trial division alone would not finish
    proc = run_subprocess("field-info", "4611686018427377339")
    assert proc.returncode == 0, proc.stderr
    rec = json_lines(proc.stdout)[0]
    assert rec["q"] == 4611686018427377339 and rec["primitive_element"] == 2


def test_field_info_bad_field(capsys):
    code, _, err = run_cli(capsys, "field-info", "4^2")
    assert code == 2 and "prime" in err


def test_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "7", "x^5+x^3+3*x")
    rec = json_lines(out)[0]
    assert code == 0 and rec["verdict"] is True and rec["oracle"] == "confirmed"
    assert rec["schema_version"] == "1.0"
    code, out, _ = run_cli(capsys, "verify", "7", "x^2")
    rec = json_lines(out)[0]
    assert code == 0 and rec["verdict"] is False and rec["oracle"] == "refuted"


def test_verify_expectations_and_errors(capsys):
    code, _, _ = run_cli(capsys, "verify", "7", "x^5+x^3+3*x", "--expect", "true")
    assert code == 0
    code, _, err = run_cli(capsys, "verify", "7", "x^5+x^3+3*x", "--expect", "false")
    assert code == 3 and "mismatch" in err
    code, _, err = run_cli(capsys, "verify", "7", "x^^2")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "7^9", "x", "--max-q", "100")
    assert code == 2 and "bound" in err


def test_max_q_environment_precedence(capsys, monkeypatch):
    monkeypatch.setenv("PPFORGE_MAX_Q", "10")
    code, _, err = run_cli(capsys, "verify", "5^2", "x")
    assert code == 2 and "bound" in err
    # an explicit flag beats the environment
    code, out, _ = run_cli(capsys, "verify", "5^2", "x", "--max-q", "100")
    assert code == 0 and json_lines(out)[0]["verdict"] is True


def test_check_theorem1(capsys):
    code, out, _ = run_cli(capsys, "check", "theorem1", "7",
                           "--d", "3", "--u", "1", "--k", "0", "--b", "2",
                           "--g0", "1", "--oracle")
    rec = json_lines(out)[0]
    assert code == 0 and rec["verdict"] is True
    assert len(rec["conditions"]) == 4
    assert rec["polynomial"] == "x^5+x^3+3*x"
    assert rec["oracle"] == "confirmed"


def test_check_theorem1_scope_error(capsys):
    code, _, err = run_cli(capsys, "check", "theorem1", "7",
                           "--d", "2", "--u", "1", "--k", "0", "--b", "2")
    assert code == 2 and "scope" in err


HUGE_D_THEOREM1 = ("theorem1", "4611686018427377339", "--d", "2305843009213688669",
                   "--u", "1", "--k", "0", "--b", "1")


def test_check_beyond_expansion_guard_answers(capsys):
    # h_d would have 2.3e18 terms, past the expansion guard; condition 4
    # needs only g(1) = (d mod p) * g0(1), so the check still answers, with
    # g and the polynomial null
    code, out, err = run_cli(capsys, "check", *HUGE_D_THEOREM1, "--oracle")
    rec = json_lines(out)[0]
    assert code == 0, err
    assert [c["holds"] for c in rec["conditions"]] == [True, True, True, False]
    assert rec["parameters"]["g"] is None
    assert rec["polynomial"] is None and rec["oracle"] == "skipped"
    assert "too large to expand" in rec["note"] and "1000000" in rec["note"]


@pytest.mark.parametrize("argv,poly", [
    (("theorem1", "1000003^3", "--d", "3", "--u", "1", "--k", "0", "--b", "1"),
     "x^666672666684666685+x^333336333342333343+2*x"),
    (("lemma", "1000003^3", "--d", "3", "--u", "1", "--h", "x+1"), "x^333336333342333343+x"),
    (("hermite", "1000003^2", "--a", "1", "--b", "1", "--i", "1", "--j", "1"), "2*x"),
], ids=["theorem1", "lemma", "hermite"])
def test_check_huge_q_returns_the_polynomial(capsys, argv, poly):
    # (q-1)/d is about 3e17 (5e11 for hermite's x^((q-1)/2)), but the
    # polynomial has three terms; only the oracle is out of reach
    code, out, err = run_cli(capsys, "check", *argv, "--oracle")
    rec = json_lines(out)[0]
    assert code == 0, err
    assert rec["verdict"] is True and all(c["holds"] for c in rec["conditions"])
    assert rec["polynomial"] == poly and rec["oracle"] == "skipped"
    assert rec["note"].startswith(f"q={parse_field(argv[1]).q} exceeds brute-force bound")


@pytest.mark.parametrize("argv,poly,oracle", [
    (("lemma", "--d", "2", "--u", str(10 ** 12), "--h", "x"), "x", "confirmed"),
    (("theorem1", "--d", "3", "--u", "1", "--k", str(10 ** 12), "--b", "1"),
     "x^5+2*x^3+x", "refuted"),
], ids=["lemma", "theorem1"])
def test_check_huge_exponent_returns_the_reduced_polynomial(capsys, argv, poly, oracle):
    # x^(10^12) is one term, so the polynomial is reduced and checked
    code, out, err = run_cli(capsys, "check", argv[0], "7", *argv[1:], "--oracle")
    rec = json_lines(out)[0]
    assert code == 0, err
    assert rec["polynomial"] == poly and rec["oracle"] == oracle


def test_check_theorem1_with_huge_d_is_quick():
    proc = run_subprocess("check", *HUGE_D_THEOREM1)
    assert proc.returncode == 0, proc.stderr
    rec = json_lines(proc.stdout)[0]
    assert rec["verdict"] is False and rec["parameters"]["g"] is None
    assert rec["polynomial"] is None


@pytest.mark.parametrize("argv,messages", [
    (("lemma", "4611686018427377339", "--d", "2305843009213688669", "--u", "1", "--h", "x"),
     ("mu_d", "1000000")),
    # g is refused at a root of h_d before any long division is made
    (("theorem1", "7", "--d", "3", "--u", "1", "--k", "0", "--b", "1",
      "--g", "x^1000000000000"), ("not divisible",)),
], ids=["lemma_huge_d", "theorem1_huge_g"])
def test_check_exits_2_quickly(argv, messages):
    proc = run_subprocess("check", *argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert all(m in proc.stderr for m in messages)


@pytest.mark.parametrize("argv", [
    ("theorem1", "7", "--d", "3", "--u", "x"),
    ("hermite", "7", "--i", "1.."),
    ("hermite", "7", "--i", "..3"),
])
def test_generate_malformed_range_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "generate", *argv)
    assert code == 2 and out == ""
    assert f"range {argv[-1]!r}" in err


def test_malformed_max_q_environment_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("PPFORGE_MAX_Q", "abc")
    code, _, err = run_cli(capsys, "verify", "7", "x")
    assert code == 2 and "PPFORGE_MAX_Q='abc'" in err


def test_check_lemma(capsys):
    code, out, _ = run_cli(capsys, "check", "lemma", "7",
                           "--d", "2", "--u", "1", "--h", "x+3", "--oracle")
    rec = json_lines(out)[0]
    assert code == 0 and rec["verdict"] is True and rec["oracle"] == "confirmed"
    assert rec["polynomial"] == "x^4+3*x"


def test_check_trace_theorem(capsys):
    code, out, _ = run_cli(capsys, "check", "trace_theorem", "3^2",
                           "--A", "x", "--h", "x^2+1", "--g", "0", "--oracle")
    rec = json_lines(out)[0]
    assert code == 0 and rec["verdict"] is True
    assert [c["holds"] for c in rec["conditions"]] == [True, True, True]


def test_check_proposition_and_corollary2(capsys):
    code, out, _ = run_cli(capsys, "check", "proposition", "3^2",
                           "--A", "x", "--B", "x^3+x", "--g", "3*x^2", "--oracle")
    rec = json_lines(out)[0]
    assert code == 0 and rec["verdict"] is True and rec["oracle"] == "confirmed"
    code, out, _ = run_cli(capsys, "check", "corollary2", "3^2",
                           "--A", "x", "--B", "x^3+x", "--g", "3*x^2", "--oracle")
    assert code == 0 and json_lines(out)[0]["verdict"] is True
    # non-commuting A, B: the corollary does not apply
    code, _, err = run_cli(capsys, "check", "corollary2", "3^2",
                           "--A", "3*x", "--B", "x^3", "--g", "0")
    assert code == 2 and "commute" in err


def test_check_missing_options(capsys):
    code, _, err = run_cli(capsys, "check", "lemma", "7", "--d", "2")
    assert code == 2 and "--u" in err


def test_check_hermite_sufficient_only_note(capsys):
    code, out, _ = run_cli(capsys, "check", "hermite", "7",
                           "--a", "3", "--b", "3", "--i", "1", "--j", "1", "--oracle")
    rec = json_lines(out)[0]
    # 2a = 6 is not a square so the sufficient condition fails, yet f = 6x
    # permutes; the record cannot claim oracle agreement and says why
    assert code == 0 and rec["verdict"] is False
    assert rec["oracle"] == "skipped" and "sufficient-only" in rec["note"]


def test_check_oracle_disagreement_on_an_exact_criterion_exits_2(capsys, monkeypatch):
    original = ppforge.cli.theorem1_check

    def flipped(params):
        report = original(params)
        return ConditionReport(report.conditions, not report.verdict)

    monkeypatch.setattr(ppforge.cli, "theorem1_check", flipped)
    code, out, err = run_cli(capsys, "check", "theorem1", "7", "--d", "3", "--u", "1",
                             "--k", "0", "--b", "2", "--g0", "1", "--oracle")
    assert code == 2 and out == ""
    assert "internal" in err and "contradicts the oracle" in err


def test_check_theorem1_builds_g_once(capsys, monkeypatch):
    calls = []
    original = ppforge.cli.Theorem1Params.g

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ppforge.cli.Theorem1Params, "g", counted)
    code, out, _ = run_cli(capsys, "check", "theorem1", "7", "--d", "3", "--u", "1",
                           "--k", "0", "--b", "2", "--g0", "1")
    assert code == 0 and json_lines(out)[0]["parameters"]["g"] == "x^2+x+1"
    assert len(calls) == 1


def test_check_corollary2_walks_a_and_b_once_each(capsys, monkeypatch):
    # the commute test, the kernel/image data and condition 2 all read the
    # same two kept value tables of F_9, each built from its two basis
    # images
    calls = []
    original = ppforge.poly.AdditivePoly.eval

    def counted(self, a):
        calls.append(a)
        return original(self, a)

    monkeypatch.setattr(ppforge.poly.AdditivePoly, "eval", counted)
    code, out, _ = run_cli(capsys, "check", "corollary2", "3^2", "--A", "x",
                           "--B", "x^3+x", "--g", "3*x^2")
    assert code == 0 and json_lines(out)[0]["verdict"] is True
    assert len(calls) == 2 * 2


def test_parser_is_built_once_and_keeps_no_state(capsys):
    code, out, _ = run_cli(capsys, "generate", "theorem1", "7", "--d", "3",
                           "--g0", "1", "--g0", "2")
    assert code == 0 and {r["parameters"]["g0"] for r in json_lines(out)} == {"1", "2"}
    code, out, _ = run_cli(capsys, "generate", "theorem1", "7", "--d", "3")
    assert code == 0 and {r["parameters"]["g0"] for r in json_lines(out)} == {"1"}
    assert ppforge.cli._build_parser() is ppforge.cli._build_parser()


@pytest.mark.parametrize("argv", [
    ("proposition", "4611686018427377339", "--A", "x", "--B", "x", "--g", "x"),
    ("corollary2", "4611686018427377339", "--A", "x", "--B", "x", "--g", "x"),
    ("trace_theorem", "1000003^3", "--A", "x", "--h", "1", "--g", "x"),
    # beyond the tables an extension field's walk is weighed by its digit
    # products, so 3^11 (q = 177147) is refused though q is below 10^6
    ("trace_theorem", "3^11", "--A", "x", "--h", "1", "--g", "x"),
], ids=["proposition", "corollary2", "trace_theorem", "trace_theorem_3^11"])
def test_check_refuses_a_walk_of_a_huge_field_quickly(argv):
    proc = run_subprocess("check", *argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "walk of F_q" in proc.stderr and "1000000" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("proposition", "65537", "--A", "x", "--B", "x", "--g", "x"),
    ("lemma", "1000003", "--d", "500001", "--u", "1", "--h", "x+1"),
], ids=["proposition_65537", "lemma_1000003"])
def test_check_on_a_prime_field_beyond_the_tables_answers(argv):
    # a prime field's walk costs one built-in pow per element, so a walk of
    # 65537 elements, or of 500001 roots of unity, is within the guard
    proc = run_subprocess("check", *argv)
    assert proc.returncode == 0, proc.stderr
    assert isinstance(json_lines(proc.stdout)[0]["verdict"], bool)


# --- criterion totality: any parameters answer or exit 2, quickly ----------

TOTALITY_FIELDS = ("7", "3^2", "2^4", "5^2", "1000003", "1000003^3", "4611686018427377339")
_DIVISORS = {spec: divisors(parse_field(spec).q - 1) for spec in TOTALITY_FIELDS}


@st.composite
def _poly_text(draw, q, exponents=st.integers(0, 4)):
    terms = draw(st.lists(st.tuples(st.integers(0, q - 1), exponents), min_size=1, max_size=4))
    return "+".join(f"{c}*x^{e}" for c, e in terms)


@st.composite
def _check_argv(draw):
    construction = draw(st.sampled_from(ppforge.cli.CHECK_CONSTRUCTIONS))
    spec = draw(st.sampled_from(TOTALITY_FIELDS))
    fld = parse_field(spec)
    q, p = fld.q, fld.p
    ds = _DIVISORS[spec]
    d = draw(st.sampled_from(ds) | st.just(ds[-1]))
    exponent = st.integers(0, 2 * q) | st.integers(0, 10 ** 20)
    additive = _poly_text(q, st.sampled_from([1, p, p * p]))
    argv = ["check", construction, spec]
    if construction == "lemma":
        argv += ["--d", d, "--u", draw(exponent), "--h", draw(_poly_text(q))]
    elif construction == "theorem1":
        argv += ["--d", d, "--u", draw(exponent), "--k", draw(exponent),
                 "--b", draw(st.integers(0, q - 1))]
        if draw(st.booleans()):
            argv += ["--g0", draw(_poly_text(q))]
        else:
            argv += ["--g", draw(_poly_text(q))]
    elif construction in ("proposition", "corollary2"):
        argv += ["--A", draw(additive), "--B", draw(additive), "--g", draw(_poly_text(q))]
    elif construction == "trace_theorem":
        # A and h over F_p, where the criterion applies
        argv += ["--A", draw(_poly_text(p, st.sampled_from([1, p, p * p]))),
                 "--h", draw(_poly_text(p)), "--g", draw(_poly_text(q))]
    else:
        argv += ["--a", draw(st.integers(0, q - 1)), "--b", draw(st.integers(0, q - 1)),
                 "--i", draw(exponent), "--j", draw(exponent)]
    if draw(st.booleans()):
        argv.append("--oracle")
    return [str(a) for a in argv]


@settings(max_examples=300, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.too_slow])
@given(_check_argv())
def test_every_check_answers_or_exits_2(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    if code == 0:
        rec = json_lines(out.getvalue())[0]
        assert isinstance(rec["verdict"], bool)
    else:
        assert err.getvalue().startswith("error: ")


def test_generate_theorem1_defaults(capsys):
    code, out, _ = run_cli(capsys, "generate", "theorem1", "7", "--d", "3")
    recs = json_lines(out)
    assert code == 0 and [r["parameters"]["b"] for r in recs] == [2]
    assert recs[0]["oracle"] == "confirmed"
    assert recs[0]["polynomial"] == "x^5+x^3+3*x"


def test_generate_theorem1_explicit_g(capsys):
    code, out, _ = run_cli(capsys, "generate", "theorem1", "11",
                           "--d", "5", "--u", "5", "--k", "7",
                           "--g", "x^4+x^3+x^2+x+1")
    recs = json_lines(out)
    assert code == 0 and [r["parameters"]["b"] for r in recs] == [3]
    # a g that is not divisible by h_d is rejected
    code, _, err = run_cli(capsys, "generate", "theorem1", "11",
                           "--d", "5", "--u", "5", "--k", "7", "--g", "x^2+x+1")
    assert code == 2 and "divisible" in err


@pytest.mark.parametrize("argv", [
    ("check", "theorem1", "7", "--d", "3", "--u", "1", "--k", "0", "--b", "1",
     "--g0", "x", "--g", "x^2+x+1"),
    ("generate", "theorem1", "13", "--d", "4", "--g", "x^3+x^2+x+1", "--g0", "x"),
], ids=["check", "generate"])
def test_theorem1_g_with_g0_exits_2(capsys, argv):
    # --g fixes g0 as its cofactor, so a second g0 is refused, not dropped
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "not both" in err


def test_generate_example(capsys):
    code, out, _ = run_cli(capsys, "generate", "example", "3^2", "--h", "x^2")
    recs = json_lines(out)
    assert code == 0 and len(recs) == 1
    rec = recs[0]
    assert rec["polynomial"] == "3*x^6+6*x^4+3*x^2+x"
    assert rec["parameters"]["gamma"] == 3 and rec["parameters"]["degree"] == 6
    assert rec["oracle"] == "confirmed"


def test_generate_limit(capsys):
    code, out, _ = run_cli(capsys, "generate", "theorem1", "7", "--d", "3",
                           "--u", "1..6", "--limit", "0")
    assert code == 0 and out == ""
    code, out, _ = run_cli(capsys, "generate", "hermite", "7", "--limit", "2")
    assert code == 0 and len(json_lines(out)) == 2


def test_generate_negative_limit_exits_2(capsys):
    code, out, err = run_cli(capsys, "generate", "theorem1", "7", "--d", "3",
                             "--limit", "-1")
    assert code == 2 and out == "" and "--limit" in err


@pytest.mark.parametrize("argv", [
    ("--d", "3", "--u", "0..6"),
    ("--d", "3", "--u", "2", "--k=-1..0"),
    ("--d", "6", "--u", "0"),
], ids=["u-0", "k-negative", "d-q-1"])
def test_generate_theorem1_invalid_value_exits_2(capsys, argv):
    # an invalid u or k exits 2 even where (1), (2) or the g0 filter at
    # d = q-1 would skip it before any b is walked
    code, out, err = run_cli(capsys, "generate", "theorem1", "7", *argv)
    assert code == 2 and out == ""
    assert "need u >= 1 and k >= 0" in err


def test_generate_theorem1_judges_each_candidate_once(capsys, monkeypatch):
    calls = []
    original = ppforge.cyclotomic.theorem1_check

    def counted(params):
        calls.append(params)
        return original(params)

    for module in (ppforge.cyclotomic, ppforge.cli):
        monkeypatch.setattr(module, "theorem1_check", counted)
    code, out, _ = run_cli(capsys, "generate", "theorem1", "7", "--d", "3",
                           "--u", "1..6", "--k", "0..2")
    assert code == 0 and len(json_lines(out)) == 6
    # one per b, emitted or not, for each of the 6 (u, k) that pass (1)-(2):
    # u odd, and u + 2k prime to 3
    assert len(calls) == 6 * 7


@pytest.mark.parametrize("argv", [
    ("check", "hermite", "7", "--a", "3", "--b", "3", "--i", "2", "--j", "2", "--oracle"),
    ("generate", "hermite", "7", "--a", "3", "--b", "3", "--i", "2", "--j", "2"),
], ids=["check", "generate"])
def test_hermite_verdict_true_on_a_non_permutation_exits_2(capsys, monkeypatch, argv):
    # f = 6x^2 does not permute F_7; a sufficient criterion that claims it
    # does is wrong, in check and in generate alike (generate filters its
    # axes with the criterion's two halves)
    forced = ConditionReport((), True)
    monkeypatch.setattr(ppforge.cli, "hermite_sufficient", lambda hp: forced)
    monkeypatch.setattr(ppforge.cli, "hermite_coeff_ok", lambda fld, a: True)
    monkeypatch.setattr(ppforge.cli, "hermite_exp_ok", lambda fld, i: True)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "internal" in err and "contradicts the oracle" in err


def test_generate_hermite_all_confirmed(capsys):
    code, out, _ = run_cli(capsys, "generate", "hermite", "7",
                           "--i", "1..6", "--j", "1..6", "--limit", "10")
    recs = json_lines(out)
    assert code == 0 and len(recs) == 10
    assert all(r["verdict"] and r["oracle"] == "confirmed" for r in recs)


def test_generate_hermite_is_the_filter_of_the_criterion(capsys):
    for spec, ranges in (("7", ("2..5", "1..6", "1..6", "2..5")),
                         ("3^2", ("3..8", "1..4", "1..8", "3..7"))):
        fld = parse_field(spec)
        code, out, _ = run_cli(capsys, "generate", "hermite", spec, "--no-oracle",
                               *(arg for axis, r in zip("abij", ranges)
                                 for arg in ("--" + axis, r)))
        grid = [dict(zip("abij", abij)) for abij in itertools.product(
                    *(range(int(lo), int(hi) + 1) for lo, hi in (r.split("..") for r in ranges)))
                if hermite_sufficient(HermiteParams(fld, *abij)).verdict]
        assert code == 0 and [r["parameters"] for r in json_lines(out)] == grid and grid


@pytest.mark.parametrize("argv", [
    ("hermite", "1009", "--a", "11", "--b", "11"),
    ("hermite", "10007", "--a", "5", "--b", "5"),
    ("hermite", "1000003^2", "--b", "1000004"),
    ("theorem1", "1000003", "--d", "3", "--u", "2", "--k", "0..1"),
    ("theorem1", "1000003", "--d", "1000002", "--u", "1"),
    ("theorem1", "1000003^3", "--d", "3", "--u", "2"),
    ("theorem1", "1000003^3", "--d", "3", "--u", "2", "--k", "0..1000000000000"),
    ("theorem1", "1000003^3", "--d", "1000009000027000026", "--u", "1"),
    ("theorem1", "1000003", "--d", "1000002", "--u", "1..1000000000000"),
], ids=["1009", "10007", "1000003^2", "theorem1-1000003-u-even", "theorem1-1000003-d-q-1",
        "theorem1-1000003^3-u-even", "theorem1-1000003^3-k-range",
        "theorem1-1000003^3-d-q-1", "theorem1-1000003-d-q-1-u-range"])
def test_generate_empty_filter_answers_quickly(argv):
    # hermite: 2a (2b) is not a square, so no (a, b, i, j) passes; that axis
    # is filtered before the grid is walked: the (q-1)^2 exponent pairs, 10^8
    # of them on 10007, or on 1000003^2 every a with 10^24 pairs each.
    # theorem1: an even u fails (1), gcd(u, (q-1)/d) = 1, before any k or b
    # is walked; at d = q-1 the only d-th power is 1, so g0 = 1 with
    # g0(1) != 0 fails (4) for every b, before any u is walked
    proc = run_subprocess("generate", *argv, "--limit", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv,message", [
    (("--a", "11", "--b", "0"), "nonzero element indices"),
    (("--a", "1..2000",), "nonzero element indices"),
    (("--i", "0..3",), "must be positive"),
])
def test_generate_hermite_invalid_value_exits_2(capsys, argv, message):
    # an invalid value exits 2 even where the filters would never reach it
    code, out, err = run_cli(capsys, "generate", "hermite", "1009", *argv, "--limit", "1")
    assert code == 2 and out == ""
    assert message in err


def test_selftest_single_suite(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--suite", "lemma", "--fields", "7")
    rec = json_lines(out)[0]
    assert code == 0
    assert rec["suite"] == "lemma" and rec["cases"] == 4800
    assert rec["disagreements"] == []


def test_selftest_with_disagreements_exits_1(capsys, monkeypatch):
    original = ppforge.oracle.lemma_check

    def flipped(form):
        report = original(form)
        return ConditionReport(report.conditions, not report.verdict)

    monkeypatch.setattr(ppforge.oracle, "lemma_check", flipped)
    code, out, _ = run_cli(capsys, "selftest", "--suite", "lemma", "--fields", "5")
    rec = json_lines(out)[0]
    assert code == 1
    assert rec["disagreements"] and len(rec["disagreements"]) == rec["cases"]


def test_recorded_disagreement_json_has_its_five_fields_in_order(capsys, monkeypatch):
    # the JSON form of one recorded disagreement: the flipped lemma on F_5
    # first disagrees at d = 1, u = 1, h = 1, which does permute
    original = ppforge.oracle.lemma_check

    def flipped(form):
        report = original(form)
        return ConditionReport(report.conditions, not report.verdict)

    monkeypatch.setattr(ppforge.oracle, "lemma_check", flipped)
    _, out, _ = run_cli(capsys, "selftest", "--suite", "lemma", "--fields", "5")
    first = json_lines(out)[0]["disagreements"][0]
    assert list(first.items()) == [
        ("field", "5"), ("construction", "lemma"),
        ("parameters", {"d": 1, "u": 1, "h": "1", "h_pos": 0}),
        ("theorem_verdict", False), ("oracle_verdict", True)]
    assert list(first["parameters"]) == ["d", "u", "h", "h_pos"]


def test_selftest_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "selftest", "--suite", "nope", "--fields", "7")
    assert code == 2 and "unknown suite" in err


@pytest.mark.parametrize("field", ["65537", "65521"])
def test_selftest_hermite_past_the_guard_exits_2_quickly(field):
    # phi(q-1)^2 exponent pairs (2^30 on 65537) are refused before any is built
    proc = run_subprocess("selftest", "--suite", "hermite", "--fields", field)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "hermite exponent grid" in proc.stderr and "1000000" in proc.stderr


def test_selftest_hermite_grid_of_cells_past_the_guard_exits_2_quickly():
    # 1009 has 82,944 exponent pairs, within the guard, but 504^2 (a, b)
    # cells of them: the whole grid is weighed before its first cell
    proc = run_subprocess("selftest", "--suite", "hermite", "--fields", "1009")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "(a, b) cells" in proc.stderr and str(504 ** 2 * 288 ** 2) in proc.stderr
    assert "1000000" in proc.stderr


@pytest.mark.parametrize("suite,field,weight", [
    ("proposition", "3^7", 57 ** 2 * 2187),          # (A, B) cells by elements
    ("corollary2", "2^12", 327 * 4096),              # commuting pairs by elements
    ("trace_theorem", "11^2", 11 ** 3 * (121 + 11 ** 4))])   # A walks and (A, h) cells
def test_selftest_additive_grid_past_the_guard_exits_2_quickly(suite, field, weight):
    # the whole grid is weighed before its first cell: proposition on 3^7
    # gave no answer within 20 s before the weight was taken
    proc = run_subprocess("selftest", "--suite", suite, "--fields", field)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"the {suite} grid" in proc.stderr and str(weight) in proc.stderr
    assert "1000000" in proc.stderr


@pytest.mark.parametrize("field,weight", [
    ("2^10", 8 * 200 * 1023), ("1031", 8 * 200 * 1030),
    ("3^7", 4 * 200 * 2186), ("65537", 17 * 200 * 65536)])   # divisors by h by u
def test_selftest_lemma_grid_past_the_guard_exits_2_quickly(field, weight):
    # the lemma grid is weighed before its first cell: on 65537 and 2^10
    # the suite gave no answer within 15 s before the weight was taken
    proc = run_subprocess("selftest", "--suite", "lemma", "--fields", field)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "the lemma grid" in proc.stderr and str(weight) in proc.stderr
    assert "1000000" in proc.stderr


@pytest.mark.parametrize("field,weight", [
    ("7^2", 8 * 69 * 48 * 49), ("61", 10 * 81 * 60 * 61),
    ("65537", 15 * 65557 * 65536 * 65537)])   # d > 2 by g0 by u by b
def test_selftest_theorem1_grid_past_the_guard_exits_2_quickly(field, weight):
    # the theorem1 grid is weighed before its g0 corpus is drawn: on 61
    # the suite gave no answer within 20 s before the weight was taken
    proc = run_subprocess("selftest", "--suite", "theorem1", "--fields", field)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "the theorem1 grid" in proc.stderr and str(weight) in proc.stderr
    assert "1000000" in proc.stderr


def test_selftest_output_is_deterministic(capsys):
    args = ("selftest", "--suite", "hermite", "--suite", "example_family",
            "--fields", "7,3^2")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2 and out1


def test_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "check", "unknown-thing", "7")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "7")
    assert code == 2


def test_pretty_mode(capsys):
    code, out, _ = run_cli(capsys, "check", "theorem1", "7", "--d", "3", "--u", "1",
                           "--k", "0", "--b", "2", "--pretty")
    assert code == 0 and "[ok ]" in out and "verdict" in out
    code, out, _ = run_cli(capsys, "field-info", "3^2", "--pretty")
    assert "modulus: x^2+1" in out
