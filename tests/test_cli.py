"""Command-line surface: exit codes, JSON schema, and determinism."""

import contextlib
import io
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
from ppforge.cli import main
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


def test_check_lemma_with_huge_d_exits_2_quickly():
    proc = run_subprocess("check", "lemma", "4611686018427377339",
                          "--d", "2305843009213688669", "--u", "1", "--h", "x")
    assert proc.returncode == 2
    assert "mu_d" in proc.stderr and "1000000" in proc.stderr


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
    assert len(calls) == 6 * 3 * 7  # one per (u, k, b), emitted or not


@pytest.mark.parametrize("argv", [
    ("check", "hermite", "7", "--a", "3", "--b", "3", "--i", "2", "--j", "2", "--oracle"),
    ("generate", "hermite", "7", "--a", "3", "--b", "3", "--i", "2", "--j", "2"),
], ids=["check", "generate"])
def test_hermite_verdict_true_on_a_non_permutation_exits_2(capsys, monkeypatch, argv):
    # f = 6x^2 does not permute F_7; a sufficient criterion that claims it
    # does is wrong, in check and in generate alike
    forced = ConditionReport((), True)
    monkeypatch.setattr(ppforge.cli, "hermite_sufficient", lambda hp: forced)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "internal" in err and "contradicts the oracle" in err


def test_generate_hermite_all_confirmed(capsys):
    code, out, _ = run_cli(capsys, "generate", "hermite", "7",
                           "--i", "1..6", "--j", "1..6", "--limit", "10")
    recs = json_lines(out)
    assert code == 0 and len(recs) == 10
    assert all(r["verdict"] and r["oracle"] == "confirmed" for r in recs)


def test_selftest_single_suite(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--suite", "lemma", "--fields", "7")
    rec = json_lines(out)[0]
    assert code == 0
    assert rec["suite"] == "lemma" and rec["cases"] == 4800
    assert rec["disagreements"] == []


def test_selftest_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "selftest", "--suite", "nope", "--fields", "7")
    assert code == 2 and "unknown suite" in err


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
