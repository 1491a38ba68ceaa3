"""Golden CLI output: the stdout and exit code of fixed `generate`, `check`
and `verify` commands, compared byte for byte.

Regenerate tests/data/cli_golden.json (only after a deliberate output
change) with:  PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from ppforge.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

THEOREM1_11 = ("--d", "5", "--u", "5", "--k", "7")
HUGE_CHECKS = (
    ("theorem1", "1000003^3", "--d", "3", "--u", "1", "--k", "0", "--b", "1"),
    ("lemma", "1000003^3", "--d", "3", "--u", "1", "--h", "x+1"),
    ("hermite", "1000003^2", "--a", "1", "--b", "1", "--i", "1", "--j", "1"),
    ("theorem1", "4611686018427377339", "--d", "2305843009213688669",
     "--u", "1", "--k", "0", "--b", "1"),
)

COMMANDS = (
    # generate theorem1
    ("generate", "theorem1", "7", "--d", "3"),
    ("generate", "theorem1", "7", "--d", "3", "--u", "1..6", "--k", "0..2"),
    ("generate", "theorem1", "7", "--d", "3", "--u", "1..6", "--limit", "0"),
    ("generate", "theorem1", "7", "--d", "3", "--max-q", "5"),
    ("generate", "theorem1", "11", *THEOREM1_11, "--g", "x^4+x^3+x^2+x+1"),
    ("generate", "theorem1", "11", *THEOREM1_11, "--g", "x^2+x+1"),
    ("generate", "theorem1", "13", "--d", "4", "--u", "1..3", "--k", "0..3",
     "--g0", "1", "--g0", "2", "--g0", "x+1", "--limit", "7"),
    ("generate", "theorem1", "3^2", "--d", "4", "--u", "1..3", "--g0", "x",
     "--g0", "x^2+1", "--limit", "5"),
    ("generate", "theorem1", "3^3", "--d", "13", "--u", "1..2", "--k", "0..1",
     "--no-oracle", "--limit", "5"),
    ("generate", "theorem1", "5^2", "--d", "3", "--k", "0..2", "--pretty", "--limit", "4"),
    ("generate", "theorem1", "2^10", "--d", "31", "--u", "1..2", "--limit", "3"),
    ("generate", "theorem1", "7", "--d", "2"),
    # generate example
    ("generate", "example", "3^2"),
    ("generate", "example", "5^2", "--h", "x^3+1"),
    ("generate", "example", "3^2", "--pretty"),
    ("generate", "example", "5^2", "--no-oracle"),
    ("generate", "example", "3^2", "--limit", "1"),
    ("generate", "example", "3^2", "--limit", "0"),
    ("generate", "example", "13^2", "--max-q", "100"),
    ("generate", "example", "7"),
    ("generate", "example", "2^10"),
    # generate hermite
    ("generate", "hermite", "7", "--limit", "10"),
    ("generate", "hermite", "7", "--a", "3", "--b", "3"),
    ("generate", "hermite", "7", "--limit", "0"),
    ("generate", "hermite", "11", "--i", "1..3", "--j", "1..3", "--limit", "20"),
    ("generate", "hermite", "13", "--a", "2", "--b", "1..4", "--pretty", "--limit", "6"),
    ("generate", "hermite", "3^2", "--no-oracle", "--limit", "5"),
    ("generate", "hermite", "3^3", "--a", "1..4", "--b", "1..4", "--limit", "4"),
    ("generate", "hermite", "1000003^2", "--a", "1", "--b", "1", "--i", "1", "--j", "1"),
    ("generate", "hermite", "5^2", "--a", "2..3", "--b", "2", "--i", "1..5",
     "--j", "1..5", "--limit", "8"),
    ("generate", "hermite", "2^10"),
    # check, all six constructions
    ("check", "lemma", "7", "--d", "2", "--u", "1", "--h", "x+3", "--oracle"),
    ("check", "lemma", "13", "--d", "3", "--u", "5", "--h", "x^2+2", "--oracle", "--pretty"),
    ("check", "lemma", "3^3", "--d", "13", "--u", "1", "--h", "x+1"),
    ("check", "lemma", "7", "--d", "2"),
    ("check", "theorem1", "7", "--d", "3", "--u", "1", "--k", "0", "--b", "2",
     "--g0", "1", "--oracle"),
    ("check", "theorem1", "7", "--d", "3", "--u", "1", "--k", "0", "--b", "2",
     "--oracle", "--max-q", "5"),
    ("check", "theorem1", "7", "--d", "3", "--u", "1", "--k", "0", "--b", "0", "--oracle"),
    ("check", "theorem1", "11", *THEOREM1_11, "--b", "3", "--g", "x^4+x^3+x^2+x+1",
     "--oracle", "--pretty"),
    ("check", "proposition", "3^2", "--A", "x", "--B", "x^3+x", "--g", "3*x^2", "--oracle"),
    ("check", "proposition", "2^4", "--A", "x^2", "--B", "x^2+x", "--g", "x^3"),
    ("check", "corollary2", "3^2", "--A", "x", "--B", "x^3+x", "--g", "3*x^2", "--oracle"),
    ("check", "corollary2", "3^2", "--A", "3*x", "--B", "x^3", "--g", "0"),
    ("check", "trace_theorem", "3^2", "--A", "x", "--h", "x^2+1", "--g", "0", "--oracle"),
    ("check", "trace_theorem", "2^3", "--A", "x", "--h", "1", "--g", "x^2",
     "--oracle", "--pretty"),
    ("check", "hermite", "7", "--a", "2", "--b", "1", "--i", "1", "--j", "5", "--oracle"),
    ("check", "hermite", "7", "--a", "3", "--b", "3", "--i", "1", "--j", "1", "--oracle"),
    ("check", "hermite", "11", "--a", "1", "--b", "2", "--i", "3", "--j", "7", "--oracle"),
    *(("check", *argv, "--oracle") for argv in HUGE_CHECKS),
    # verify
    ("verify", "7", "x^5+x^3+3*x"),
    ("verify", "7", "x^2", "--pretty"),
    ("verify", "2^10", "x^3+1", "--expect", "false"),
    ("verify", "7", "x^5+x^3+3*x", "--expect", "false"),
    ("verify", "7^9", "x", "--max-q", "100"),
)


def run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return {tuple(g["argv"]): g for g in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    assert run(argv) == golden[argv]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in COMMANDS], indent=1) + "\n")
    sys.exit(0)
