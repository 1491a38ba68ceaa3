"""Smoke test of tools/profile_suite.py: one small suite call, profiled."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_profile_suite_prints_the_run_and_its_top_functions():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "profile_suite.py"), "lemma", "7"],
                          capture_output=True, text=True, check=True, timeout=60)
    lines = proc.stdout.splitlines()
    assert lines[0] == "lemma on 7: 4800 cases, 0 disagreements"
    assert "cumulative" in proc.stdout and "lemma_check" in proc.stdout
    assert "run_equivalence_suite" in proc.stdout
