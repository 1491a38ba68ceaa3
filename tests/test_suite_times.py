"""Smoke test of tools/suite_times.py: per-field case counts and times."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = str(ROOT / "tools" / "suite_times.py")


def test_suite_times_prints_one_line_per_field():
    proc = subprocess.run([sys.executable, TOOL, "proposition", "3", "5"],
                          capture_output=True, text=True, check=True, timeout=60)
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    for line, spec in zip(lines, ("3", "5")):
        assert re.fullmatch(rf"proposition on {spec}: 40432 cases, 0 disagreements, "
                            r"\d+\.\d{3} s", line), line


def test_suite_times_repeat_prints_the_median_min_and_max():
    proc = subprocess.run([sys.executable, TOOL, "--repeat", "3", "lemma", "7", "2^2"],
                          capture_output=True, text=True, check=True, timeout=60)
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    for line, (spec, cases) in zip(lines, (("7", 4800), ("2^2", 1200))):
        m = re.fullmatch(rf"lemma on {re.escape(spec)}: {cases} cases, 0 disagreements, "
                         r"(\d+\.\d{3}) s \(min (\d+\.\d{3}), max (\d+\.\d{3}) over 3 runs\)",
                         line)
        assert m, line
        median, low, high = map(float, m.groups())
        assert low <= median <= high


def test_suite_times_refuses_a_repeat_below_one():
    proc = subprocess.run([sys.executable, TOOL, "--repeat", "0", "lemma"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "--repeat must be at least 1" in proc.stderr


def test_suite_times_defaults_to_the_suite_grid():
    proc = subprocess.run([sys.executable, TOOL, "example-family"],
                          capture_output=True, text=True, check=True, timeout=60)
    specs = [line.split(":")[0].removeprefix("example_family on ")
             for line in proc.stdout.splitlines()]
    assert specs == ["3^2", "5^2", "7^2", "11^2", "13^2"]


def test_suite_times_refuses_an_unknown_suite():
    proc = subprocess.run([sys.executable, TOOL, "nonsense"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "unknown suite 'nonsense'" in proc.stderr
