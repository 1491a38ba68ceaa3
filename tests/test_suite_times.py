"""Smoke test of tools/suite_times.py: per-field case counts and times,
and the summary of its paired runs on made-up results."""

import importlib.util
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


def _load_tool():
    spec = importlib.util.spec_from_file_location("suite_times", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(scaled, cases=10206, disagreements=0):
    return {"suite": "theorem1", "cases": cases, "disagreements": disagreements,
            "raw_s": 2 * scaled, "scaled_s": scaled}


def test_summarise_pairs_reads_scaled_times_ratios_and_wins():
    tool = _load_tool()
    pairs = [(_run(1.0), _run(4.0)),     # a win
             (_run(3.0), _run(3.0)),     # a tie counts for neither side
             (_run(2.0), _run(1.0)),     # a loss
             (_run(0.5), _run(2.0)),     # a win
             (_run(4.0), _run(8.0))]     # a win
    s = tool.summarise_pairs(pairs)
    # the ratio is of the medians, 2.0 over 3.0, as in tools/bench_pairs.py;
    # the median of the per-pair ratios would read 0.5
    assert s == {"cases": 10206, "disagreements": 0, "this_s": 2.0, "against_s": 3.0,
                 "ratio": 0.6667, "wins": 3, "pairs": 5}
    assert tool.paired_line("theorem1", "7", s) == (
        "theorem1 on 7: 10206 cases, 0 disagreements, 2.000 s against 3.000 s (scaled), "
        "ratio 0.667, faster in 3/5 pairs")


def test_summarise_pairs_shows_counts_that_differ_between_the_sides():
    tool = _load_tool()
    s = tool.summarise_pairs([(_run(1.0, disagreements=1), _run(1.0)),
                              (_run(1.0, cases=5), _run(1.0))])
    assert s["cases"] == [5, 10206] and s["disagreements"] == [0, 1]
    assert s["wins"] == 0 and s["ratio"] == 1.0


def test_suite_times_against_a_tree_prints_one_paired_line_per_field():
    proc = subprocess.run([sys.executable, TOOL, "--against", str(ROOT), "--repeat", "2",
                           "theorem1", "7"],
                          capture_output=True, text=True, check=True, timeout=120)
    assert re.fullmatch(r"theorem1 on 7: 10206 cases, 0 disagreements, \d+\.\d{3} s against "
                        r"\d+\.\d{3} s \(scaled\), ratio \d+\.\d{3}, faster in [0-2]/2 pairs\n",
                        proc.stdout), proc.stdout


def test_suite_times_refuses_an_against_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, TOOL, "--against", str(tmp_path), "lemma"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "no src/ppforge there" in proc.stderr
