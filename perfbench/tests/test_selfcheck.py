"""The benchmark must catch a broken criterion and must refuse to run
without the package sources.

    python3 -m pytest -q perfbench/tests

The criterion is broken from outside, as the tracer wraps it: one
theorem1_check verdict is flipped in every namespace that binds the name,
and the source stays untouched.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402


def flip_first_theorem1_verdict(pkg):
    cyclotomic = sys.modules["ppforge.cyclotomic"]
    original = cyclotomic.theorem1_check
    report_cls = sys.modules["ppforge.report"].ConditionReport
    flipped = []

    def broken(params):
        report = original(params)
        if flipped:
            return report
        flipped.append(params)
        return report_cls(report.conditions, not report.verdict, report.witness)

    for name, module in list(sys.modules.items()):
        if name == "ppforge" or name.startswith("ppforge."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, broken)


def test_flipped_verdict_fails_the_request_loop():
    detail, result = bench.run("requests-mixed-q", bench.DEFAULT_SEED, 0, False,
                               patch=flip_first_theorem1_verdict)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert detail["error_rate"] > 0
    assert detail["problems"]


def test_flipped_verdict_fails_the_sweep_with_one_disagreement():
    detail, result = bench.run("sweep-cyclotomic", bench.DEFAULT_SEED, 0, False,
                               patch=flip_first_theorem1_verdict)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert detail["error_rate"] > 0
    assert "1 disagreements" in detail["problems"][0]


def test_unbroken_request_loop_is_correct_and_traced():
    detail, result = bench.run("requests-mixed-q", bench.DEFAULT_SEED, 0, True)
    assert result["correct"] is True, detail["problems"]
    assert set(result["metrics"]) == set(bench.LAYER_UNITS)
    assert result["metrics"]["oracle.record_calls"]["value"] == 0
    assert result["metrics"]["cli.emit_records"]["value"] == detail["comparisons"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sweep-cyclotomic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    config = json.loads((tmp_path / "BENCHMARK.json").read_text())
    assert config["paths"] == [BENCH.name]
