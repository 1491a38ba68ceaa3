"""The paired-run summary of tools/bench_pairs.py, on made-up run results."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCH = {"end_to_end": [
    {"name": "req_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "req_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "cases_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}


def _result(rate, p50, correct=True, failed=0):
    return {"correct": correct, "attempted": 52, "failed": failed,
            "metrics": {"req_per_s": {"value": rate, "unit": "1/s"},
                        "req_p50_ms": {"value": p50, "unit": "ms"}}}


def test_summarise_reads_the_better_direction_and_inclusive_quartiles():
    pairs = [(_result(100.0, 4.0), _result(200.0, 2.0)),
             (_result(110.0, 3.0), _result(105.0, 3.0)),   # rate loses, p50 ties
             (_result(120.0, 5.0), _result(300.0, 1.0)),
             (_result(130.0, 6.0, failed=1), _result(130.0, 7.0, correct=False))]
    rec = bench_pairs.summarise("requests-mixed-q", 1009, 30.0, pairs, BENCH)
    assert (rec["workload"], rec["seed"], rec["pairs"], rec["seconds"]) == (
        "requests-mixed-q", 1009, 4, 30.0)
    assert rec["correct"] == {"parent": [True] * 4, "change": [True, True, True, False]}
    assert rec["failed"] == {"parent": [0, 0, 0, 1], "change": [0, 0, 0, 0]}
    # a metric the runs do not report is left out
    assert list(rec["metrics"]) == ["req_per_s", "req_p50_ms"]
    rate = rec["metrics"]["req_per_s"]
    assert rate["unit"] == "1/s"
    assert rate["parent"] == {"q1": 107.5, "median": 115.0, "q3": 122.5,
                              "runs": [100.0, 110.0, 120.0, 130.0]}
    assert rate["change"]["median"] == 165.0
    assert rate["change_wins"] == 2          # one loss, one tie
    assert rate["change_over_parent"] == round(165.0 / 115.0, 4)
    p50 = rec["metrics"]["req_p50_ms"]
    assert p50["change_wins"] == 2           # lower wins; the tie counts for neither
    assert p50["parent"]["median"] == 4.5 and p50["change"]["median"] == 2.5


def test_summarise_one_pair():
    rec = bench_pairs.summarise("sweep-additive", 7, 5.0, [(_result(1.0, 2.0), _result(2.0, 2.0))],
                                BENCH)
    assert rec["metrics"]["req_per_s"]["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.0,
                                                     "runs": [1.0]}
    assert rec["metrics"]["req_per_s"]["change_wins"] == 1
    assert rec["metrics"]["req_p50_ms"]["change_wins"] == 0


def test_template_medians_per_side():
    runs = ([{"verify 3^7": 1.0, "check-lemma 3^7 d=1093": 4.0}, {"verify 3^7": 3.0},
             {"verify 3^7": 2.0, "check-lemma 3^7 d=1093": 2.0}],
            [{"verify 3^7": 0.5}])
    assert bench_pairs.template_medians(runs) == {
        "parent": {"check-lemma 3^7 d=1093": 3.0, "verify 3^7": 2.0},
        "change": {"verify 3^7": 0.5}}
