"""The sweeps' traced benchmark runs must reach every name they pin.

perfbench/run.py lists, per workload, the package names its traced run
must see called (run.EXPECTED_CALLS, beside tracer.SPAN_TARGETS); a
refactor that renames one or stops calling it shows up here, not only in
the benchmark.  perfbench is imported read-only, as its own self-check
does.  A run imports ppforge afresh into sys.modules; the modules the
other tests imported are put back after it.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run as bench  # noqa: E402


@pytest.fixture
def package_restored():
    saved = bench._package_modules()
    yield
    for name in bench._package_modules():
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.mark.parametrize("name", ["sweep-cyclotomic", "sweep-additive"])
def test_traced_sweep_reaches_its_pinned_names(name, package_restored):
    detail, result = bench.run(name, bench.DEFAULT_SEED, 0, True)
    assert result["correct"], detail["problems"]
    assert detail["problems"] == []
