"""Time one suite field by field: print each field's case count and the
in-process wall time of its run_equivalence_suite call.  With no field
given, the suite's default grid is timed.  Standard library only, besides
the package.

    python3 tools/suite_times.py SUITE [FIELD ...]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ppforge.oracle import DEFAULT_SUITE_FIELDS, run_equivalence_suite  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("suite")
    ap.add_argument("fields", nargs="*", metavar="FIELD")
    args = ap.parse_args(argv)
    suite = args.suite.replace("-", "_")
    if suite not in DEFAULT_SUITE_FIELDS:
        ap.error(f"unknown suite {args.suite!r}; known: {', '.join(DEFAULT_SUITE_FIELDS)}")
    fields = args.fields or DEFAULT_SUITE_FIELDS[suite]
    for spec in fields:
        t0 = time.perf_counter()
        rep = run_equivalence_suite(suite, [spec])
        wall = time.perf_counter() - t0
        print(f"{rep.suite} on {spec}: {rep.cases_run} cases, "
              f"{len(rep.disagreements)} disagreements, {wall:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
