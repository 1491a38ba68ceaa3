"""Time one suite field by field: print each field's case count and the
in-process wall time of its run_equivalence_suite call.  With no field
given, the suite's default grid is timed.  With --repeat N every field is
run N times, in N rounds over the fields, and each line gives the median
time followed by the min and max over the N runs.  Standard library only,
besides the package.

    python3 tools/suite_times.py [--repeat N] SUITE [FIELD ...]
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ppforge.oracle import DEFAULT_SUITE_FIELDS, run_equivalence_suite  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("suite")
    ap.add_argument("fields", nargs="*", metavar="FIELD")
    ap.add_argument("--repeat", type=int, default=1, metavar="N",
                    help="in-process runs per field (default 1)")
    args = ap.parse_args(argv)
    suite = args.suite.replace("-", "_")
    if suite not in DEFAULT_SUITE_FIELDS:
        ap.error(f"unknown suite {args.suite!r}; known: {', '.join(DEFAULT_SUITE_FIELDS)}")
    if args.repeat < 1:
        ap.error(f"--repeat must be at least 1, got {args.repeat}")
    fields = args.fields or DEFAULT_SUITE_FIELDS[suite]
    walls = [[] for _ in fields]
    reports = [None] * len(fields)
    for _ in range(args.repeat):
        for i, spec in enumerate(fields):
            t0 = time.perf_counter()
            reports[i] = run_equivalence_suite(suite, [spec])
            walls[i].append(time.perf_counter() - t0)
    for spec, rep, wall in zip(fields, reports, walls):
        spread = (f" (min {min(wall):.3f}, max {max(wall):.3f} over {len(wall)} runs)"
                  if len(wall) > 1 else "")
        print(f"{rep.suite} on {spec}: {rep.cases_run} cases, "
              f"{len(rep.disagreements)} disagreements, {statistics.median(wall):.3f} s{spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
