"""Profile one run_equivalence_suite call; print the top 15 functions by
cumulative time.  --g0s cuts the theorem1 suite to those positions of the
field's seeded g0 corpus.  Standard library only, besides the package.

    python3 tools/profile_suite.py SUITE FIELD [--g0s i,j]
"""

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ppforge.field import parse_field  # noqa: E402
from ppforge.oracle import SAMPLE_SEED, run_equivalence_suite, theorem1_g0_corpus  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("suite")
    ap.add_argument("field")
    ap.add_argument("--g0s", help="comma-separated g0 corpus positions (theorem1)")
    args = ap.parse_args(argv)
    fld = parse_field(args.field)
    corpus = theorem1_g0_corpus(fld, SAMPLE_SEED) if args.g0s else None
    options = {"g0s": [corpus[int(i)] for i in args.g0s.split(",")]} if args.g0s else {}
    prof = cProfile.Profile()
    rep = prof.runcall(run_equivalence_suite, args.suite, [fld], **options)
    print(f"{rep.suite} on {args.field}: {rep.cases_run} cases, "
          f"{len(rep.disagreements)} disagreements")
    pstats.Stats(prof, stream=sys.stdout).sort_stats("cumulative").print_stats(15)
    return 0


if __name__ == "__main__":
    sys.exit(main())
