"""Time one suite field by field: print each field's case count and the
in-process wall time of its run_equivalence_suite call.  With no field
given, the suite's default grid is timed.  With --repeat N every field is
run N times, in N rounds over the fields, and each line gives the median
time followed by the min and max over the N runs.

With --against DIR each run is a pair instead: the same suite call on the
same field, once from this tree's sources and once from DIR's (another
checkout, such as the parent commit), each in a fresh process, alternating
which side runs first.  Each time is scaled to the reference speed of
perfbench's host-speed probe (perfbench/run.py, HostSpeed), and each line
gives both sides' median scaled times, the median of the per-pair ratios
(this tree over DIR) and the number of pairs this tree won.

Standard library only, besides the package.

    python3 tools/suite_times.py [--repeat N] [--against DIR] SUITE [FIELD ...]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ppforge.oracle import DEFAULT_SUITE_FIELDS, run_equivalence_suite  # noqa: E402

# One paired run: argv is (perfbench dir, src dir, suite, field).  The probe
# comes from this tree's perfbench; run.py puts this tree's src on sys.path
# when imported, so the side's src goes in front of it afterwards.
_PAIRED_RUN = """
import json, sys
bench, src, suite, spec = sys.argv[1:]
sys.path.insert(0, bench)
import run
sys.path.insert(0, src)
from ppforge.oracle import run_equivalence_suite
host = run.HostSpeed(run.PROBE_REPEATS["sweep-cyclotomic"],
                     run.PROBE_INTERVAL_S["sweep-cyclotomic"])
rep, raw, scaled = run.timed(host, lambda: run_equivalence_suite(suite, [spec]))
if isinstance(rep, Exception):
    raise rep
print(json.dumps({"suite": rep.suite, "cases": rep.cases_run,
                  "disagreements": len(rep.disagreements), "raw_s": raw, "scaled_s": scaled}))
"""


def paired_run(src: Path, suite: str, spec: str) -> dict:
    """One suite call on one field from the sources in src, in a fresh
    process: the last stdout line, parsed."""
    proc = subprocess.run([sys.executable, "-c", _PAIRED_RUN, str(ROOT / "perfbench"),
                           str(src), suite, spec], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{src}: {suite} on {spec} failed (exit {proc.returncode})\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise_pairs(pairs) -> dict:
    """The summary of one field's (this tree, DIR) result pairs: the case
    and disagreement counts (a list when the sides differ), each side's
    median scaled time, the median per-pair ratio of this tree's time to
    DIR's, and the pairs in which this tree was faster (ties count for
    neither side)."""
    def count(key):
        seen = sorted({r[key] for pair in pairs for r in pair})
        return seen[0] if len(seen) == 1 else seen
    return {"cases": count("cases"), "disagreements": count("disagreements"),
            "this_s": statistics.median(t["scaled_s"] for t, _ in pairs),
            "against_s": statistics.median(a["scaled_s"] for _, a in pairs),
            "ratio": statistics.median(t["scaled_s"] / a["scaled_s"] for t, a in pairs),
            "wins": sum(t["scaled_s"] < a["scaled_s"] for t, a in pairs),
            "pairs": len(pairs)}


def paired_line(suite: str, spec: str, s: dict) -> str:
    return (f"{suite} on {spec}: {s['cases']} cases, {s['disagreements']} disagreements, "
            f"{s['this_s']:.3f} s against {s['against_s']:.3f} s (scaled), "
            f"ratio {s['ratio']:.3f}, faster in {s['wins']}/{s['pairs']} pairs")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("suite")
    ap.add_argument("fields", nargs="*", metavar="FIELD")
    ap.add_argument("--repeat", type=int, default=1, metavar="N",
                    help="runs (or pairs, with --against) per field (default 1)")
    ap.add_argument("--against", type=Path, metavar="DIR",
                    help="another source tree to pair each run with")
    args = ap.parse_args(argv)
    suite = args.suite.replace("-", "_")
    if suite not in DEFAULT_SUITE_FIELDS:
        ap.error(f"unknown suite {args.suite!r}; known: {', '.join(DEFAULT_SUITE_FIELDS)}")
    if args.repeat < 1:
        ap.error(f"--repeat must be at least 1, got {args.repeat}")
    if args.against is not None and not (args.against / "src" / "ppforge").is_dir():
        ap.error(f"--against {args.against}: no src/ppforge there")
    fields = args.fields or DEFAULT_SUITE_FIELDS[suite]
    if args.against is not None:
        trees = (ROOT / "src", args.against.resolve() / "src")
        pairs = [[] for _ in fields]
        for n in range(args.repeat):
            for i, spec in enumerate(fields):
                pair = [None, None]
                for side in ((0, 1) if n % 2 == 0 else (1, 0)):
                    pair[side] = paired_run(trees[side], suite, spec)
                pairs[i].append(pair)
        for spec, field_pairs in zip(fields, pairs):
            print(paired_line(suite, spec, summarise_pairs(field_pairs)))
        return 0
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
