"""Run the benchmark in pairs on a parent and a change checkout and record
both sides in a BENCH_*.json file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        [--pairs 10] [--seconds 30] [--seed 1009] --out BENCH_N.json [--note TEXT]

Each pair runs the command of the change checkout's BENCHMARK.json once in
each checkout, in a fresh process, alternating which side runs first.  The
last stdout line of a run is its result.  The workload's record gives, per
end-to-end metric of BENCHMARK.json, each side's runs, median and quartiles
(inclusive method), `change_wins` (pairs where the change reads better in
the metric's "better" direction; ties count for neither side) and
`change_over_parent` (median over median), by compare, which
tools/suite_times.py shares.  Where the runs report
per-template medians (`templates_ms`, requests-mixed-q), the record keeps
each side's median of them over its runs.  A record with the same
workload and seed in --out is replaced; other records are kept.  Standard
library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METHOD = ("paired runs of the parent commit and the change from separate checkouts on the "
          "same machine, alternating which side runs first; each side's median and quartiles "
          "(inclusive method) over its runs; change_wins counts the pairs where the change "
          "reads better")
SIDES = ("parent", "change")


def quartiles(xs) -> dict:
    if len(xs) == 1:
        q1 = med = q3 = xs[0]
    else:
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(med, 4), "q3": round(q3, 4),
            "runs": [round(x, 4) for x in xs]}


def compare(parent, change, better: str) -> dict:
    """One metric's paired runs compared: each side's quartiles,
    `change_wins` (pairs where the change reads better in the `better`
    direction, "higher" or "lower"; ties count for neither side) and
    `change_over_parent` (median over median)."""
    sign = 1 if better == "higher" else -1
    p, c = quartiles(parent), quartiles(change)
    return {"parent": p, "change": c,
            "change_wins": sum(sign * (y - x) > 0 for x, y in zip(parent, change)),
            "change_over_parent": round(c["median"] / p["median"], 4)}


def summarise(workload: str, seed: int, seconds: float, pairs, bench: dict) -> dict:
    """The record of one workload from its (parent, change) result pairs,
    each result being the last stdout line of a run, parsed."""
    out = {"workload": workload, "seed": seed, "pairs": len(pairs), "seconds": seconds,
           "correct": {s: [r[i]["correct"] for r in pairs] for i, s in enumerate(SIDES)},
           "failed": {s: [r[i]["failed"] for r in pairs] for i, s in enumerate(SIDES)},
           "metrics": {}}
    for spec in bench["end_to_end"]:
        name = spec["name"]
        if not all(name in r["metrics"] for pair in pairs for r in pair):
            continue
        values = [[r[i]["metrics"][name]["value"] for r in pairs] for i in range(2)]
        out["metrics"][name] = {"unit": spec["unit"], **compare(*values, spec["better"])}
    return out


def template_medians(runs) -> dict:
    """Per side, each template's median over the runs of its per-run
    templates_ms; runs gives each side's list of those dicts."""
    return {side: {t: round(statistics.median(r[t] for r in side_runs if t in r), 4)
                   for t in sorted({t for r in side_runs for t in r})}
            for side, side_runs in zip(SIDES, runs)}


def run_once(checkout: Path, command, workload: str, seed: int, seconds: float):
    """(result, detail) of one benchmark run: its last two stdout lines."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit(f"{checkout}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1009)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--note", default="", help="what the change does, for a new --out file")
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = (args.parent, args.change)
    pairs, provenance, templates = [], {}, ([], [])
    for i in range(args.pairs):
        pair = [None, None]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            pair[side], detail = run_once(checkouts[side], bench["command"], args.workload,
                                          args.seed, args.seconds)
            provenance = detail.get("provenance") or provenance
            if detail.get("templates_ms"):
                templates[side].append(detail["templates_ms"])
            print(f"pair {i + 1}/{args.pairs} {SIDES[side]}: {json.dumps(pair[side])}",
                  file=sys.stderr, flush=True)
        pairs.append(pair)
    record = summarise(args.workload, args.seed, args.seconds, pairs, bench)
    if any(templates):
        record["templates_ms"] = template_medians(templates)
    doc = (json.loads(args.out.read_text()) if args.out.exists() else
           {"change": args.note,
            "command": " ".join(bench["command"]) + " --workload W --seconds S --seed N",
            "method": METHOD,
            "machine": {"cpus": provenance.get("nproc"), "python": provenance.get("python"),
                        "numpy": provenance.get("numpy")},
            "workloads": []})
    doc["workloads"] = [w for w in doc["workloads"]
                        if (w["workload"], w["seed"]) != (args.workload, args.seed)] + [record]
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
