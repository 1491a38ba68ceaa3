"""ppforge benchmark: two criterion-vs-oracle sweeps and a mixed-field CLI loop.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
./src.  Every run is one process.  It sets the workload's fields up (fresh
import of ppforge, make_field and tables()), then runs whole passes over the
workload's operations -- suite calls, or CLI requests -- until another pass
would overrun --seconds.  At least one pass always runs.  More set-up rounds
run between passes.  A short fixed pure-Python loop that does not touch
ppforge (the speed probe) runs between any two operations, and every time
is reported at the probe's reference speed (see HostSpeed).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; with --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones from a separate traced pass.  The line
before it carries provenance, per-operation detail and `error_rate`.  The exit
code is 0 only when every output was correct.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
WORKLOADS = ("sweep-cyclotomic", "sweep-additive", "requests-mixed-q")
DEFAULT_SEED = 1009  # ppforge.oracle.SAMPLE_SEED
# Set-up rounds per run: at least SETUP_ROUNDS, and more while they add up
# to less than SETUP_MIN_S, so that a cheap set-up is sampled more often.
SETUP_ROUNDS = 5
SETUP_MIN_S = 0.5
SETUP_MAX_ROUNDS = 25
# One speed_probe() at reference speed: about its median on the 2-vCPU Xeon
# VM (2.1 GHz, Python 3.11) the bounds were tuned on.
PROBE_REFERENCE_S = 0.004
# speed_probe() calls per probe: the sweeps' operations last up to 1.5 s,
# and a longer probe follows the host's speed over them more closely; the
# deck's requests last milliseconds, and a long probe would dwarf them.
PROBE_REPEATS = {"sweep-cyclotomic": 3, "sweep-additive": 3, "requests-mixed-q": 1}
# During a sweep's operation, one speed_probe() call runs this often (from
# a timer signal), so that a suite call of a second or more is scaled by the
# speed the host had while it ran, not only at its ends.  Requests get none:
# most last less than the interval, and the probes between them already
# come every few milliseconds.
PROBE_INTERVAL_S = {"sweep-cyclotomic": 0.1, "sweep-additive": 0.1}

END_TO_END_UNITS = {
    "cases_per_s": "1/s", "req_p50_ms": "ms", "req_p90_ms": "ms", "req_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}

# Per-layer metrics: (name, unit).  Read-out is in layer_metrics().
LAYER_UNITS = {
    "cyclotomic.check_calls": "count", "cyclotomic.check_s": "s",
    "cyclotomic.checks_per_case": "calls/case",
    "report.build_calls": "count", "report.build_s": "s",
    "additive.subgroup_data_calls": "count", "additive.subgroup_data_s": "s",
    "additive.check_calls": "count", "additive.check_s": "s",
    "additive.checks_per_case": "calls/case",
    "poly.format_calls": "count", "poly.format_s": "s",
    "oracle.driver_self_s": "s", "oracle.corpus_s": "s",
    "field.col_ops_calls": "count", "field.col_ops_s": "s",
    "field.make_field_s": "s", "field.tables_build_s": "s", "field.tables_bytes": "bytes",
    "field.eval_col_calls": "count", "field.eval_col_s": "s",
    "oracle.is_permutation_calls": "count", "oracle.is_permutation_s": "s",
    "poly.expand_s": "s",
    "cli.self_s": "s", "poly.parse_s": "s", "cli.emit_records": "count",
    "oracle.record_calls": "count",
    "trace.overhead_s": "s",
}

# Wrapped names each workload must reach; a traced run that records zero
# calls for one of them has lost a call path and fails.
EXPECTED_CALLS = {
    "sweep-cyclotomic": (
        "cyclotomic.theorem1_check", "cyclotomic.lemma_check", "cyclotomic.hermite_family",
        "report.ConditionReport.build", "oracle.run_equivalence_suite",
        "oracle.lemma_h_corpus", "oracle.theorem1_g0_corpus",
        "field.FieldTables.pow_col", "field.FieldTables.mul_cols",
        "field.FieldTables.add_cols", "field.FieldTables.scalar_mul",
        "field.FieldTables.eval_col", "field.make_field", "field.Field.tables",
        "poly.FqPoly.substituted_power", "poly.FqPoly.reduce_exponents"),
    "sweep-additive": (
        "additive.subgroup_data", "additive.proposition_check",
        "additive.necessary_conditions_check", "additive.commuting_criterion_check",
        "additive.trace_theorem_check", "report.ConditionReport.build", "poly.format_poly",
        "oracle.run_equivalence_suite", "oracle.additive_poly_corpus",
        "oracle.arbitrary_g_corpus", "oracle.prime_field_additive_corpus",
        "oracle.prime_coeff_poly_corpus", "oracle.trace_g_corpus",
        "field.FieldTables.pow_col", "field.FieldTables.mul_cols",
        "field.FieldTables.add_cols", "field.FieldTables.eval_col", "field.make_field",
        "field.Field.tables", "poly.AdditivePoly.expand", "poly.FqPoly.reduce_exponents"),
    "requests-mixed-q": (
        "cli.main", "cli._emit", "poly.parse_poly", "poly.parse_additive",
        "oracle.is_permutation", "cyclotomic.theorem1_check", "cyclotomic.lemma_check",
        "additive.proposition_check", "additive.subgroup_data",
        "report.ConditionReport.build", "poly.format_poly", "poly.FqPoly.substituted_power",
        "poly.FqPoly.shifted", "poly.FqPoly.compose", "poly.FqPoly.reduce_exponents",
        "poly.AdditivePoly.expand", "field.FieldTables.eval_col",
        "field.FieldTables.pow_col", "field.FieldTables.scalar_mul", "field.make_field",
        "field.Field.tables"),
}


def workload_fields(name: str) -> list:
    if name in workloads.SWEEPS:
        return sorted({spec for op in workloads.sweep_ops(name, DEFAULT_SEED)
                       for spec in op.fields})
    return list(workloads.REQUEST_FIELDS)


# ---------------------------------------------------------------------------
# host speed

def speed_probe() -> int:
    """Fixed pure-Python work, independent of ppforge: modular arithmetic
    and dict updates, the instruction mix of the package's per-case code.
    It allocates no container that outlives the call."""
    p, x, seen = 10007, 1, {}
    for i in range(20000):
        x = x * 5 % p
        seen[x] = seen.get(x, 0) + i
    return sum(v & 0xFF for v in seen.values())


class HostSpeed:
    """Times the speed probe, so that operation times can be scaled to the
    probe's reference speed.

    The shared host runs this process at a speed that swings by up to 2x
    within seconds, and the swings hit the probe and the package alike: over
    a few minutes, the time of a request deck varied 1.9x between 20 s
    windows while its ratio to the probe time around each request varied
    by 7%.  An operation is therefore timed between two probes, with more
    probes run from a timer signal while it runs (see timed), and reported
    as `seconds * PROBE_REFERENCE_S / mean(probe times)`, the probe times
    per speed_probe() call.  The probe does not call ppforge, so a change to
    the package moves the scaled time exactly as it moves the raw time.
    """

    def __init__(self, repeats=1, interval=None):
        self.repeats = repeats
        self.interval = interval
        self.samples = []   # seconds per speed_probe() call
        self.last = None

    def probe(self, repeats=None) -> float:
        repeats = repeats or self.repeats
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(repeats):
                speed_probe()
            dt = (time.perf_counter() - t0) / repeats
        finally:
            if gc_was_enabled:
                gc.enable()
        self.samples.append(dt)
        self.last = dt
        return dt


def timed(host, fn):
    """Run fn between two probes, the first of them the one that ended the
    previous operation, and with a probe every `host.interval` seconds while
    it runs; (result or exception, raw s, scaled s).  The raw time excludes
    the probes that ran inside fn."""
    before = host.last if host.last is not None else host.probe()
    inner = []
    if host.interval:
        previous = signal.signal(signal.SIGALRM, lambda *_: inner.append(host.probe(1)))
        signal.setitimer(signal.ITIMER_REAL, host.interval, host.interval)
    try:
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a crashing call is a failed call, not a crashed run
            out = exc
        dt = time.perf_counter() - t0 - sum(inner)
    finally:
        if host.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    speeds = [before, host.probe(), *inner]
    return out, dt, dt * PROBE_REFERENCE_S / statistics.fmean(speeds)


# ---------------------------------------------------------------------------
# set-up

def _package_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "ppforge" or k.startswith("ppforge.")}


class Package:
    """The freshly imported ppforge modules a run calls into."""

    def __init__(self):
        for name in _package_modules():
            del sys.modules[name]
        self.ppforge = importlib.import_module("ppforge")
        self.cli = importlib.import_module("ppforge.cli")
        self.oracle = importlib.import_module("ppforge.oracle")
        origin = Path(self.ppforge.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise RuntimeError(f"ppforge imported from {origin}, not from {SRC}")

    def build_fields(self, specs):
        for spec in specs:
            self.ppforge.make_field(*workloads.split_field(spec)).tables()


def set_up(specs, host) -> tuple:
    """Import ppforge and build the fields' tables from a clean slate;
    (package, raw s, scaled s)."""
    gc.collect()

    def fresh_package():
        pkg = Package()
        pkg.build_fields(specs)
        return pkg

    pkg, raw, scaled = timed(host, fresh_package)
    if isinstance(pkg, Exception):
        raise pkg
    return pkg, raw, scaled


def set_up_again(specs, host) -> tuple:
    """Time one more set-up round on a throwaway package, then put the
    working package's modules back, so that imports made later inside the
    package still resolve to the modules whose caches are warm.
    (raw s, scaled s)."""
    saved = _package_modules()
    try:
        return set_up(specs, host)[1:]
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)
        gc.collect()  # free the throwaway tables now, not during a pass


# ---------------------------------------------------------------------------
# passes

class Tally:
    """What the passes did: executions attempted and failed, comparisons
    completed, and the latencies of each operation.

    An operation is one request of the deck, or one suite call of a sweep;
    a run repeats it once per pass.  Its latency is the median of its
    repeats, each scaled to reference speed (see HostSpeed).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.comparisons = 0
        self.scaled = {}      # operation -> scaled latency of each repeat, s
        self.raw = {}         # operation -> raw latency of each repeat, s
        self.per_op = {}      # operation -> comparisons in one repeat
        self.failed_ops = set()
        self.problems = []
        self.cells = []
        self.labels = {}      # operation -> request template or suite

    def record(self, op, raw, scaled, attempted, failed, comparisons, problems, where):
        self.attempted += attempted
        self.failed += failed
        self.comparisons += comparisons
        if failed:
            self.failed_ops.add(op)
            if len(self.problems) < 20:
                self.problems += [f"{where}: {p}" for p in problems]
        self.per_op[op] = comparisons
        self.scaled.setdefault(op, []).append(scaled)
        self.raw.setdefault(op, []).append(raw)

    def latencies(self, which="scaled") -> dict:
        """operation -> median latency of its repeats, s."""
        return {op: statistics.median(v) for op, v in getattr(self, which).items()}


def suite_call(pkg, op, seed):
    """Run one sweep operation; the theorem1 g0 corpus is drawn inside the
    timed call, as the suite itself would draw it."""
    options = {}
    if op.g0_positions is not None:
        fld = pkg.ppforge.make_field(*workloads.split_field(op.fields[0]))
        corpus = pkg.oracle.theorem1_g0_corpus(fld, seed)
        options["g0s"] = [corpus[i] for i in op.g0_positions]
    return pkg.ppforge.run_equivalence_suite(op.suite, fields=list(op.fields), seed=seed,
                                             **options)


def sweep_pass(pkg, ops, seed, tally, host):
    for op in ops:
        rep, raw, scaled = timed(host, lambda: suite_call(pkg, op, seed))
        tally.labels[op.label] = op.suite
        if isinstance(rep, Exception):
            cases = workloads.expected_cases(op) or 1
            tally.record(op.label, raw, scaled, cases, cases, 0, [f"raised {rep!r}"],
                         op.label)
            continue
        problems = workloads.cell_problems(op, rep)
        tally.cells.append({"op": op.label, "cases": rep.cases_run, "s": raw,
                            "ok": not problems})
        # disagreements are the failed cases; a wrong count fails the call
        bad = len(rep.disagreements)
        failed = 0 if not problems else (
            bad if bad and len(problems) == 1 else max(rep.cases_run, 1))
        tally.record(op.label, raw, scaled, rep.cases_run, failed,
                     0 if problems else rep.cases_run, problems, op.label)


def request_deck_pass(pkg, deck, tally, host):
    for i, req in enumerate(deck):
        # the CLI must answer every request itself; an exception fails it
        answer, raw, scaled = timed(host, lambda: workloads.call_cli(pkg.cli.main, req.argv))
        code, out, err = ((-1, "", repr(answer)) if isinstance(answer, Exception)
                          else answer)
        problems, comparisons = workloads.request_problems(req, code, out, err)
        tally.labels[i] = req.template
        tally.record(i, raw, scaled, 1, 1 if problems else 0, comparisons, problems,
                     " ".join(req.argv))


def run_passes(one_pass, seconds, between) -> int:
    """Run whole passes until another would overrun `seconds` of pass time;
    `between` runs after each pass, off the clock.  Returns the number of
    passes."""
    busy = 0.0
    passes = 0
    while True:
        t0 = time.perf_counter()
        one_pass()
        last = time.perf_counter() - t0
        busy += last
        passes += 1
        between()
        if busy + last > seconds:
            return passes


def make_pass(pkg, name, seed, tally, host):
    if name in workloads.SWEEPS:
        ops = workloads.sweep_ops(name, seed)
        return lambda: sweep_pass(pkg, ops, seed, tally, host)
    deck = workloads.request_deck(seed)
    return lambda: request_deck_pass(pkg, deck, tally, host)


# ---------------------------------------------------------------------------
# metrics

def percentile(values, pct):
    """Nearest-rank percentile of a list that is not empty."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(pct / 100 * len(ranked)) - 1)]


def end_to_end(tally, setup_times, pooled, which="scaled") -> dict:
    """Metric values from the scaled or the raw times.  Rates use each
    operation's median latency.  Percentiles are over those medians, or,
    when `pooled`, over every repeat of every operation.  A failed operation
    ranks slower than every success and adds no completed work, so a run
    with failures never reads fast."""
    median_lat = tally.latencies(which)
    samples = getattr(tally, which) if pooled else {k: [v] for k, v in median_lat.items()}
    slowest = max(max(v) for v in samples.values())
    lat = [slowest if op in tally.failed_ops else s
           for op, v in samples.items() for s in v]
    busy = sum(median_lat.values())
    ok = [op for op in median_lat if op not in tally.failed_ops]
    return {
        "cases_per_s": sum(tally.per_op[op] for op in ok) / busy,
        "req_p50_ms": 1000 * percentile(lat, 50),
        "req_p90_ms": 1000 * percentile(lat, 90),
        "req_per_s": len(ok) / busy,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(tr: Tracer, comparisons: int, overhead_s: float) -> dict:
    per_case = max(comparisons, 1)
    values = {
        "cyclotomic.check_calls": tr.group_calls("cyclotomic.check"),
        "cyclotomic.check_s": tr.group_seconds("cyclotomic.check"),
        "cyclotomic.checks_per_case": tr.group_calls("cyclotomic.check") / per_case,
        "report.build_calls": tr.group_calls("report.build"),
        "report.build_s": tr.group_seconds("report.build"),
        "additive.subgroup_data_calls": tr.group_calls("additive.subgroup_data"),
        "additive.subgroup_data_s": tr.group_seconds("additive.subgroup_data"),
        "additive.check_calls": tr.group_calls("additive.check"),
        "additive.check_s": tr.group_seconds("additive.check"),
        "additive.checks_per_case": tr.group_calls("additive.check") / per_case,
        "poly.format_calls": tr.group_calls("poly.format"),
        "poly.format_s": tr.group_seconds("poly.format"),
        "oracle.driver_self_s": tr.group_self_seconds("oracle.suite"),
        "oracle.corpus_s": tr.group_seconds("oracle.corpus"),
        "field.col_ops_calls": tr.group_calls("field.col_ops"),
        "field.col_ops_s": tr.group_seconds("field.col_ops"),
        "field.make_field_s": tr.group_seconds("field.make_field"),
        "field.tables_build_s": tr.group_seconds("field.tables"),
        "field.tables_bytes": tr.tables_bytes(),
        "field.eval_col_calls": tr.group_calls("field.eval_col"),
        "field.eval_col_s": tr.group_seconds("field.eval_col"),
        "oracle.is_permutation_calls": tr.group_calls("oracle.is_permutation"),
        "oracle.is_permutation_s": tr.group_seconds("oracle.is_permutation"),
        "poly.expand_s": tr.group_seconds("poly.expand"),
        "cli.self_s": tr.group_self_seconds("cli.main"),
        "poly.parse_s": tr.group_seconds("poly.parse"),
        "cli.emit_records": tr.calls["cli._emit"],
        "oracle.record_calls": tr.group_calls("oracle.record"),
        "trace.overhead_s": overhead_s,
    }
    return {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}


def template_medians(tally) -> dict:
    """Median scaled latency per request template or suite, in ms: where
    the tail comes from."""
    median_lat = tally.latencies()
    groups = {}
    for op, label in tally.labels.items():
        groups.setdefault(label, []).append(median_lat[op])
    return {label: 1000 * statistics.median(v) for label, v in sorted(groups.items())}


# ---------------------------------------------------------------------------

def git_revision():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_revision": git_revision()}


def run(name, seed, seconds, trace, patch=None) -> tuple:
    """One benchmark run; returns (detail, result), the last two lines printed.

    `patch`, when given, is called with the loaded package before any pass
    runs; the benchmark's self-check uses it to break the program.
    """
    specs = workload_fields(name)
    tally = Tally()
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "provenance": provenance()}
    if not trace:
        host = HostSpeed(PROBE_REPEATS[name], PROBE_INTERVAL_S.get(name))
        pkg, *first = set_up(specs, host)
        setup_rounds = [first]   # [raw s, scaled s] per round
        if patch:
            patch(pkg)

        def setup_done():
            return len(setup_rounds) >= SETUP_MAX_ROUNDS or (
                len(setup_rounds) >= SETUP_ROUNDS
                and sum(raw for raw, _ in setup_rounds) >= SETUP_MIN_S)

        def between():
            if not setup_done():
                setup_rounds.append(set_up_again(specs, host))

        passes = run_passes(make_pass(pkg, name, seed, tally, host), seconds, between)
        while not setup_done():
            between()
        # The deck is a sample of traffic whose request costs vary with the
        # seed, and its percentiles pool every repeat; a sweep is a few
        # suite calls of very different cost, and pooling would put p50 on
        # the boundary between two of them.
        pooled = name not in workloads.SWEEPS
        values = end_to_end(tally, [scaled for _, scaled in setup_rounds], pooled)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        detail.update(passes=passes, setup_s=setup_rounds,
                      raw_metrics=end_to_end(tally, [raw for raw, _ in setup_rounds], pooled,
                                             "raw"),
                      probe_s={"median": statistics.median(host.samples),
                               "min": min(host.samples), "max": max(host.samples),
                               "count": len(host.samples)})
    else:
        # Traced set-up, then a warm-up pass, the traced pass and the same
        # pass again untraced, so the two timed passes see the same warm
        # caches and heap.  Span times are raw, and no probe runs inside an
        # operation, where it would land in the spans.
        host = HostSpeed(PROBE_REPEATS[name])
        pkg = Package()
        if patch:
            patch(pkg)
        tr = Tracer()
        tr.install()
        try:
            pkg.build_fields(specs)
        finally:
            tr.uninstall()
        make_pass(pkg, name, seed, Tally(), host)()
        tr.install()
        t0 = time.perf_counter()
        try:
            make_pass(pkg, name, seed, tally, host)()
        finally:
            traced_s = time.perf_counter() - t0
            tr.uninstall()
        t0 = time.perf_counter()
        make_pass(pkg, name, seed, Tally(), host)()
        plain_s = time.perf_counter() - t0
        metrics = layer_metrics(tr, tally.comparisons, traced_s - plain_s)
        unreached = [k for k in EXPECTED_CALLS[name] if not tr.calls.get(k)]
        if unreached:
            tally.record("trace", 0.0, 0.0, 1, 1, 0,
                         [f"wrapped names with zero calls: {unreached}"], "trace")
        detail.update(untraced_pass_s=plain_s, traced_pass_s=traced_s,
                      calls=tr.calls, spans=tr.span_table())
    detail.update(attempted=tally.attempted, failed=tally.failed,
                  error_rate=tally.failed / max(tally.attempted, 1),
                  comparisons=tally.comparisons, operations=len(tally.scaled),
                  failed_operations=len(tally.failed_ops), cells=tally.cells,
                  templates_ms=template_medians(tally),
                  problems=tally.problems)
    result = {"correct": tally.failed == 0 and tally.attempted > 0,
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ppforge" / "__init__.py").is_file():
        print(f"error: no ppforge sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
