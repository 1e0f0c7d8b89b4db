"""Run one workload of the zdg benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; zdg is imported from ./src. A
run measures set-up time, then repeats whole passes of the workload (at
least two, then more while another fits in S seconds), checks every
pass's output against the values pinned in workloads.py, and prints one
line per metric followed by a JSON object as the last line of stdout.
Every item time and set-up time is scaled by the host speed measured
next to it (see pace.py); the unscaled throughput is printed too.

With --trace 0 the metrics are the end-to-end ones, measured with no
tracing. With --trace 1 the run makes one pass traced and profiled by
cProfile, whose call counts must agree, then untraced and traced passes
in turn; it reports per-layer calls and self time and writes the spans
of the last traced pass to perfbench/out/.

Inputs are exhaustive or fixed builtin tables, so the seed is recorded
but changes nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from pace import Pacer  # noqa: E402
from tracer import Tracer, traced_names  # noqa: E402

MIN_PASSES = 2
SETUP_REPEATS = 15
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10

END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

RATIOS = (
    "enumeration.canonical_form.accept_ratio",
    "graph.gamma.calls_per_run_all",
    "graph.metrics.calls_per_run_all",
    "semigroup.Semigroup.product.calls_per_run_all",
    "graph.minimal_edge_cutsets.yield",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in traced_names():
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for name in RATIOS:
        units[name] = "ratio"
    units["trace_overhead_ratio"] = "ratio"
    return units


# Prints the set-up time scaled by the host speed calibrated around it.
SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import pace, workloads
before = pace.calibrate(0.05)
t0 = time.perf_counter()
import zdg
workloads.build(sys.argv[3], zdg)
took = time.perf_counter() - t0
after = pace.calibrate(0.05)
print(repr(took * pace.CALIBRATION_REF_S / ((before + after) / 2)))
"""


def load_zdg():
    """Import zdg from this checkout's src directory, or exit with an error."""
    if not (SRC / "zdg" / "__init__.py").is_file():
        sys.exit("perfbench: no zdg sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import zdg

    if Path(zdg.__file__).resolve().parent != SRC / "zdg":
        sys.exit("perfbench: imported zdg from %s, not %s" % (zdg.__file__, SRC))
    return zdg


def measure_setup(name: str) -> float:
    """Median time to import zdg and build the inputs, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(HERE), str(SRC), name],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_passes(work, seconds: float, tracer=None, min_steps=MIN_PASSES) -> list:
    """Whole checked passes: at least `min_steps`, then more while one fits
    in `seconds`.

    Without a tracer, a Pacer calibrates host speed between items, each
    item time is scaled by it, and raw_s keeps the pass time as measured.
    With a tracer each step is an untraced pass followed by a traced one,
    so that drift in machine speed falls on both alike, and the result
    holds (untraced PassResult, traced PassResult, PassStats) triples.
    """
    out = []
    start = time.perf_counter()
    pacer = Pacer() if tracer is None else None
    while True:
        step_start = time.perf_counter()
        gc.collect()
        res = work.run(pacer)
        work.check(res)
        res.raw_s = res.elapsed_s
        if tracer is None:
            factors = pacer.finish()
            if len(factors) == len(res.latencies_ms):  # else it crashed: keep it raw
                res.latencies_ms = [x * f for x, f in zip(res.latencies_ms, factors)]
                res.elapsed_s = sum(res.latencies_ms) / 1e3
            out.append(res)
        else:
            gc.collect()
            traced, stats, _ = tracer.run_pass(work.run)
            work.check(traced)
            out.append((res, traced, stats))
        now = time.perf_counter()
        if len(out) >= min_steps and now - start + (now - step_start) > seconds:
            return out


def tail(samples: list) -> tuple[float, str]:
    """Mean of the samples beyond the highest ladder percentile that has
    at least ten beyond it.

    Nearest-rank percentiles. The mean, not the percentile itself: one
    long sample can still vary by 15% between passes after scaling, and
    a percentile is one sample, where the mean of ten or more is steady.
    With too few samples for any percentile (the handful of whole audit
    calls of audit-raw5) it is the median: the maximum of a few calls is
    the noisiest figure this host gives.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        idx = math.ceil(p / 100 * n) - 1
        if n - 1 - idx >= TAIL_MIN_BEYOND:
            return statistics.fmean(xs[idx + 1:]), "mean of the %d beyond p%g (%.6g ms)" % (
                n - 1 - idx, p, xs[idx])
    return statistics.median(xs), "median"


def end_to_end(results: list, setup_s: float) -> tuple[dict, list]:
    """End-to-end metrics of untraced passes, whose times run_passes has
    scaled to the reference host speed; throughput is time-weighted."""
    lat = [x for r in results for x in r.latencies_ms]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    tail_ms, tail_label = tail(lat)
    values = {
        "items_per_s": (attempted - failed) / sum(r.elapsed_s for r in results),
        "item_p50_ms": statistics.median(lat),
        "item_tail_ms": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    notes = [
        "items per pass %d, pass seconds as measured %s" % (
            results[0].attempted, " ".join("%.3f" % r.raw_s for r in results)),
        "host slowdown per pass (as measured / scaled) %s; unscaled items_per_s %.6g" % (
            " ".join("%.3f" % (r.raw_s / r.elapsed_s) for r in results),
            (attempted - failed) / sum(r.raw_s for r in results)),
        "item_tail_ms is %s of %d samples" % (tail_label, len(lat)),
    ]
    return values, notes


def ratios(stats) -> dict[str, float]:
    """The RATIOS of one traced pass; 0 where the denominator is 0."""

    def calls(name):
        return stats.calls[stats.fid(name)]

    def div(a, b):
        return a / b if b else 0.0

    run_all = calls("theorems.run_all")
    cutsets = stats.fid("graph.minimal_edge_cutsets")
    bfs_under_cutsets = stats.edges.get(
        (cutsets, stats.fid("graph.components_without_edges")), 0)
    emitted = stats.yields.get(stats.fid("enumeration.enumerate_semigroups"), 0)
    return {
        "enumeration.canonical_form.accept_ratio": div(
            emitted, calls("enumeration.canonical_form")),
        "graph.gamma.calls_per_run_all": div(calls("graph.gamma"), run_all),
        "graph.metrics.calls_per_run_all": div(calls("graph.metrics"), run_all),
        "semigroup.Semigroup.product.calls_per_run_all": div(
            calls("semigroup.Semigroup.product"), run_all),
        "graph.minimal_edge_cutsets.yield": div(
            stats.results.get(cutsets, 0), bfs_under_cutsets),
    }


def per_layer(tracer: Tracer, work, seconds: float):
    """A cross-check pass under the tracer and cProfile, then untraced and
    traced passes in turn for `seconds`.

    Returns the per-layer values, notes, every PassResult, the errors
    found and the PassStats of the last traced pass.
    """
    errors = []
    gc.collect()
    checked, ref, prof = tracer.run_pass(work.run, profile=True)
    work.check(checked)
    for fid, fn in enumerate(tracer.names):
        if ref.span_counts[fid] != prof[fn]:
            errors.append("tracer saw %d calls of %s, cProfile %d"
                          % (ref.span_counts[fid], fn, prof[fn]))
    steps = run_passes(work, seconds, tracer=tracer, min_steps=1)
    if any(stats.calls != ref.calls for _, _, stats in steps):
        errors.append("call counts differ between traced passes")
    values = {}
    for fid, fn in enumerate(tracer.names):
        values[fn + ".calls"] = ref.calls[fid]
        values[fn + ".self_s"] = statistics.median(s.self_s[fid] for _, _, s in steps)
    values.update(ratios(ref))
    values["trace_overhead_ratio"] = (
        statistics.median(t.elapsed_s for _, t, _ in steps)
        / statistics.median(p.elapsed_s for p, _, _ in steps)
    )
    last = steps[-1][2]
    notes = [
        "pass seconds: profiled %.3f, untraced/traced %s" % (
            checked.elapsed_s,
            " ".join("%.3f/%.3f" % (p.elapsed_s, t.elapsed_s) for p, t, _ in steps)),
    ]
    share = sorted(range(len(tracer.names)), key=lambda f: -last.total_s[f])
    for f in [f for f in share if last.total_s[f] > 0][:5]:
        notes.append("%-44s %5.1f%% of the pass with children, %5.1f%% self"
                     % (tracer.names[f], 100 * last.total_s[f] / last.pass_s,
                        100 * last.self_s[f] / last.pass_s))
    results = [checked] + [r for p, t, _ in steps for r in (p, t)]
    return values, notes, results, errors, last


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    zdg = load_zdg()
    if args.trace:
        tracer = Tracer(zdg)

        def set_item(i):
            tracer.item = i

        work = workloads.build(args.workload, zdg, on_item=set_item)
        values, notes, results, errors, last = per_layer(tracer, work, args.seconds)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / ("%s-seed%d.spans.tsv.gz" % (args.workload, args.seed))
        tracer.write_spans(spans, last)
        notes.append("spans of the last traced pass: %s" % spans.relative_to(ROOT))
        units = per_layer_units()
    else:
        work = workloads.build(args.workload, zdg)
        setup_s = measure_setup(args.workload)
        results = run_passes(work, args.seconds)
        values, notes = end_to_end(results, setup_s)
        errors = []
        units = END_TO_END
    for r in results:
        errors.extend(r.errors)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)

    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    for note in notes:
        print("  " + note)
    for key, unit in units.items():
        print("  %-52s %14.6g %s" % (key, values[key], unit))
    for err in errors:
        print("perfbench: %s: %s" % (args.workload, err), file=sys.stderr)
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
