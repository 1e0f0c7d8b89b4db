"""Quick self-check of the benchmark harness at tiny sizes.

    python3 perfbench/selfcheck.py

Runs an order-4 audit, order-4 raw and canonical enumerations and the
check-examples commands on two small examples through the same code as
run.py, then confirms that:

- every metric BENCHMARK.json names is emitted, with its unit, and
  nothing else is, and baseline.json says what each per-layer metric
  should move;
- every workload's pass reports each item to the host-speed pacer once;
- the tracer agrees with cProfile, span self times are never negative,
  and they sum to the pass span;
- the ratio metrics equal the ratios of the counts they are built from;
- a wrong pinned output is reported as failed items, not passed;
- run.py exits nonzero, printing no result, where there are no sources.

Exits 0 when all hold, 1 otherwise. Takes well under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run
import workloads
from tracer import Tracer

AUDIT4_TOTAL = 194
AUDIT4_DIGEST = "1480c74c1adcf7c056961d9aa76d136ac01b1962e3e09ca3975bdf86d3df367d"
RAW4_DIGEST = "28f3955757de803fa9f045560b7ef93843d2fc6dfe059f119eabfb28a1f97423"
ISO4_DIGEST = "1c7b6cc611f3182aef11bb5f3e2938e74ae9d73757710c10bec54d7f288ee5cc"
SMALL_EXAMPLES = ("ex3.5", "ex4.5")

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def tiny(zdg, on_item=None):
    return {
        "audit-order4": workloads.audit_pass(zdg, 4, AUDIT4_TOTAL, AUDIT4_DIGEST),
        "enum-raw4": workloads.enum_pass(zdg, 4, False, 20, RAW4_DIGEST),
        "enum-iso4": workloads.enum_pass(zdg, 4, True, 20, ISO4_DIGEST),
        "check-small": workloads.cli_pass(
            zdg, workloads.check_commands(SMALL_EXAMPLES), workloads.CHECK_DIGESTS,
            on_item),
    }


def check_contract(bench: dict) -> tuple[dict, dict]:
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect(layer == run.per_layer_units(), "BENCHMARK.json per_layer differs from run.py")
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    expect(whys == workloads.WHY, "BENCHMARK.json workloads differ from workloads.WHY")
    baseline = json.loads((run.HERE / "baseline.json").read_text())
    covered = sorted(m for group in baseline["layer_moves"] for m in group["metrics"])
    expect(covered == sorted(layer),
           "baseline.json layer_moves must name every per-layer metric exactly once")
    return e2e, layer


def check_end_to_end(zdg, e2e: dict) -> None:
    setup_s = run.measure_setup("audit-raw5")
    for name, work in tiny(zdg).items():
        results = run.run_passes(work, 0)
        values, _ = run.end_to_end(results, setup_s)
        expect(set(values) == set(e2e), "%s: end-to-end metrics %s" % (name, sorted(values)))
        for key, v in values.items():
            expect(math.isfinite(v) and v > 0, "%s: %s = %r" % (name, key, v))
        expect(all(r.failed == 0 and not r.errors for r in results),
               "%s: pinned output check failed: %s" % (name, [r.errors for r in results]))
        pacer = run.Pacer()
        res = work.run(pacer)
        expect(len(pacer.finish()) == len(res.latencies_ms) > 0,
               "%s: the pass does not pace once per item" % name)


def nested_same_function(tracer: Tracer) -> int:
    """Spans with an ancestor of the same function (inclusive time would double)."""
    fids, parents = tracer.spans[0], tracer.spans[1]
    count = 0
    for i in range(len(fids)):
        p = parents[i]
        while p >= 0:
            if fids[p] == fids[i]:
                count += 1
                break
            p = parents[p]
    return count


def check_per_layer(zdg, layer: dict) -> None:
    tracer = Tracer(zdg)

    def set_item(i):
        tracer.item = i

    for name, work in tiny(zdg, set_item).items():
        values, _, results, errors, last = run.per_layer(tracer, work, 0)
        expect(not errors, "%s: %s" % (name, errors))
        expect(all(r.failed == 0 for r in results), "%s: failed items" % name)
        expect(set(values) == set(layer), "%s: per-layer metrics %s" % (name, sorted(values)))
        expect(last.min_span_self_ns >= 0, "%s: a span's children outlast it" % name)
        total_self = sum(last.self_s)  # the pass span's own self time included
        expect(abs(total_self - last.pass_s) <= 1e-6,
               "%s: self times sum to %.9f, pass span %.9f" % (name, total_self, last.pass_s))
        expect(sum(last.self_s[:-1]) <= last.pass_s,
               "%s: function self times exceed the pass span" % name)
        expect(nested_same_function(tracer) == 0, "%s: a traced function nests in itself" % name)
        run_all = values["theorems.run_all.calls"]
        for fn in ("graph.gamma", "graph.metrics", "semigroup.Semigroup.product"):
            want = values[fn + ".calls"] / run_all if run_all else 0.0
            expect(values[fn + ".calls_per_run_all"] == want,
                   "%s: %s.calls_per_run_all inconsistent" % (name, fn))
        canon = values["enumeration.canonical_form.calls"]
        emitted = last.yields.get(last.fid("enumeration.enumerate_semigroups"), 0)
        expect(values["enumeration.canonical_form.accept_ratio"]
               == (emitted / canon if canon else 0.0), "%s: accept_ratio inconsistent" % name)
        if name == "audit-order4":
            expect(run_all == AUDIT4_TOTAL, "audit-order4: run_all calls %d" % run_all)
            expect(max(tracer.spans[4]) == AUDIT4_TOTAL, "audit-order4: item ids")
        if name == "enum-iso4":
            expect(emitted == 20 and 0 < values["enumeration.canonical_form.accept_ratio"] <= 1,
                   "enum-iso4: accept_ratio %r" % values["enumeration.canonical_form.accept_ratio"])
        if name == "check-small":
            expect(values["cli.main.calls"] == 3 * len(SMALL_EXAMPLES), "check-small: cli.main calls")
            expect(0 < values["graph.minimal_edge_cutsets.yield"] <= 1,
                   "check-small: cutset yield %r" % values["graph.minimal_edge_cutsets.yield"])


def check_failures_are_loud(zdg) -> None:
    bad = workloads.audit_pass(zdg, 4, AUDIT4_TOTAL, "0" * 64)
    res = bad.run()
    bad.check(res)
    expect(res.failed == AUDIT4_TOTAL and res.errors, "a wrong audit digest passed")
    commands = workloads.check_commands(SMALL_EXAMPLES[:1])
    wrong = {" ".join(argv): "0" * 64 for argv in commands}
    res = workloads.cli_pass(zdg, commands, wrong).run()
    expect(res.failed == len(commands), "a wrong stdout digest passed")
    res = workloads.enum_pass(zdg, 4, False, 20, ISO4_DIGEST).run()
    expect(res.failed == 20, "a wrong table digest passed")


def check_bare_directory() -> None:
    bare = run.HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for f in run.HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "audit-raw5",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        expect(out.returncode != 0 and '"correct"' not in out.stdout,
               "run.py without sources: exit %d, stdout %r" % (out.returncode, out.stdout))
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    zdg = run.load_zdg()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e, layer = check_contract(bench)
    check_end_to_end(zdg, e2e)
    check_per_layer(zdg, layer)
    check_failures_are_loud(zdg)
    check_bare_directory()
    for p in problems:
        print("selfcheck: FAIL %s" % p)
    print("selfcheck: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
