#!/usr/bin/env python3
"""The repository benchmark: one command that runs a named workload.

    python3 perfbench/run.py --workload paper_figures --seed 1 --seconds 10 --trace 0

Run it from the root of the repository.  It builds the program from source
(perfbench/CMakeLists.txt, into $CARGO_TARGET_DIR or .bench_build), runs
perfbench_driver for the workload, checks the outputs, prints a report and,
as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  README.md in this directory defines
every metric and workload.  The exit code is 0 only when every output check
passed.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

WORKLOADS = ("paper_figures", "mesh10k", "serve_life", "serve_burst")
BATCH = ("paper_figures", "mesh10k")
ROOT = Path(__file__).resolve().parent.parent
SOURCES = ("src/CMakeLists.txt", "examples/na_serve.cpp", "bench/bench_util.hpp")
DRIVER_TIMEOUT_S = 170

# (name, unit) of every metric the JSON line carries; BENCHMARK.json lists
# the same names with their direction and bound.
END_TO_END = [
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("wire_length", "length"),
    ("bends", "count"),
    ("setup_s", "s"),
]
# Printed in the report only: on a shared host a noisy minute moves the
# serve tail and throughput by more than any bound the median tolerates.
REPORTED = [
    ("tail_latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
]

PER_LAYER = [
    ("place.busy_s", "s"),
    ("place.partition_s", "s"),
    ("place.box_form_s", "s"),
    ("place.partition_place_s", "s"),
    ("route.busy_s", "s"),
    ("route.expansions", "count"),
    ("route.connections_failed", "count"),
    ("route.retried_connections", "count"),
    ("route.net_s", "s"),
    ("route.pass1_s", "s"),
    ("route.retry_s", "s"),
    ("route.shard_pass_s", "s"),
    ("route.shard_merge_s", "s"),
    ("route.stitch_s", "s"),
    ("route.stitch_share", "fraction"),
    ("route.stitch_base", "count"),
    ("route.shard_balance", "ratio"),
    ("validate.busy_s", "s"),
    ("diagram.unattributed_s", "s"),
    ("escher.payload_bytes", "bytes"),
    ("regen.flush_p50_ms", "ms"),
    ("regen.diff_s", "s"),
    ("regen.patch_place_s", "s"),
    ("regen.patch_route_s", "s"),
    ("regen.validate_s", "s"),
    ("regen.nets_rerouted", "count"),
    ("regen.expansions", "count"),
    ("regen.full_regens", "count"),
    ("regen.flushes", "count"),
    ("serve.edit_p50_us", "us"),
    ("serve.get_p50_ms", "ms"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.wire_ms", "ms"),
    ("serve.edits_per_job", "ratio"),
    ("serve.batch_jobs", "count"),
    ("serve.loop_tick_p99_us", "us"),
    ("pool.peak_queued", "count"),
    ("trace.overhead_pct", "%"),
]

# Span self times reported per pass (batch) or per round (serve).
SPAN_METRICS = {
    "place.partition_s": "place.partition",
    "place.box_form_s": "place.box_form",
    "place.partition_place_s": "place.partition_place",
    "route.net_s": "route.net",
    "route.pass1_s": "route.pass1",
    "route.retry_s": "route.retry",
    "route.shard_pass_s": "route.shard_pass",
    "route.shard_merge_s": "route.shard_merge",
    "route.stitch_s": "route.stitch",
    "regen.diff_s": "regen.diff",
    "regen.patch_place_s": "regen.patch_place",
    "regen.patch_route_s": "regen.patch_route",
    "regen.validate_s": "regen.validate",
}


# ----- the benchmark's own arithmetic ----------------------------------------

def percentile(samples, q):
    """Nearest-rank percentile: the smallest sample covering a q share."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(n):
    """The highest of p99, p90 and p50 with at least ten of n samples
    beyond it; the median when even p50 has fewer."""
    for q in (0.99, 0.90, 0.50):
        if n * (1 - q) >= 10 - 1e-9:
            return q
    return 0.50


def tail(samples):
    """(label, value) of the tail statistic for these samples."""
    q = tail_quantile(len(samples))
    if q == 0.50:  # the same median latency_ms reports
        return "p50", statistics.median(samples)
    return "p%d" % round(q * 100), percentile(samples, q)


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover.  Children are the spans of the same thread
    that start inside it one nesting level down; coverage is the union of
    their intervals clipped to the parent's.  `spans` holds
    (name, tid, start, duration) tuples; returns durations in order."""
    selfs = [0.0] * len(spans)
    children = [[] for _ in spans]
    by_tid = {}
    for i, (_, tid, start, dur) in enumerate(spans):
        by_tid.setdefault(tid, []).append(i)
    for idx in by_tid.values():
        idx.sort(key=lambda i: (spans[i][2], -spans[i][3]))
        stack = []
        for i in idx:
            start = spans[i][2]
            while stack and spans[stack[-1]][2] + spans[stack[-1]][3] <= start:
                stack.pop()
            if stack:
                children[stack[-1]].append(i)
            stack.append(i)
    for i, (_, _, start, dur) in enumerate(spans):
        end = start + dur
        covered = 0.0
        reach = start
        for c in sorted(children[i], key=lambda c: spans[c][2]):
            lo = max(spans[c][2], reach)
            hi = min(spans[c][2] + spans[c][3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        selfs[i] = dur - covered
    return selfs


def bucket_upper(lower):
    """One past the largest value of the obs::Histogram bucket starting at
    `lower` (16 unit buckets, then 16 linear sub-buckets per octave)."""
    if lower < 16:
        return lower + 1
    return lower + (1 << (lower.bit_length() - 1 - 4))


def hist_delta(before, after):
    """The population recorded between two snapshots of one histogram."""
    old = {lo: c for lo, c in before.get("buckets", [])} if before else {}
    buckets = []
    for lo, c in after.get("buckets", []):
        if c - old.get(lo, 0) > 0:
            buckets.append((lo, c - old.get(lo, 0)))
    return {"count": sum(c for _, c in buckets), "buckets": buckets,
            "max": after.get("max", 0),
            "sum": after.get("sum", 0) - (before or {}).get("sum", 0)}


def hist_quantile(h, q):
    """obs::HistogramData::quantile over a delta population."""
    if h["count"] == 0:
        return 0
    rank = max(1, math.ceil(q * h["count"]))
    cum = 0
    for lo, c in h["buckets"]:
        cum += c
        if cum >= rank:
            return min(bucket_upper(lo) - 1, h["max"])
    return h["max"]


def self_check():
    """Asserts the arithmetic above on inputs whose answers are known."""
    spans = [("p", 1, 0.0, 100.0), ("a", 1, 10.0, 20.0), ("g", 1, 12.0, 3.0),
             ("b", 1, 50.0, 10.0), ("other", 2, 10.0, 80.0), ("c", 1, 95.0, 5.0)]
    s = self_times(spans)
    assert s == [100 - 20 - 10 - 5, 20 - 3, 3, 10, 80, 5], s
    # A child running past its parent's end only covers the parent's part.
    assert self_times([("p", 1, 0.0, 10.0), ("c", 1, 8.0, 5.0)]) == [8.0, 5.0]
    samples = list(range(1, 1001))
    assert tail_quantile(1000) == 0.99 and tail_quantile(999) == 0.90
    assert tail_quantile(100) == 0.90 and tail_quantile(99) == 0.50
    assert tail_quantile(20) == 0.50 and tail_quantile(1) == 0.50
    assert tail(samples) == ("p99", 990)
    assert tail(samples[:150]) == ("p90", 135)
    assert tail([3, 1, 2]) == ("p50", 2) and tail([4, 1]) == ("p50", 2.5)
    assert percentile([5, 1, 3], 0.5) == 3
    assert bucket_upper(15) == 16 and bucket_upper(16) == 17
    assert bucket_upper(32) == 34 and bucket_upper(1024) == 1088
    h = hist_delta({"buckets": [[1, 2], [16, 1]]},
                   {"buckets": [[1, 2], [16, 4], [32, 6]], "max": 33})
    assert h["count"] == 9 and hist_quantile(h, 0.5) == 33
    assert hist_quantile(h, 0.3) == 16


def check_rounds(rounds):
    """A round's round trip runs from its first request written to its get
    reply read: never shorter than from its last request written."""
    for first, last, reply, _, _ in rounds:
        assert first <= last <= reply, (first, last, reply)
    return [(reply - first) / 1e6 for first, _, reply, _, _ in rounds]


# ----- build and run ---------------------------------------------------------

def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures once, then builds the driver and na_serve (a no-op when
    nothing changed).  The log stays in the build directory."""
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(out), "-j4", "--target",
                      "perfbench_driver", "na_serve"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                tail_lines = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail_lines))


def run_driver(out, args):
    work = out / "run"
    work.mkdir(parents=True, exist_ok=True)
    raw = work / ("raw-%s.json" % args.workload)
    if raw.exists():
        raw.unlink()
    cmd = [str(out / "perfbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--daemon", str(out / "na_serve"),
           "--dir", str(work), "--out", str(raw)]
    try:
        proc = subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    if proc.returncode != 0 or not raw.exists():
        fail("driver failed with exit code %d" % proc.returncode)
    with open(raw) as f:
        return json.load(f)


# ----- metrics ---------------------------------------------------------------

def load_metrics(path):
    with open(path) as f:
        reply = json.load(f)
    return reply["metrics"]


def load_trace(path):
    with open(path) as f:
        return json.load(f)["traceEvents"]


def rollup(events, units, start_after=None):
    """Count, total, self time, p50 and p99 per span name, over Chrome
    trace events.  With `start_after` (a span name) only spans that start
    after the last such span ended count, which leaves the set-up out.
    Totals and self times are seconds per unit of work: `units` maps the
    counted spans to the number of passes or rounds they cover."""
    spans = [(e["name"], e["tid"], float(e["ts"]), float(e.get("dur", 0)))
             for e in events if e.get("ph") == "X"]
    if start_after is not None:
        ends = [s + d for n, _, s, d in spans if n == start_after]
        window_start = max(ends) if ends else 0.0
        spans = [sp for sp in spans if sp[2] >= window_start]
    selfs = self_times(spans)
    per_name = {}
    for (name, _, _, dur), own in zip(spans, selfs):
        r = per_name.setdefault(name, {"durs": [], "self": 0.0})
        r["durs"].append(dur)
        r["self"] += own
    n_units = units(spans)
    table = {}
    for name, r in per_name.items():
        table[name] = {
            "count": len(r["durs"]),
            "total_s": sum(r["durs"]) / 1e6 / n_units,
            "self_s": r["self"] / 1e6 / n_units,
            "p50_ms": percentile(r["durs"], 0.5) / 1e3,
            "p99_ms": percentile(r["durs"], 0.99) / 1e3,
        }
    return table, n_units


def flight_window(events, capacity):
    """The events every thread still retained: a flight-recorder ring that
    holds `capacity` events may have dropped older ones, so the window
    starts at the latest oldest event among the full rings."""
    per_tid = {}
    for e in events:
        per_tid.setdefault(e["tid"], []).append(float(e["ts"]))
    starts = [min(ts) for ts in per_tid.values() if len(ts) >= capacity]
    if not starts:
        return events
    start = max(starts)
    return [e for e in events if float(e["ts"]) >= start]


def batch_metrics(raw, m, layer):
    passes = raw["passes"]
    totals = [p["total_ns"] / 1e6 for p in passes]
    label, value = tail(totals)
    n_diagrams = raw["operations"]
    m["latency_ms"] = statistics.median(totals)
    m["tail_latency_ms"] = value
    m["throughput_per_s"] = n_diagrams / (sum(totals) / 1e3)
    m["peak_rss_mb"] = raw["peak_rss_bytes"] / 2**20
    q = raw["quality"]
    m["wire_length"] = q["wire_length"]
    m["bends"] = q["bends"]
    info = {"samples": len(totals), "tail": label, "crossings": q["crossings"],
            "unrouted_nets": q["unrouted"]}

    def med(key):
        return statistics.median(p[key] for p in passes) / 1e9

    layer["place.busy_s"] = med("place_ns")
    layer["route.busy_s"] = med("route_ns")
    layer["validate.busy_s"] = med("validate_ns")
    layer["diagram.unattributed_s"] = statistics.median(
        (p["total_ns"] - p["place_ns"] - p["route_ns"] - p["validate_ns"]) / 1e9
        for p in passes)
    route = raw["route"]
    layer["route.expansions"] = route["expansions"]
    layer["route.connections_failed"] = route["connections_failed"]
    layer["route.retried_connections"] = route["retried_connections"]
    shard = raw["shard"]
    base = shard["nets_intra"] + shard["nets_stitch"]
    layer["route.stitch_base"] = base
    layer["route.stitch_share"] = shard["nets_stitch"] / base if base else 0.0
    nets = shard["shard_nets"]
    layer["route.shard_balance"] = (
        max(nets) / statistics.mean(nets) if nets and sum(nets) else 0.0)
    if "traced_passes" in raw:
        traced = statistics.median(p["total_ns"] for p in raw["traced_passes"])
        untraced = statistics.median(p["total_ns"] for p in passes)
        layer["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        n_traced = len(raw["traced_passes"])
        info["rollup"], info["rollup_units"] = rollup(
            load_trace(raw["trace_file"]), lambda spans: n_traced)
    return info


def serve_metrics(raw, m, layer):
    phase = raw["measured"]
    rts = check_rounds(phase["rounds"])
    label, value = tail(rts)
    wall_s = phase["wall_ns"] / 1e9
    before = load_metrics(phase["metrics_before"])
    after = load_metrics(phase["metrics_after"])
    m["latency_ms"] = statistics.median(rts)
    m["tail_latency_ms"] = value
    m["throughput_per_s"] = phase["requests"] / wall_s
    m["peak_rss_mb"] = after["metrics"]["serve.peak_rss_bytes"] / 2**20
    q = phase["quality"]
    m["wire_length"] = q["wire_length"]
    m["bends"] = q["bends"]
    info = {"samples": len(rts), "tail": label, "crossings": q["crossings"]}
    if "nets_joined" in phase:
        joined = phase["nets_joined"]
        info["probe_nets"] = "%d joins over %d distinct nets, first %s" % (
            len(joined), len(set(joined)), ",".join(joined[:4]))

    def delta(key):
        return after["metrics"].get(key, 0) - before["metrics"].get(key, 0)

    def hist(key):
        return hist_delta(before["histograms"].get(key),
                          after["histograms"].get(key, {}))

    flushes = delta("serve.batch.regens")
    jobs = delta("serve.batch.jobs")
    layer["regen.flushes"] = flushes
    layer["regen.full_regens"] = delta("regen.full_regens")
    layer["regen.nets_rerouted"] = delta("regen.nets_rerouted") / flushes if flushes else 0.0
    layer["regen.expansions"] = delta("regen.route_expansions") / flushes if flushes else 0.0
    layer["regen.flush_p50_ms"] = hist_quantile(hist("serve.lat.flush"), 0.5) / 1e3
    edits, gets = hist("serve.lat.edit"), hist("serve.lat.get")
    layer["serve.edit_p50_us"] = hist_quantile(edits, 0.5)
    layer["serve.get_p50_ms"] = hist_quantile(gets, 0.5) / 1e3
    wait = hist("serve.pool.queue_wait")
    layer["serve.queue_wait_p50_us"] = hist_quantile(wait, 0.5)
    layer["serve.queue_wait_p99_us"] = hist_quantile(wait, 0.99)
    # Mean round trip minus the server-side time on the round's critical
    # path (histogram sums are exact, in us).  A serve_life round waits for
    # its edit reply before it sends the get; a serve_burst get queues
    # behind the round's pipelined edits, so its latency covers theirs.
    server_us = gets["sum"]
    if raw["workload"] == "serve_life":
        server_us += edits["sum"]
    layer["serve.wire_ms"] = statistics.mean(rts) - server_us / len(rts) / 1e3
    layer["serve.batch_jobs"] = jobs
    layer["serve.edits_per_job"] = delta("serve.batch.edits") / jobs if jobs else 0.0
    layer["serve.loop_tick_p99_us"] = hist_quantile(hist("serve.lat.loop_tick"), 0.99)
    layer["pool.peak_queued"] = after["metrics"]["serve.pool.peak_queued"]
    reply_bytes = [r[4] for r in phase["rounds"]]
    layer["escher.payload_bytes"] = statistics.mean(reply_bytes)
    info["metrics_op"] = {
        "serve.batch.regens": flushes, "serve.batch.jobs": jobs,
        "serve.batch.edits": delta("serve.batch.edits"),
        "regen.full_regens": layer["regen.full_regens"],
        "regen.updates": delta("regen.updates"),
        "serve.requests": delta("serve.requests"),
        "serve.errors": delta("serve.errors"),
    }
    if "traced" in raw:
        traced = raw["traced"]
        traced_p50 = statistics.median(check_rounds(traced["rounds"]))
        layer["trace.overhead_pct"] = 100.0 * (traced_p50 - m["latency_ms"]) / m["latency_ms"]
        events = flight_window(load_trace(traced["flight_file"]),
                               raw["flight_events_per_thread"])

        def rounds_in(spans):
            return max(1, sum(1 for sp in spans if sp[0] == "serve.flush"))

        info["rollup"], info["rollup_units"] = rollup(
            events, rounds_in, start_after="serve.open")
    return info


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [s for s in SOURCES if not (ROOT / s).is_file()]
    if missing:
        fail("repository sources missing: " + ", ".join(missing), code=2)
    self_check()

    out = build_dir()
    t0 = time.monotonic()
    build(out)
    build_s = time.monotonic() - t0
    raw = run_driver(out, args)

    m, layer = {}, {name: 0.0 for name, _ in PER_LAYER}
    if args.workload in BATCH:
        info = batch_metrics(raw, m, layer)
        operations = raw["operations"]
        failed_ops = 0
    else:
        info = serve_metrics(raw, m, layer)
        operations = raw["measured"]["requests"] + raw.get("traced", {}).get("requests", 0)
        failed_ops = raw["measured"]["failed_requests"] + raw.get(
            "traced", {}).get("failed_requests", 0)
    m["setup_s"] = statistics.median(raw["setup_ns"]) / 1e9
    if "rollup" in info:
        for metric, span in SPAN_METRICS.items():
            layer[metric] = info["rollup"].get(span, {}).get("self_s", 0.0)

    checks = raw["checks"]
    attempted = operations + checks["attempted"]
    failed = failed_ops + checks["failed"]
    correct = failed == 0

    print("workload %s  seed %d  trace %d  (build/check %.1f s)" % (
        args.workload, args.seed, args.trace, build_s))
    print("seed detail: %s" % json.dumps(raw["seed_detail"]))
    if "probe_nets" in info:
        print("probe nets: %s" % info["probe_nets"])
    print("end to end (%d samples, tail = %s):" % (info["samples"], info["tail"]))
    for name, unit in END_TO_END + REPORTED:
        print("  %-28s %16.6f %s" % (name, m[name], unit))
    print("  %-28s %16d count" % ("crossings", info["crossings"]))
    if "unrouted_nets" in info:
        print("  %-28s %16d count" % ("unrouted_nets", info["unrouted_nets"]))
    print("  %-28s %16.6f fraction (%d of %d)" % (
        "error_rate", failed / attempted, failed, attempted))
    if args.trace:
        print("per layer:")
        for name, unit in PER_LAYER:
            print("  %-28s %16.6f %s" % (name, layer[name], unit))
        if args.workload in BATCH:
            attributed = layer["place.busy_s"] + layer["route.busy_s"] + layer["validate.busy_s"]
            print("  place+route+validate busy %.6f s of %.6f s per pass; "
                  "unattributed %.6f s" % (attributed, m["latency_ms"] / 1e3,
                                           m["latency_ms"] / 1e3 - attributed))
        if "metrics_op" in info:
            print("  metrics-op deltas: %s" % json.dumps(info["metrics_op"]))
    if "rollup" in info:
        per = "round" if args.workload not in BATCH else "pass"
        print("span rollup over %d %ses (seconds per %s, durations in ms):" % (
            info["rollup_units"], per, per))
        print("  %-24s %8s %12s %12s %10s %10s" % ("span", "count", "total_s",
                                                  "self_s", "p50_ms", "p99_ms"))
        for name, r in sorted(info["rollup"].items(), key=lambda kv: -kv[1]["self_s"]):
            print("  %-24s %8d %12.6f %12.6f %10.3f %10.3f" % (
                name, r["count"], r["total_s"], r["self_s"], r["p50_ms"], r["p99_ms"]))
    for message in checks["messages"]:
        print("check failed: %s" % message)

    chosen = PER_LAYER if args.trace else END_TO_END
    values = layer if args.trace else m
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in chosen},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
