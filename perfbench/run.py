#!/usr/bin/env python3
"""Host-cost benchmark of the soft-timers simulator.

    python3 perfbench/run.py --workload web-soft|web-irq|pacer-1m \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of the repository.  Builds perfbench/bench.exe from
source (dune, build directory .bench_build/dune), runs the workload in
a child process, checks the simulation's deterministic outputs, and
prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
runs the workload untraced and then traced (each in its own process)
and reports the per-layer metrics.  --smoke runs every workload at a
reduced size in both modes and checks the printed metric names and
units against BENCHMARK.json.  See perfbench/README.md for the
workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
RECORDED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
CHILD_TIMEOUT_S = 170
# Temporary files of the build and the child stay inside the checkout.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP_DIR)

# Timed-phase length, in segments per second of --seconds, calibrated
# on a 2-CPU x86-64 VM so one run measures for about --seconds on a
# quiet host.  The length is a fixed amount of simulated work, never a
# wall-clock deadline, so the deterministic outputs depend only on the
# seed and --seconds.  A web segment is 0.2 simulated seconds, a pacer
# segment one fleet tick (bench.ml).
WORKLOADS = {
    "web-soft": {"kind": "web", "segs_per_s": 100, "setups": 15},
    "web-irq": {"kind": "web", "segs_per_s": 77, "setups": 15},
    "pacer-1m": {"kind": "pacer", "flows": 1_000_000, "segs_per_s": 220, "setups": 3},
}
SMOKE = {"web_segments": 5, "pacer_flows": 10_000, "pacer_segments": 300}

# The traced run's step/tick spans must cover its timed segments: the
# wall time outside them may be at most this many span floors per span
# (one floor is what the clock reads and bookkeeping of one span cost),
# plus this share of the timed wall time (per-segment clock reads, and
# the host's stalls that happen to land between spans).
MAX_GAP_FLOORS = 3.0
MAX_GAP_SHARE = 0.01

# Host filter of the end-to-end timings (README.md, "Host noise"): a
# probe reading is quiet when it is at most QUIET_LIMIT times the run's
# 1st-percentile reading, and a tick counts when the QUIET_REACH probes
# beyond its own two, on each side, are quiet as well.
QUIET_LIMIT = 1.25
QUIET_REACH = 3


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("run from the repository root (dune-project and lib/ not found)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    os.makedirs(TMP_DIR, exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "--cache", "disabled", "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e, 1)
    if r.returncode != 0:
        die("build failed (dune exit %d)" % r.returncode, 1)


def child(workload, seed, size, traced, setups):
    w = WORKLOADS[workload]
    args = [EXE, "--workload", workload, "--seed", str(seed), "--setups", str(setups),
            "--segments", str(size["segments"])]
    if w["kind"] == "pacer":
        args += ["--flows", str(size["flows"])]
    if traced:
        args.append("--traced")
    try:
        r = subprocess.run(args, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=CHILD_TIMEOUT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("%s child failed: %s" % (workload, e), 1)
    if r.returncode != 0:
        die("%s child exited %d" % (workload, r.returncode), 1)
    return json.loads(r.stdout.strip().splitlines()[-1])


def size_for(workload, seconds):
    w = WORKLOADS[workload]
    size = {"segments": round(seconds * w["segs_per_s"])}
    if w["kind"] == "pacer":
        size["flows"] = w["flows"]
    return size


def size_key(workload, seed, size):
    return "%s|seed=%d|%s" % (workload, seed,
                              ",".join("%s=%d" % kv for kv in sorted(size.items())))


# ---------------------------------------------------------------------------
# Output check

def outputs(raw):
    return {k[4:]: v for k, v in raw.items() if k.startswith("out.")}


def invariant_errors(workload, raw):
    """Properties every correct run has, whatever its seed."""
    o, errs = outputs(raw), []
    if raw["ops"] < 1:
        errs.append("no ops completed")
    if WORKLOADS[workload]["kind"] == "web":
        if o["softtimer_fired"] > o["softtimer_checks"]:
            errs.append("more soft-timer fires than checks")
        if o["pacer_sends"] < 1 or o["completed"] < raw["ops"]:
            errs.append("web server made no progress")
        soft = workload == "web-soft"
        if soft and o["softtimer_fired"] < 1:
            errs.append("soft pacing fired no soft-timer events")
        if not soft and o["softtimer_checks"] != 0:
            errs.append("hardware pacing ran soft-timer checks")
    else:
        if o["sum_sent"] != o["sends"]:
            errs.append("per-flow sent counts sum to %d, not sends %d" % (o["sum_sent"], o["sends"]))
        if not o["delay_min_us"] >= 0:
            errs.append("a send fired before its deadline (min delay %r us)" % o["delay_min_us"])
        if raw["transmits"] != raw["ops"]:
            errs.append("transmits differ from sends")
    return errs


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def recorded_errors(key, outs):
    """Compare with the values perfbench/expected.json records for this
    workload, seed and size.  A key it lacks leaves the outputs checked
    by the invariants alone, and says so."""
    want = load_json(RECORDED).get(key)
    if want is None:
        print("perfbench: no recorded outputs for %s in perfbench/expected.json; "
              "only the invariants were checked" % key, file=sys.stderr)
        return []
    return ["%s: %s = %r, recorded %r" % (key, k, outs.get(k), v)
            for k, v in sorted(want.items()) if outs.get(k) != v]


# ---------------------------------------------------------------------------
# Metrics

def per_op(x, ops):
    return x / ops if ops else 0.0


def quantile(xs, q):
    """Linear interpolation between order statistics (the "inclusive"
    method of Python's statistics.quantiles)."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    i = int(pos)
    return xs[-1] if i >= len(xs) - 1 else xs[i] + (pos - i) * (xs[i + 1] - xs[i])


def ns_per_op(raw):
    """Host CPU time over the whole timed phase, per op."""
    return raw["cpu_ns"] / raw["ops"]


def quiet_limit(raw):
    return QUIET_LIMIT * quantile(raw["probe_ns"], 0.01)


def setup_s(raw):
    """Median CPU time of the set-ups whose two bracketing probe
    readings are quiet, or of every set-up if none is."""
    limit = quiet_limit(raw)
    probe = raw["setup_probe_ns"]
    times = raw["setup_ns"]
    quiet = [t for i, t in enumerate(times) if max(probe[2 * i], probe[2 * i + 1]) <= limit]
    return statistics.median(quiet or times) / 1e9


def quiet_ticks(raw):
    """The ticks of an untraced run that the host probe brackets as
    quiet: the probes read right before and right after the tick, and
    QUIET_REACH more on each side, are all within QUIET_LIMIT of the
    run's quietest probe readings.  The probe is a register-only loop, so the
    choice does not depend on what the ticks themselves cost."""
    probe = raw["probe_ns"]
    limit = quiet_limit(raw)
    ok = [x <= limit for x in probe]
    ticks = len(probe) - 1
    keep = [i for i in range(ticks)
            if all(ok[max(0, i - QUIET_REACH):i + 2 + QUIET_REACH])]
    if not sum(raw["tick_ops"][i] for i in keep):
        print("perfbench: no quiet tick completed an op; timing every tick", file=sys.stderr)
        keep = list(range(ticks))
    return keep


def end_to_end(raw):
    alloc = raw["gc_minor_words"] - raw["gc_promoted_words"] + raw["gc_major_words"]
    keep = quiet_ticks(raw)
    ticks = [raw["tick_cpu_ns"][i] for i in keep]
    ops = sum(raw["tick_ops"][i] for i in keep)
    return {
        "ns_per_op": (sum(ticks) / ops, "ns"),
        "tick_us.p50": (quantile(ticks, 0.5) / 1e3, "us"),
        "tick_us.p99": (quantile(ticks, 0.99) / 1e3, "us"),
        "setup_s": (setup_s(raw), "s"),
        "alloc_words_per_op": (alloc / raw["ops"], "words"),
        "heap_mb": (raw["top_heap_words"] * 8 / 1e6, "MB"),
    }


def span(raw, name, field):
    return raw.get("span.%s.%s" % (name, field), 0)


def layer_self(raw, floor, names):
    """Self time of a layer's spans, less the measuring cost of their
    direct children."""
    return sum(span(raw, n, "self_ns") - floor * span(raw, n, "kids") for n in names)


STORE_SPANS = ["store.schedule", "store.next_deadline", "store.fire_due", "store.cancel_rearm"]


def per_layer(workload, plain, traced):
    web = WORKLOADS[workload]["kind"] == "web"
    ops = traced["ops"]
    floor = traced["span_floor_ns"]
    top = "step" if web else "tick"
    # Self time by layer.  On web-* a step's own time is the engine plus
    # the machine/net/workload code it calls; fire_due callbacks are the
    # soft-timer handlers (core).  On pacer-1m the callbacks and the
    # check glue are the fleet's (tcp, over core's Rate_clock.Pool).
    simcore_self = layer_self(traced, floor, ["step"])
    store_self = layer_self(traced, floor, STORE_SPANS)
    cb_self = layer_self(traced, floor, ["callback"])
    core_self = cb_self if web else 0.0
    tcp_self = 0.0 if web else cb_self + layer_self(traced, floor, ["tick"])
    nested = sum(span(traced, n, "kids") for n in [top, "callback"] + STORE_SPANS)
    top_total = span(traced, top, "total_ns")
    top_count = span(traced, top, "count")
    steps = span(traced, "step", "count") - traced.get("sentinels", 0)
    checks, fired = traced.get("softtimer_checks", 0), traced.get("softtimer_fired", 0)
    plain_ops = plain["ops"]
    m = {
        "simcore.events_per_op": (per_op(steps, ops), "count"),
        "simcore.step_ns.p50": (span(traced, "step", "p50_ns"), "ns/step"),
        "simcore.step_ns.p99": (span(traced, "step", "p99_ns"), "ns/step"),
        "simcore.self_ns_per_op": (per_op(simcore_self, ops), "ns/op"),
        "machine.triggers_per_op": (per_op(traced.get("triggers_observed", 0), ops), "count"),
        "machine.quanta_per_op": (per_op(traced.get("cpu_runs", 0), ops), "count"),
        "machine.irqs_per_op": (per_op(traced.get("irqs", 0), ops), "count"),
        "core.checks_per_op": (per_op(checks, ops), "count"),
        "core.fired_per_op": (per_op(fired, ops), "count"),
        "core.fire_ratio": (fired / checks if checks else 0.0, "ratio"),
        "core.handler_ns_per_op": (per_op(core_self, ops), "ns/op"),
        "store.schedule_per_op": (per_op(span(traced, "store.schedule", "count"), ops), "count"),
        "store.next_deadline_per_op":
            (per_op(span(traced, "store.next_deadline", "count"), ops), "count"),
        "store.fire_due_per_op": (per_op(span(traced, "store.fire_due", "count"), ops), "count"),
        "store.cancel_rearm_per_op":
            (per_op(span(traced, "store.cancel_rearm", "count"), ops), "count"),
        "store.self_ns_per_op": (per_op(store_self, ops), "ns/op"),
        "store.fire_due_ns.p50": (span(traced, "store.fire_due", "p50_ns"), "ns/call"),
        "store.fired_per_scanned":
            (traced["store_fired"] / traced["store_scanned"] if traced["store_scanned"] else 0.0,
             "ratio"),
        "store.words_per_flow": (0.0 if web else traced["store_words"] / traced["flows"], "words"),
        "tcp.self_ns_per_op": (per_op(tcp_self, ops), "ns/op"),
        "tcp.pool_words_per_flow": (0.0 if web else traced["pool_words"] / traced["flows"], "words"),
        "tcp.catch_up_ratio": (0.0 if web else per_op(traced["catch_ups_timed"], ops), "ratio"),
        "net.tx_per_op": (per_op(traced["pkt_tx"] if web else traced["transmits"], ops), "count"),
        "net.rx_per_batch":
            (traced["rx_packets"] / traced["rx_batches"] if web and traced["rx_batches"] else 0.0,
             "count"),
        "net.packet_cells": (0 if web else traced["packet_cells"], "count"),
        "obs.emits_per_op": (per_op(traced["trace_emits"], ops), "count"),
        "obs.span_floor_ns": (floor, "ns/span"),
        "obs.trace_tax_pct": (ns_per_op(traced) / ns_per_op(plain) * 100.0 - 100.0, "%"),
        "gc.minor_words_per_op": (per_op(plain["gc_minor_words"], plain_ops), "words"),
        "gc.promoted_words_per_op": (per_op(plain["gc_promoted_words"], plain_ops), "words"),
        "gc.major_words_per_op": (per_op(plain["gc_major_words"], plain_ops), "words"),
        "gc.minor_gcs_per_kop": (per_op(plain["gc_minor_collections"], plain_ops) * 1e3, "count"),
        "gc.major_cycles": (plain["gc_major_collections"], "count"),
        "host.ref_ms": ((plain["ref_ns_before"] + plain["ref_ns_after"]) / 2e6, "ms"),
        "host.probe_ns.p01": (quantile(plain["probe_ns"], 0.01), "ns"),
        "host.quiet_pct": (len(quiet_ticks(plain)) / len(plain["tick_cpu_ns"]) * 100.0, "%"),
    }
    errs = []
    # Coverage: the step/tick spans must account for the timed segments'
    # wall time, less what the spans' own clock reads cost between them.
    # Time spent in the timed loop outside any span shows up here.
    gap = traced["wall_ns"] - top_total
    if not 0 <= gap <= MAX_GAP_FLOORS * floor * top_count + MAX_GAP_SHARE * traced["wall_ns"]:
        errs.append("span coverage: %s spans total %d ns of %d ns timed (%.1f ns per span "
                    "outside them, floor %.1f ns)"
                    % (top, top_total, traced["wall_ns"], gap / max(1, top_count), floor))
    # Bookkeeping: layer self times plus the floor per nested span must
    # add up to the step/tick totals.  Every span is charged to one layer,
    # so this fails only when a span is opened outside a step or tick.
    accounted = simcore_self + store_self + core_self + tcp_self + floor * nested
    if abs(accounted - top_total) > 1e-6 * max(1.0, top_total):
        errs.append("span bookkeeping: layers sum to %.0f ns, %s spans total %d ns"
                    % (accounted, top, top_total))
    return m, errs


# ---------------------------------------------------------------------------

def measure(workload, seed, size, trace, setups):
    """One benchmark run: returns (metrics, ops, errors)."""
    plain = child(workload, seed, size, False, setups)
    errs = invariant_errors(workload, plain)
    errs += recorded_errors(size_key(workload, seed, size), outputs(plain))
    if not trace:
        return end_to_end(plain), plain["ops"], errs
    traced = child(workload, seed, size, True, 1)
    if outputs(traced) != outputs(plain) or traced["ops"] != plain["ops"]:
        errs.append("traced run's outputs %r differ from the untraced run's %r"
                    % (outputs(traced), outputs(plain)))
    m, check_errs = per_layer(workload, plain, traced)
    return m, plain["ops"], errs + check_errs


def result_line(metrics, ops, errs):
    for e in errs:
        print("perfbench: output check failed: " + e, file=sys.stderr)
    return json.dumps({
        "correct": not errs,
        "attempted": ops,
        "failed": ops if errs else 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def smoke():
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    want_e2e = {m["name"]: m["unit"] for m in spec.get("end_to_end", [])}
    want_layer = {m["name"]: m["unit"] for m in spec.get("per_layer", [])}
    bad = 0
    for workload in WORKLOADS:
        if WORKLOADS[workload]["kind"] == "web":
            size = {"segments": SMOKE["web_segments"]}
        else:
            size = {"segments": SMOKE["pacer_segments"], "flows": SMOKE["pacer_flows"]}
        for trace, want in ((0, want_e2e), (1, want_layer)):
            m, ops, errs = measure(workload, 7, size, trace, 3)
            got = {name: unit for name, (_, unit) in m.items()}
            if got != want:
                errs.append("metric names or units differ from BENCHMARK.json: %s"
                            % sorted(set(got.items()) ^ set(want.items())))
            print("%-9s trace=%d ops=%-8d %s" % (workload, trace, ops, "ok" if not errs else "FAIL"))
            for e in errs:
                print("  " + e)
            bad += len(errs)
    sys.exit(1 if bad else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced-size run of every workload; checks metric names")
    a = p.parse_args()
    build()
    if a.smoke:
        smoke()
    if a.workload is None:
        p.error("--workload is required")
    if a.seconds < 1:
        p.error("--seconds must be at least 1")
    size = size_for(a.workload, a.seconds)
    setups = WORKLOADS[a.workload]["setups"] if a.trace == 0 else 1
    metrics, ops, errs = measure(a.workload, a.seed, size, a.trace == 1, setups)
    print(result_line(metrics, ops, errs))


if __name__ == "__main__":
    main()
