#!/usr/bin/env python3
"""Paired host-cost comparison of the working tree against a base revision.

    python3 tools/perf_pairs.py --base REV --workload web-soft \
        --seeds "1 2 3 4 5 6 7 8 9 10" [--trace 1]

Run from the root of the repository (make perf-pairs does).  Checks REV
out in a detached git worktree under .bench_build/, then for each seed
runs `python3 perfbench/run.py --trace 0`, at its default run length,
once in that worktree and once in the working tree, alternating which
side goes first from one seed to the next so slow drift of the host
hits both sides alike.  Each
side builds its own perfbench/bench.exe from its own sources.

Prints, per end-to-end metric of BENCHMARK.json: the median and
quartiles of each side, the change ratio of the medians, the number of
pairs in which the working tree was better, and whether the change
stays within the metric's bound.  A run that reports failed > 0 (or
fails outright) is flagged, and makes the exit status nonzero, as does
a metric worse than its bound.  The worktree is removed on exit.

With --trace 1 each side runs `perfbench/run.py --trace 1` instead,
which reports the per-layer metrics, and the table is the GC
attribution: both sides' medians of minor and promoted words per op,
minor collections per thousand ops and major cycles, so a move of
heap_mb can be traced to promotion.  These metrics carry no bound;
only failed runs set the exit status.

With --all-ticks each side's perfbench/bench.exe is built once and run
directly, untraced, and the table sets CPU ns per op over all ticks
(sum of tick_cpu_ns over sum of tick_ops) beside ns_per_op as
perfbench/run.py reports it, over the ticks its host probe rates quiet.
On a DRAM-bound workload such as pacer-1m only a few per cent of ticks
may be quiet, and the all-ticks figure shows whether a move of the
quiet-tick figure is the code's or the host's.  Informational: no bound,
and only failed runs set the exit status.
"""

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.getcwd()


def die(msg):
    print("perf-pairs: " + msg, file=sys.stderr)
    sys.exit(2)


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def drop_tree(tree):
    """Remove the base worktree and its registration, whatever is left."""
    subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=ROOT,
                   capture_output=True)
    shutil.rmtree(tree, ignore_errors=True)
    git("worktree", "prune")


# The per-layer metrics --trace 1 compares: where a heap_mb move comes from.
GC_METRICS = ["gc.minor_words_per_op", "gc.promoted_words_per_op", "gc.minor_gcs_per_kop",
              "gc.major_cycles"]


def run_side(cwd, workload, seed, trace=0):
    """One perfbench run; returns its result object, or None on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = [l for l in p.stdout.splitlines() if l.startswith("{")]
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        return None
    return json.loads(lines[-1])


def perfbench_module():
    """The working tree's perfbench/run.py, loaded for its workload
    sizes and its quiet-tick filter."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def build_bench(cwd):
    """Build cwd's perfbench/bench.exe as perfbench/run.py does; returns
    its path."""
    tmp = os.path.join(cwd, ".bench_build", "tmp")
    build_dir = os.path.join(cwd, ".bench_build", "dune")
    os.makedirs(tmp, exist_ok=True)
    subprocess.run(["dune", "build", "--root", ".", "--build-dir", build_dir,
                    "--profile", "release", "--cache", "disabled", "./perfbench/bench.exe"],
                   cwd=cwd, env=dict(os.environ, TMPDIR=tmp), check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "default", "perfbench", "bench.exe")


def run_bench(pb, exe, cwd, workload, seed, seconds):
    """One untraced bench.exe run at perfbench/run.py's size for
    [seconds]; returns [(all-ticks ns/op, quiet-tick ns/op)], or None on
    failure."""
    size = pb.size_for(workload, seconds)
    args = [exe, "--workload", workload, "--seed", str(seed),
            "--setups", str(pb.WORKLOADS[workload]["setups"]),
            "--segments", str(size["segments"])]
    if "flows" in size:
        args += ["--flows", str(size["flows"])]
    p = subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                       env=dict(os.environ, TMPDIR=os.path.join(cwd, ".bench_build", "tmp")))
    lines = [l for l in p.stdout.splitlines() if l.startswith("{")]
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        return None
    raw = json.loads(lines[-1])
    ops = sum(raw["tick_ops"])
    if not ops:
        return None
    return sum(raw["tick_cpu_ns"]) / ops, pb.end_to_end(raw)["ns_per_op"][0]


def report_all_ticks(runs):
    """Quartiles of both ns/op figures, per side."""
    print("%-22s %-30s %-30s %8s %6s" % ("ns/op over", "base q1/median/q3",
                                          "new q1/median/q3", "change", "lower"))
    for k, name in ((1, "quiet ticks"), (0, "all ticks")):
        pairs = [(b[k], n[k]) for b, n in runs if b and n]
        if not pairs:
            print("%-22s (no paired runs)" % name)
            continue
        base = quartiles([b for b, _ in pairs])
        new = quartiles([n for _, n in pairs])
        lower = sum(1 for b, n in pairs if n < b)
        print("%-22s %-30s %-30s %+7.1f%% %3d/%-2d" % (
            name, "%.4g / %.4g / %.4g" % base, "%.4g / %.4g / %.4g" % new,
            100 * (new[1] / base[1] - 1.0), lower, len(pairs)))


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(spec, runs):
    """Per-metric table; returns the number of metrics worse than their bound."""
    bad = 0
    print("%-20s %-30s %-30s %8s %6s %6s  %s" % (
        "metric", "base q1/median/q3", "new q1/median/q3", "change", "bound", "wins", "verdict"))
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(b["metrics"][name]["value"], n["metrics"][name]["value"])
                 for b, n in runs if b and n and name in b["metrics"] and name in n["metrics"]]
        if not pairs:
            print("%-20s (no paired runs)" % name)
            continue
        base = quartiles([b for b, _ in pairs])
        new = quartiles([n for _, n in pairs])
        change = new[1] / base[1] - 1.0 if base[1] else 0.0
        worse = change if lower else -change
        wins = sum(1 for b, n in pairs if (n < b if lower else n > b))
        ok = worse <= m["bound"]
        bad += not ok
        print("%-20s %-30s %-30s %+7.1f%% %5.0f%% %3d/%-2d  %s" % (
            name, "%.4g / %.4g / %.4g" % base, "%.4g / %.4g / %.4g" % new, 100 * change,
            100 * m["bound"], wins, len(pairs), "ok" if ok else "WORSE THAN BOUND"))
    return bad


def report_trace(runs):
    """Side-by-side medians of the GC metrics of paired --trace 1 runs."""
    print("%-26s %14s %14s %8s %6s" % ("metric", "base median", "new median", "change",
                                        "lower"))
    for name in GC_METRICS:
        pairs = [(b["metrics"][name]["value"], n["metrics"][name]["value"])
                 for b, n in runs if b and n and name in b["metrics"] and name in n["metrics"]]
        if not pairs:
            print("%-26s (no paired runs)" % name)
            continue
        base = statistics.median([b for b, _ in pairs])
        new = statistics.median([n for _, n in pairs])
        change = new / base - 1.0 if base else 0.0
        lower = sum(1 for b, n in pairs if n < b)
        print("%-26s %14.4g %14.4g %+7.1f%% %3d/%-2d" % (name, base, new, 100 * change, lower,
                                                         len(pairs)))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True,
                   help="seeds, separated by spaces or commas (one pair each)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: compare the GC metrics of traced runs instead")
    p.add_argument("--all-ticks", action="store_true",
                   help="run each side's bench.exe directly and compare CPU ns per op over "
                        "all ticks beside the quiet-tick figure")
    a = p.parse_args()
    if a.all_ticks and a.trace:
        die("--all-ticks compares untraced runs; drop --trace 1")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        die("run from the repository root (BENCHMARK.json not found)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seeds = [int(s) for s in a.seeds.replace(",", " ").split()]
    if not seeds:
        die("no seeds")
    rev = git("rev-parse", "--verify", a.base + "^{commit}")
    tree = os.path.join(ROOT, ".bench_build", "base-" + rev[:12])
    drop_tree(tree)
    os.makedirs(os.path.dirname(tree), exist_ok=True)
    git("worktree", "add", "--detach", tree, rev)
    runs, failed = [], 0
    try:
        if a.all_ticks:
            pb = perfbench_module()
            exes = {"base": build_bench(tree), "new": build_bench(ROOT)}
        for k, seed in enumerate(seeds):
            sides = [("base", tree), ("new", ROOT)]
            if k % 2:
                sides.reverse()
            got = {}
            for side, cwd in sides:
                if a.all_ticks:
                    r = run_bench(pb, exes[side], cwd, a.workload, seed, spec["run_seconds"])
                    got[side] = r
                    if r is None:
                        failed += 1
                        print("perf-pairs: seed %d %s run FAILED" % (seed, side),
                              file=sys.stderr)
                    continue
                r = run_side(cwd, a.workload, seed, a.trace)
                got[side] = r
                if r is None or r.get("failed", 1) > 0 or not r.get("correct", False):
                    failed += 1
                    print("perf-pairs: seed %d %s run FAILED: %s" % (seed, side, r),
                          file=sys.stderr)
            runs.append((got["base"], got["new"]))
            print("seed %d done (%s first)" % (seed, sides[0][0]), file=sys.stderr)
    finally:
        drop_tree(tree)
    print("perf-pairs: %s, %d pairs, base %s vs working tree" % (a.workload, len(runs), rev[:12]))
    if a.all_ticks:
        report_all_ticks(runs)
        bad = 0
    elif a.trace:
        report_trace(runs)
        bad = 0
    else:
        bad = report(spec, runs)
    if failed:
        print("perf-pairs: %d run(s) failed or reported failed > 0" % failed)
    sys.exit(1 if bad or failed else 0)


if __name__ == "__main__":
    main()
