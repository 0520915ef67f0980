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
"""

import argparse
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
    a = p.parse_args()
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
        for k, seed in enumerate(seeds):
            sides = [("base", tree), ("new", ROOT)]
            if k % 2:
                sides.reverse()
            got = {}
            for side, cwd in sides:
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
    if a.trace:
        report_trace(runs)
        bad = 0
    else:
        bad = report(spec, runs)
    if failed:
        print("perf-pairs: %d run(s) failed or reported failed > 0" % failed)
    sys.exit(1 if bad or failed else 0)


if __name__ == "__main__":
    main()
