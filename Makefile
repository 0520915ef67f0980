.PHONY: all build test bench bench-parallel microbench arena-bench pacer-smoke pacer-bench perfbench-smoke perf-pairs report-smoke bench-json benchdiff mem-bench trace-smoke lint lint-json lint-baseline sanitize-smoke determinism clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Quick suite fanned over one domain per core.  Tables and JSON are
# byte-identical to the sequential run (wall-clock fields aside); on a
# single-core host this only adds contention, so it is a determinism
# exercise there, not a speedup.
bench-parallel: build
	dune exec bench/main.exe -- --quick --jobs 0

# The Bechamel microbenchmark suite: engine/event-queue hot path (the
# numbers the PR-4 overhaul is judged by; table in EXPERIMENTS.md),
# soft-timer schedule+fire and check, obs taps, per-store fast paths.
microbench: build
	dune exec bench/microbench.exe -- --quota 2

# Timer-store arena: every Timer_store backend head-to-head under
# schedule_fire / rearm_churn / cancel_churn at ARENA_N live timers
# (the EXPERIMENTS.md table ran at 1M and 4M).  Writes a markdown table
# to ARENA_OUT; CI runs a smaller population and uploads the table.
ARENA_N ?= 1000000
ARENA_OPS ?= 100000
ARENA_OUT ?= /tmp/softtimers-arena.md
arena-bench: build
	dune exec bench/store_arena.exe -- --n $(ARENA_N) --ops $(ARENA_OPS) --out $(ARENA_OUT)

# Million-flow pacing smoke: the deterministic pacer-scale experiment
# at reduced fleet sizes — per-store send counts must agree (they are
# asserted identical in test/test_experiments.ml; here we just run it).
pacer-smoke: build
	dune exec bin/softtimers_cli.exe -- pacer-scale --quick

# Wall-clock fleet-pacing sweep (the O(1)-per-tick acceptance story):
# ns/flow/tick across stores and fleet sizes up to PACER_FLOWS, JSON to
# PACER_OUT.  Committed reference: bench/PACER_bench.json.
PACER_OUT ?= /tmp/softtimers-pacer.json
PACER_REPEAT ?= 3
pacer-bench: build
	dune exec bench/pacer_bench.exe -- --repeat $(PACER_REPEAT) --json $(PACER_OUT)

# Host-cost benchmark smoke: builds perfbench/bench.exe in its own
# release build tree, runs web-soft, web-irq and pacer-1m at reduced
# size and checks each run's simulation outputs against
# perfbench/expected.json — so a store or engine swap that changes
# what the simulation computes fails here.
perfbench-smoke:
	python3 perfbench/run.py --smoke

# Paired host-cost comparison: the working tree against revision BASE
# on one perfbench workload, one pair of --trace 0 runs per seed, the
# side that goes first alternating.  Prints each end-to-end metric's
# median, quartiles and change against its BENCHMARK.json bound, and
# flags any run with failed > 0.  BASE is checked out in a temporary
# git worktree under .bench_build/.  Ten pairs at 15 s take ~6 min.
# TRACE=1 pairs traced runs instead and prints both sides' medians of
# the GC metrics (minor and promoted words per op, minor collections,
# major cycles), to trace a heap_mb move to promotion.  ALL_TICKS=1
# (--all-ticks) runs each side's built bench.exe directly and prints
# CPU ns per op over all ticks beside the quiet-tick figure: the
# control for pacer-1m, whose quiet-tick ns_per_op rests on 1-6 % of
# its ticks.
BASE ?= HEAD
WORKLOAD ?= web-soft
SEEDS ?= 1 2 3 4 5 6 7 8 9 10
TRACE ?= 0
ALL_TICKS ?= 0
perf-pairs:
	python3 tools/perf_pairs.py --base $(BASE) --workload $(WORKLOAD) --seeds "$(SEEDS)" --trace $(TRACE) $(if $(filter 1,$(ALL_TICKS)),--all-ticks)

# Run-report smoke: one report per experiment (fig1, table3 and the
# pacer-scale census), each from a single execution, plus table3's
# profile as a collapsed-stack flamegraph.  Checks the JSON: schema
# marker, a complete ring, why-late / spans / metrics agreeing on the
# fired count, zero conservation violations (the command itself also
# exits nonzero on one), and a pacer census over at least two stores.
# CI uploads the reports.
report-smoke: build
	dune exec bin/softtimers_cli.exe -- report fig1 --quick --json --buf 4194304 --out /tmp/softtimers-fig1-report.json
	dune exec bin/softtimers_cli.exe -- report table3 --quick --json --buf 4194304 --out /tmp/softtimers-table3-report.json --flame /tmp/softtimers-table3.folded
	dune exec bin/softtimers_cli.exe -- report pacer-scale --quick --json --buf 4194304 --out /tmp/softtimers-pacer-report.json
	python3 -c "import json; \
	ds = {e: json.load(open('/tmp/softtimers-%s-report.json' % e)) for e in ('fig1', 'table3', 'pacer')}; \
	assert all(d['schema'] == 'softtimers-report/1' for d in ds.values()), 'schema'; \
	assert all(d['trace']['dropped'] == 0 for d in ds.values()), 'trace ring overflowed'; \
	fired = {e: (d['whylate']['fired'], d['stats']['spans']['timers']['fired'], d['stats']['metrics'].get('softtimer.fired', 0)) for e, d in ds.items()}; \
	assert all(len(set(f)) == 1 for f in fired.values()), fired; \
	assert all(d['whylate']['conservation_violations'] == 0 and d['mem']['conservation_ok'] for d in ds.values()), 'conservation'; \
	stores = {s['path'].split(';')[2] for s in ds['pacer']['mem']['sources'] if s['path'].startswith('mem;pacer;')}; \
	assert len(stores) >= 2, stores; \
	print('report-smoke: fired %s, pacer census over %d stores' % ({e: f[0] for e, f in fired.items()}, len(stores)))"

# Machine-readable bench baseline (BENCH_<tag>.json).  BENCH_JSON names
# the output; the three structured tables are printed and their cells
# captured together with a cycle-attribution summary.
BENCH_JSON ?= BENCH_quick.json
bench-json: build
	dune exec bench/main.exe -- --quick --json $(BENCH_JSON) table2 table3 table8

# Compare a freshly generated baseline against the committed one.
# Gating since PR 4: the compared cells are deterministic simulation
# results (wall-clock keys are never compared), so any drift is a real
# behaviour change — regenerate bench/BENCH_baseline.json deliberately
# when one is intended.
benchdiff: bench-json
	dune exec tools/benchdiff/benchdiff.exe -- --strict --threshold 0 --mem-threshold 0 bench/BENCH_baseline.json $(BENCH_JSON)

# Full-size memory sweep: per-store words/flow at 10^3..10^6 flows
# (the EXPERIMENTS.md memory-gap table), as the run report's census.
# Writes MEM_OUT; report-smoke covers the quick variant.
MEM_OUT ?= /tmp/softtimers-pacer-mem.json
mem-bench: build
	dune exec bin/softtimers_cli.exe -- report pacer-scale --json --out $(MEM_OUT)
	@echo "mem-bench: wrote $(MEM_OUT)"

# Export a quick fig1 trace and check the Chrome trace_event JSON is
# well-formed (Perfetto/chrome://tracing will accept what json.tool
# parses).  --window adds the time-series counter tracks and async
# span events to the stream, so the parse covers the extended export.
trace-smoke: build
	dune exec bin/softtimers_cli.exe -- trace fig1 --quick --window 1000 --out /tmp/softtimers-fig1.json
	python3 -m json.tool /tmp/softtimers-fig1.json > /dev/null
	@echo "trace-smoke: /tmp/softtimers-fig1.json is valid trace_event JSON"

# Static-analysis suite (tools/lint): determinism (DET001..DET005,
# MLI001), domain races
# (RACE001..RACE004), hot-path allocations and lookups
# (ALLOC001..ALLOC003, HOT001, HOT002) and lib/ exports no root reaches
# (DEAD001, reading test/ and perfbench/ for references), plus stale
# allowances (ALLOW001), over lib/ bin/ examples/ bench/ tools/, with
# file:line:RULE diagnostics,
# ratcheted against tools/lint/BASELINE.json (empty since the RACE002
# burn-down — any finding is fresh debt).
lint:
	dune build @lint

# Machine-readable findings: lint.json (softtimers-lint/1) and
# lint.sarif (SARIF 2.1.0, baseline'd findings marked as suppressions)
# for CI artifact upload and code-scanning viewers.  Exit status still
# reflects the ratchet, so `make lint-json` both exports and gates.
lint-json: build
	dune exec tools/lint/lint.exe -- --json lint.json --sarif lint.sarif lib bin examples bench tools

# Re-freeze the ratchet from the current findings.  Do this
# deliberately — after paying down frozen debt, or when knowingly
# accepting new debt with a justification — never to silence a fresh
# finding you could fix or [@lint.allow] with a reason.
lint-baseline: build
	dune exec tools/lint/lint.exe -- --write-baseline tools/lint/BASELINE.json lib bin examples bench tools

# Run two representative experiments with the runtime invariant
# sanitizer armed; any violation exits nonzero.
sanitize-smoke: build
	dune exec bin/softtimers_cli.exe -- table3 --quick --sanitize
	dune exec bin/softtimers_cli.exe -- table8 --quick --sanitize

# Replay-diff: each experiment runs twice with the same seed; the
# emitted tables, metrics dumps and trace digests must match bit-for-bit.  The
# sensitivity run repeats at --jobs 4 to check that parallel fan-out
# (lib/parallel) leaves tables and digests byte-identical.
determinism: build
	dune exec bin/softtimers_cli.exe -- verify-determinism table3 --quick
	dune exec bin/softtimers_cli.exe -- verify-determinism table8 --quick
	dune exec bin/softtimers_cli.exe -- verify-determinism livelock --quick
	dune exec bin/softtimers_cli.exe -- verify-determinism sensitivity --quick
	dune exec bin/softtimers_cli.exe -- verify-determinism sensitivity --quick --jobs 4
	dune exec bin/softtimers_cli.exe -- verify-determinism pacer-scale --quick

clean:
	dune clean
