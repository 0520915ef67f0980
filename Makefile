.PHONY: all build test bench bench-parallel microbench arena-bench pacer-smoke pacer-bench perfbench-smoke profile-smoke bench-json benchdiff mem-smoke mem-bench trace-smoke stats-smoke whylate-smoke lint lint-json lint-baseline sanitize-smoke determinism clean

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

# Cycle-attribution profiler smoke: run table3 under the profiler and
# export both the text report and a collapsed-stack flamegraph.
profile-smoke: build
	dune exec bin/softtimers_cli.exe -- profile table3 --quick --out /tmp/softtimers-table3-profile.txt
	dune exec bin/softtimers_cli.exe -- profile table3 --quick --flame --out /tmp/softtimers-table3.folded
	@echo "profile-smoke: report and /tmp/softtimers-table3.folded written"

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

# Memory-observatory smoke: run the mem report over fig1 and the
# pacer-scale sweep (quick sizes) and validate the JSON shape — schema
# marker, census sources with live flags, the conservation verdict
# (the subcommand itself exits nonzero on a violation), and per-store
# store/pool words for at least two stores.
mem-smoke: build
	dune exec bin/softtimers_cli.exe -- mem fig1 --quick --json --out /tmp/softtimers-fig1-mem.json
	dune exec bin/softtimers_cli.exe -- mem pacer-scale --quick --json --out /tmp/softtimers-pacer-mem.json
	python3 -c "import json; d = json.load(open('/tmp/softtimers-pacer-mem.json')); \
	assert d['schema'] == 'softtimers-mem/1', d['schema']; \
	ms = d['memstats']; assert ms['conservation_ok'], 'conservation violated'; \
	stores = {s['path'].split(';')[2] for s in ms['sources'] if s['path'].startswith('mem;pacer;')}; \
	assert len(stores) >= 2, stores; \
	assert all(s['words'] > 0 for s in ms['sources'] if s['path'].endswith(';store')), 'empty store source'; \
	print('mem-smoke: %d sources over %d stores, conservation ok' % (len(ms['sources']), len(stores)))"

# Full-size memory sweep: per-store words/flow at 10^3..10^6 flows
# (the EXPERIMENTS.md memory-gap table).  Writes MEM_OUT; CI uploads
# the quick variant as an artifact.
MEM_OUT ?= /tmp/softtimers-pacer-mem.json
mem-bench: build
	dune exec bin/softtimers_cli.exe -- mem pacer-scale --json --out $(MEM_OUT)
	@echo "mem-bench: wrote $(MEM_OUT)"

# Export a quick fig1 trace and check the Chrome trace_event JSON is
# well-formed (Perfetto/chrome://tracing will accept what json.tool
# parses).  --window adds the time-series counter tracks and async
# span events to the stream, so the parse covers the extended export.
trace-smoke: build
	dune exec bin/softtimers_cli.exe -- trace fig1 --quick --window 1000 --out /tmp/softtimers-fig1.json
	python3 -m json.tool /tmp/softtimers-fig1.json > /dev/null
	@echo "trace-smoke: /tmp/softtimers-fig1.json is valid trace_event JSON"

# Windowed time-series smoke: run the stats subcommand on table3 and
# validate the JSON report's shape (schema marker, non-empty window
# list, span summaries, metrics registry).  CI uploads the report as
# an artifact.
stats-smoke: build
	dune exec bin/softtimers_cli.exe -- stats table3 --quick --window 1000 --json --out /tmp/softtimers-table3-stats.json
	python3 -c "import json; d = json.load(open('/tmp/softtimers-table3-stats.json')); \
	assert d['schema'] == 'softtimers-stats/1', d['schema']; \
	assert isinstance(d['windows'], list) and d['windows'], 'windows missing/empty'; \
	assert {'timers', 'packets'} <= set(d['spans']), 'span summaries missing'; \
	assert isinstance(d['metrics'], dict) and d['metrics'], 'metrics missing/empty'; \
	assert d['window_us'] == 1000, d['window_us']; \
	print('stats-smoke: %d windows, %d metrics' % (len(d['windows']), len(d['metrics'])))"

# Late-fire forensics smoke: run the why-late audit over fig1 and
# validate the JSON report — schema marker, non-empty cause breakdown,
# and the conservation contract (zero violations; the subcommand also
# exits nonzero on any violation).  CI uploads the report.
whylate-smoke: build
	dune exec bin/softtimers_cli.exe -- why-late fig1 --quick --json --buf 4194304 --out /tmp/softtimers-fig1-whylate.json
	python3 -c "import json; d = json.load(open('/tmp/softtimers-fig1-whylate.json')); \
	assert d['schema'] == 'softtimers-whylate/1', d['schema']; \
	assert d['conservation_violations'] == 0, d['conservation_violations']; \
	assert d['late'] > 0 and isinstance(d['causes'], list) and d['causes'], 'no late fires attributed'; \
	assert isinstance(d['worst'], list) and d['worst'], 'worst exemplars missing'; \
	assert all(sum(w['segs'].values()) == w['delay_ns'] for w in d['worst']), 'exemplar segments do not sum'; \
	print('whylate-smoke: %d late fires, %d causes, worst %d' % (d['late'], len(d['causes']), len(d['worst'])))"

# Static-analysis suite (tools/lint): determinism (DET001..DET004,
# MLI001), Gc.Memprof confinement (MEM001), domain races
# (RACE001..RACE004) and hot-path allocations (ALLOC001..ALLOC003) over
# lib/ bin/ examples/ bench/ tools/, with file:line:RULE diagnostics,
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
# emitted tables and the trace digests must match bit-for-bit.  The
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
