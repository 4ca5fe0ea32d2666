GO ?= go

.PHONY: all build vet test test-short check lint lint-sarif cover fuzz bench bench-stream bench-window bench-hotpath bench-entity bench-shard bench-reduce experiments clean

all: build vet test

# CI gate: static checks (including the jxlint invariant analyzers) plus
# the full suite under the race detector (the ingest worker pool and the
# parallel shard and tree-reduce folds must stay race-clean).
check: lint
	$(GO) vet ./...
	$(GO) test -race ./...

# jxlint mechanically enforces the interner, hot-path, and determinism
# invariants (see DESIGN.md "Enforced invariants"). It runs through the
# go vet driver, so it sees every package — test-augmented — exactly as
# vet does. Suppressions require //jx:lint-ignore <analyzer> <reason>.
lint:
	$(GO) install ./cmd/jxlint
	$(GO) vet -vettool=$$($(GO) env GOPATH)/bin/jxlint ./...

# Same run, but also merges every unit's findings into a SARIF 2.1.0 log
# (results/jxlint.sarif) for GitHub code scanning. Exit status still
# reflects pass/fail, so this can replace `make lint` in CI. Suggested
# fixes ride only on diagnostics that survive //jx:lint-ignore filtering,
# and any such diagnostic fails the run, so a passing run also means
# `jxlint -fixdiff ./...` would print an empty diff.
lint-sarif:
	$(GO) install ./cmd/jxlint
	mkdir -p results
	$$($(GO) env GOPATH)/bin/jxlint -sarif -o results/jxlint.sarif ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

cover:
	$(GO) test ./... -coverprofile=cover.out
	$(GO) tool cover -func=cover.out | tail -1

fuzz:
	$(GO) test -fuzz FuzzFromJSON -fuzztime 30s ./internal/jsontype/
	$(GO) test -fuzz FuzzDecodeAll -fuzztime 30s ./internal/jsontype/
	$(GO) test -fuzz FuzzScan -fuzztime 30s ./internal/jsontype/
	$(GO) test -fuzz FuzzKeySet -fuzztime 30s ./internal/entity/
	$(GO) test -fuzz FuzzUnmarshal -fuzztime 30s ./internal/schema/
	$(GO) test -fuzz FuzzSketchDecode -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzSketchMerge -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzReservoirVsExact -fuzztime 30s ./internal/core/

# Go benchmarks in benchstat-compatible format (-count=10 gives benchstat
# enough samples for a significance test). To compare against a baseline:
# run `make bench > old.txt` on the base commit, re-run on your branch as
# new.txt, then `benchstat old.txt new.txt`. The committed JSON baselines
# (results/BENCH_hotpath_pr1.json, results/BENCH_hotpath.json) track the
# end-to-end pipeline op instead — regenerate with `make bench-hotpath`
# and compare the allocs_per_op / ns_per_op columns directly.
bench:
	$(GO) test -run=^$$ -bench=. -benchmem -count=10 ./...
	$(GO) run ./cmd/jxbench -table entity -trials 3

# Streaming vs materialized ingestion comparison (throughput and peak
# heap), written to results/BENCH_stream.json.
bench-stream:
	$(GO) run ./cmd/jxbench -table stream -json-out results/BENCH_stream.json

# Bounded-stream grid: churn streams at 1/2/5/10× the memory budget,
# exact vs reservoir+ring+decay, with hard flat-state checks, plus the
# per-dataset bounded-vs-exact decision tolerance. Written to
# results/BENCH_window.json.
bench-window:
	$(GO) run ./cmd/jxbench -table window -json-out results/BENCH_window.json

# Allocation/hot-path benchmark (interning + bitsets)
# with ratios against the committed PR-1 baseline, written to
# results/BENCH_hotpath.json.
bench-hotpath:
	$(GO) run ./cmd/jxbench -table hotpath -json-out results/BENCH_hotpath.json

# Entity-discovery scaling grid (weighted dedup + posting-index Bimax and
# GreedyMerge vs the quadratic reference) over the wide synthetic
# datasets, written to results/BENCH_entity.json.
bench-entity:
	$(GO) run ./cmd/jxbench -table entity -trials 3 -json-out results/BENCH_entity.json

# Sharded map/reduce discovery over the 1/2/4/8-worker grid: contiguous
# split, parallel shard folds through the sketch wire format, in-order
# reduce, with byte-equivalence against single-process discovery checked
# on every cell. Written to results/BENCH_shard.json.
bench-shard:
	$(GO) run ./cmd/jxbench -table shard -json-out results/BENCH_shard.json

# Parallel tree reduce over the 1..32-shard × 1..8-reduce-worker grid:
# wall time and allocs for the merge-into decoder, the materialize
# baseline on the sequential rows, with byte-equivalence against
# single-process discovery checked before any cell is timed. Written to
# results/BENCH_reduce.json.
bench-reduce:
	$(GO) run ./cmd/jxbench -table reduce -json-out results/BENCH_reduce.json

# Regenerates every table and figure of the paper's evaluation into
# results/jxbench_full.txt (about a minute at scale 0.5).
experiments:
	mkdir -p results
	$(GO) run ./cmd/jxbench -all -scale 0.5 -trials 3 > results/jxbench_full.txt
	@echo "wrote results/jxbench_full.txt"

clean:
	rm -f cover.out results/jxlint.sarif results/jxlint-fix.diff
