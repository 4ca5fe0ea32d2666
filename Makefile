GO ?= go

.PHONY: all build vet test test-short check lint lint-sarif cover fuzz bench experiments clean

all: build vet test

# CI gate: gofmt, static checks (including the jxlint invariant analyzers)
# plus the full suite under the race detector (the ingest worker pool and
# the parallel shard and tree-reduce folds must stay race-clean). The
# gofmt step lists any unformatted file and fails.
check: lint
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
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

# The sketch targets bound minimization as CI does: their 10,001-level
# seeds make every replay of a new input slow, so an unbounded minimize
# would take most of the run.
fuzz:
	$(GO) test -fuzz FuzzFromJSON -fuzztime 30s ./internal/jsontype/
	$(GO) test -fuzz FuzzDecodeAll -fuzztime 30s ./internal/jsontype/
	$(GO) test -fuzz FuzzScan -fuzztime 30s ./internal/jsontype/
	$(GO) test -fuzz FuzzLineFraming -fuzztime 30s ./internal/ingest/
	$(GO) test -fuzz FuzzKeySet -fuzztime 30s ./internal/entity/
	$(GO) test -fuzz FuzzWeightedVsReplicated -fuzztime 30s ./internal/entity/
	$(GO) test -fuzz FuzzBimaxMatchesRef -fuzztime 30s ./internal/entity/
	$(GO) test -fuzz FuzzUnmarshal -fuzztime 30s ./internal/schema/
	$(GO) test -fuzz FuzzNativeMarshal -fuzztime 30s ./internal/schema/
	$(GO) test -fuzz FuzzSketchDecode -fuzztime 30s -fuzzminimizetime 1s ./internal/core/
	$(GO) test -fuzz FuzzSketchMerge -fuzztime 30s -fuzzminimizetime 1s ./internal/core/
	$(GO) test -fuzz FuzzReservoirVsExact -fuzztime 30s ./internal/core/

# Go benchmarks in benchstat-compatible format (-count=10 gives benchstat
# enough samples for a significance test). To compare against a baseline:
# run `make bench > old.txt` on the base commit, re-run on your branch as
# new.txt, then `benchstat old.txt new.txt`. The end-to-end benchmark of
# the CLIs, with per-layer traces, is bench/ (see bench/README.md).
bench:
	$(GO) test -run=^$$ -bench=. -benchmem -count=10 ./...

# Regenerates every table and figure of the paper's evaluation into
# results/jxbench_full.txt (about a minute at scale 0.5).
experiments:
	mkdir -p results
	$(GO) run ./cmd/jxbench -all -scale 0.5 -trials 3 > results/jxbench_full.txt
	@echo "wrote results/jxbench_full.txt"

clean:
	rm -f cover.out results/jxlint.sarif results/jxlint-fix.diff
