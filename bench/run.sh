#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# flags, from the root of a jxplain checkout:
#
#   bash bench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain or the benchmark writes (build cache,
# binaries, inputs, temp files, results) stays under .bench_build in the
# checkout. See bench/README.md.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
