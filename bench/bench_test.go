package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run starts its preparation and traced children.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at 1% size, two ops and two traced trios
// each. A run fails when a metric BENCHMARK.json names has no value.
func TestSmoke(t *testing.T) {
	// Race-built children would otherwise linger a second at exit.
	t.Setenv("GORACE", "atexit_sleep_ms=0")
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runOnce(settings{root: root, work: work, workload: w, seed: 1,
				scale: 0.01, minOps: 2, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, res.FailedOps)
			}
			if r := res.Metrics["trace.residual_share"].Value; trace && !(r >= 0 && r < 1) {
				t.Errorf("%s: trace.residual_share = %v, want a share in [0, 1)", w.name, r)
			}
		}
	}

	// A failing op is counted and the loop goes on to the next one.
	w := workloads[0]
	base := filepath.Join(work, "data", w.name+"-seed1")
	want, err := os.ReadFile(base + ".ref")
	if err != nil {
		t.Fatal(err)
	}
	good := w.command(filepath.Join(work, "bin"), base+".jsonl")
	exits := append([]string{good[0], "-algorithm", "none"}, good[1:]...)
	differs := append(slices.Clone(good[:len(good)-1]), "-format", "pretty", good[len(good)-1])
	cal := []string{os.Args[0], "-child", "cal"}
	ops := runOps([][]string{exits, differs, good}, cal, os.Environ(), want, 0, 3)
	if ops.attempted != 3 || ops.failed != 2 || len(ops.seconds) != 1 {
		t.Errorf("attempted=%d failed=%d ok=%d, want 3, 2, 1: %v",
			ops.attempted, ops.failed, len(ops.seconds), ops.reasons)
	}
}

// TestSpread pins the quartiles to Python's statistics.quantiles(n=4),
// which gives [2.75, 5.5, 8.25] for 1..10.
func TestSpread(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
