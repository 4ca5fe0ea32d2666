package stream

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jxplain/internal/core"
	"jxplain/internal/drift"
)

// churnJSONL returns n JSONL records, each with its own key.
func churnJSONL(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "{\"k%03d\":%d}\n", i, i)
	}
	return b.String()
}

// shiftJSONL returns n JSONL records whose one object field is named a
// in the first half and b in the second, so windows see paths appear and
// retire.
func shiftJSONL(n int, a, b string) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		key := a
		if i >= n/2 {
			key = b
		}
		fmt.Fprintf(&sb, "{%q:{\"x\":%d}}\n", key, i)
	}
	return sb.String()
}

// TestDefaultChunkCappedAtWindow pins the default chunk's cap: an add is
// atomic with respect to windows, so with the default 2048-record chunk
// 400 records would land in one add and close a single window. Capped at
// the 50-record cadence, they close eight.
func TestDefaultChunkCappedAtWindow(t *testing.T) {
	res, err := Run(context.Background(), strings.NewReader(churnJSONL(400)), core.Default(), Plan{
		Options: Options{JSONL: true, WindowRecords: 50, WindowCount: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 400 {
		t.Fatalf("ingested %d records, want 400", res.Records)
	}
	if got := res.Acc.WindowsClosed(); got != 8 {
		t.Errorf("WindowsClosed = %d, want 8", got)
	}
	// An explicit chunk size is used as given.
	res, err = Run(context.Background(), strings.NewReader(churnJSONL(400)), core.Default(), Plan{
		Options: Options{JSONL: true, ChunkSize: 400, WindowRecords: 50, WindowCount: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Acc.WindowsClosed(); got != 1 {
		t.Errorf("explicit 400-record chunk: WindowsClosed = %d, want 1", got)
	}
}

// TestBoundsChecked pins the edges of the bounds check beyond the three
// cases the facade test covers: a decay with no window at all, a decay of
// exactly 1, bounds arriving through the configuration, and bounds that
// must pass.
func TestBoundsChecked(t *testing.T) {
	cfg := core.Default()
	cfg.Bounds.WindowCount = 4
	for _, c := range []struct {
		cfg  core.Config
		opts Options
		ok   bool
	}{
		{core.Default(), Options{Decay: 0.5}, false},
		{core.Default(), Options{WindowRecords: 100, Decay: 1}, false},
		{cfg, Options{}, false},
		{core.Default(), Options{Capacity: 8}, true},
		{core.Default(), Options{WindowRecords: 100, WindowCount: 2, Decay: 0.5}, true},
	} {
		_, err := Run(context.Background(), strings.NewReader(`{"a":1}`), c.cfg, Plan{Options: c.opts})
		if (err == nil) != c.ok {
			t.Errorf("bounds %+v, options %+v: err = %v", c.cfg.Bounds, c.opts, err)
		}
	}
}

// TestContinue checks that a continued accumulator keeps its records and
// drift binding, and that caps which would reshape a non-empty one are
// refused.
func TestContinue(t *testing.T) {
	ctx := context.Background()
	cfg := core.Default()
	events := 0
	first, err := Run(ctx, strings.NewReader(shiftJSONL(100, "a", "b")), cfg, Plan{
		Options:     Options{JSONL: true, WindowRecords: 20, WindowCount: 2},
		WindowDrift: func(*drift.WindowEvent) { events++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := events
	if seen == 0 {
		t.Fatal("shifting stream raised no drift events")
	}
	next, err := Run(ctx, strings.NewReader(shiftJSONL(100, "c", "d")), first.Cfg, Plan{
		Options: Options{JSONL: true, WindowRecords: 20, WindowCount: 2},
		Acc:     first.Acc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if next.Acc != first.Acc || next.Acc.Records() != 200 {
		t.Errorf("continued run: same accumulator %v, records %d", next.Acc == first.Acc, next.Acc.Records())
	}
	if events == seen {
		t.Error("continued accumulator lost its drift binding")
	}
	if _, err := Run(ctx, strings.NewReader(churnJSONL(1)), first.Cfg, Plan{
		Options: Options{JSONL: true, Capacity: 8},
		Acc:     first.Acc,
	}); err == nil {
		t.Error("new bounds accepted on a non-empty accumulator")
	}
}

// TestSeedsNameFailingFile checks that seeds fold like a single stream
// and that a bad seed file is named in the error.
func TestSeedsNameFailingFile(t *testing.T) {
	ctx := context.Background()
	cfg := core.Default()
	dir := t.TempDir()
	records := strings.SplitAfter(churnJSONL(6), "\n")
	var seeds []string
	for i := 0; i < 3; i++ {
		res, err := Run(ctx, strings.NewReader(records[2*i]+records[2*i+1]), cfg, Plan{Options: Options{JSONL: true}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("s%d.jxsk", i))
		if err := WriteSketch(nil, res.Acc, path); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, path)
	}
	whole, err := Run(ctx, strings.NewReader(churnJSONL(6)), cfg, Plan{Options: Options{JSONL: true}})
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := WriteSketch(&want, whole.Acc, "-"); err != nil {
		t.Fatal(err)
	}
	reduced, err := Run(ctx, nil, cfg, Plan{Seeds: seeds, ReduceWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSketch(&got, reduced.Acc, "-"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("reduced seeds diverge from the whole stream's sketch")
	}

	bad := filepath.Join(dir, "bad.jxsk")
	if err := os.WriteFile(bad, []byte("not a sketch"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Run(ctx, nil, cfg, Plan{Seeds: append(seeds, bad)})
	if err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("err = %v, want it to name %s", err, bad)
	}
}
