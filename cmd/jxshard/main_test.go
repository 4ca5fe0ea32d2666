package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"jxplain/internal/core"
	"jxplain/internal/dataset"
	"jxplain/internal/jsontype"
)

// TestMain lets the test binary stand in for the jxshard executable: the
// run driver spawns os.Executable() for its map phase, which under `go
// test` is this binary. Worker invocations carry JXSHARD_WORKER_PROCESS
// in the environment and are dispatched straight into run().
func TestMain(m *testing.M) {
	if os.Getenv("JXSHARD_WORKER_PROCESS") != "" {
		if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "jxshard:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// datasetJSONL renders a generator's records as JSONL, matching the
// record set behind testdata/golden (300 records, seed 1).
func datasetJSONL(t *testing.T, g *dataset.Generator, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, rec := range g.Generate(n, 1) {
		data, err := json.Marshal(rec.Value)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func goldenSchema(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".schema.json"))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestShardRunByteIdentical is the acceptance check for the scale-out
// driver: `jxshard run` over four real map worker processes must produce
// the golden single-process schema, byte for byte, on every dataset.
func TestShardRunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes per dataset")
	}
	for _, g := range dataset.Registry() {
		input := filepath.Join(t.TempDir(), "input.jsonl")
		if err := os.WriteFile(input, datasetJSONL(t, g, 300), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := run([]string{"run", "-shards", "4", "-jsonl", "-format", "native", input},
			nil, &out, os.Stderr)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if want := goldenSchema(t, g.Name); !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: 4-shard schema diverges from golden\ngot:  %s\nwant: %s",
				g.Name, out.Bytes(), want)
		}
	}
}

// TestShardMapReduceGoldenUnevenShards drives the map and reduce phases
// separately: each dataset is cut into three deliberately uneven
// contiguous shards (≈1:2:3), each folded by its own map worker process,
// and the reduced schema must still match the golden byte for byte —
// shard boundaries carry no signal.
func TestShardMapReduceGoldenUnevenShards(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes per dataset")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range dataset.Registry() {
		dir := t.TempDir()
		lines := bytes.SplitAfter(datasetJSONL(t, g, 300), []byte("\n"))
		if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
			lines = lines[:len(lines)-1]
		}
		// Cut points at 1/6 and 3/6: shard sizes 50, 100, 150 of 300.
		cuts := []int{len(lines) / 6, len(lines) / 2, len(lines)}
		start := 0
		var sketches []string
		for i, end := range cuts {
			shardPath := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
			sketchPath := filepath.Join(dir, fmt.Sprintf("shard%d.jxsk", i))
			if err := os.WriteFile(shardPath, bytes.Join(lines[start:end], nil), 0o644); err != nil {
				t.Fatal(err)
			}
			start = end
			cmd := exec.Command(exe, "map", "-jsonl", "-o", sketchPath, shardPath)
			cmd.Env = append(os.Environ(), "JXSHARD_WORKER_PROCESS=1")
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%s: map worker %d: %v\n%s", g.Name, i, err, out)
			}
			sketches = append(sketches, sketchPath)
		}
		var out bytes.Buffer
		args := append([]string{"reduce", "-format", "native"}, sketches...)
		if err := run(args, nil, &out, os.Stderr); err != nil {
			t.Fatalf("%s: reduce: %v", g.Name, err)
		}
		if want := goldenSchema(t, g.Name); !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: uneven-shard schema diverges from golden\ngot:  %s\nwant: %s",
				g.Name, out.Bytes(), want)
		}
	}
}

// TestShardRunConcatenatedJSON exercises the non-JSONL framing path and
// empty-shard tolerance: more shards than distinct record boundaries in
// one shard's slice is fine.
func TestShardRunConcatenatedJSON(t *testing.T) {
	g, ok := dataset.ByName("github")
	if !ok {
		t.Fatal("github dataset missing")
	}
	var concat bytes.Buffer
	for _, rec := range g.Generate(40, 1) {
		data, err := json.Marshal(rec.Value)
		if err != nil {
			t.Fatal(err)
		}
		concat.Write(data)
	}
	input := filepath.Join(t.TempDir(), "input.json")
	if err := os.WriteFile(input, concat.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var want bytes.Buffer
	if err := run([]string{"run", "-shards", "1", "-format", "native", input}, nil, &want, os.Stderr); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"run", "-shards", "8", "-format", "native", input}, nil, &got, os.Stderr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("8-shard concatenated-JSON schema diverges from 1-shard\ngot:  %s\nwant: %s",
			got.Bytes(), want.Bytes())
	}
}

// TestShardRunStdinSpool drives run with a non-seekable stdin, covering
// the spool path that sizes the byte quotas, and requires the same golden
// schema as the file-backed run.
func TestShardRunStdinSpool(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g, ok := dataset.ByName("twitter")
	if !ok {
		t.Fatal("twitter dataset missing")
	}
	var out bytes.Buffer
	err := run([]string{"run", "-shards", "3", "-jsonl", "-format", "native"},
		bytes.NewReader(datasetJSONL(t, g, 300)), &out, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenSchema(t, g.Name); !bytes.Equal(out.Bytes(), want) {
		t.Errorf("stdin-fed schema diverges from golden\ngot:  %s\nwant: %s", out.Bytes(), want)
	}
}

// TestShardRunSpoolCleanup injects a failing map worker — malformed
// JSONL arriving over non-seekable stdin, so the input takes the spool
// path — and asserts the run leaves nothing behind in TMPDIR: the spool
// file and the shard scratch directory must be released on the error
// path, not only on success.
func TestShardRunSpoolCleanup(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	bad := "{\"ok\":1}\nthis is not json\n{\"ok\":2}\n"
	var out bytes.Buffer
	err := run([]string{"run", "-shards", "2", "-jsonl", "-format", "native"},
		strings.NewReader(bad), &out, io.Discard)
	if err == nil {
		t.Fatal("run succeeded on malformed JSONL; the test needs a failing worker")
	}
	entries, readErr := os.ReadDir(tmp)
	if readErr != nil {
		t.Fatal(readErr)
	}
	for _, e := range entries {
		t.Errorf("leftover %s in TMPDIR after failed run", e.Name())
	}
}

// TestShardRunReduceWorkers pins that the parallel tree reduce leaves the
// output byte-identical to the sequential fold from the CLI surface too.
func TestShardRunReduceWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g, _ := dataset.ByName("github")
	input := filepath.Join(t.TempDir(), "input.jsonl")
	if err := os.WriteFile(input, datasetJSONL(t, g, 300), 0o644); err != nil {
		t.Fatal(err)
	}
	var seq, par bytes.Buffer
	if err := run([]string{"run", "-shards", "8", "-reduce-workers", "1", "-jsonl", "-format", "native", input},
		nil, &seq, os.Stderr); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", "-shards", "8", "-reduce-workers", "4", "-jsonl", "-format", "native", input},
		nil, &par, os.Stderr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(par.Bytes(), seq.Bytes()) {
		t.Errorf("-reduce-workers 4 schema diverges from sequential reduce\ngot:  %s\nwant: %s",
			par.Bytes(), seq.Bytes())
	}
}

// TestShardRunStreamsInput is the io.ReadAll regression guard: the driver
// must hold O(record) memory, not O(corpus). It feeds a ~16 MiB file
// through run and asserts the driver process allocates well under the
// input size in total — the old slurping driver allocated at least 2×
// (one io.ReadAll copy plus the per-record slices), so the bound fails
// loudly if whole-corpus buffering ever returns.
func TestShardRunStreamsInput(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	input := filepath.Join(t.TempDir(), "big.jsonl")
	f, err := os.Create(input)
	if err != nil {
		t.Fatal(err)
	}
	line := []byte(`{"id":1,"name":"` + string(bytes.Repeat([]byte{'x'}, 200)) + `","tags":["a","b"]}` + "\n")
	const targetBytes = 16 << 20
	var size int64
	for size < targetBytes {
		n, err := f.Write(line)
		if err != nil {
			t.Fatal(err)
		}
		size += int64(n)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var out bytes.Buffer
	if err := run([]string{"run", "-shards", "4", "-jsonl", "-format", "native", input},
		nil, &out, os.Stderr); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("driver allocated %d bytes for a %d-byte input", allocated, size)
	if limit := uint64(size) / 4; allocated > limit {
		t.Errorf("driver allocated %d bytes for a %d-byte input (limit %d); run is buffering the corpus again",
			allocated, size, limit)
	}
	if out.Len() == 0 {
		t.Error("no schema produced")
	}
}

// TestMapWritesSketchToStdout checks that `map -o -` writes its sketch to
// the writer it was given, byte-identical to core's marshal of the same
// records.
func TestMapWritesSketchToStdout(t *testing.T) {
	input := datasetJSONL(t, dataset.GitHub(), 300)
	var out bytes.Buffer
	if err := run([]string{"map", "-jsonl", "-o", "-"}, bytes.NewReader(input), &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	types, err := jsontype.DecodeAll(bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	acc := core.NewAccumulator(core.Default())
	acc.AddBag(jsontype.NewBag(types...))
	want, err := acc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("map -o - wrote %d bytes, want core's %d-byte sketch", out.Len(), len(want))
	}
}

// failingReader fails every Read, standing in for input that must not be
// touched.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("input was read") }

// TestShardCLIErrors pins the user-facing failure modes.
func TestShardCLIErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"frobnicate"},
		{"map"},    // missing -o
		{"reduce"}, // no sketch files
		{"reduce", "-algorithm", "k-reduce", "x.jxsk"}, // unsupported extractor
		{"run", "-shards", "0"},
	}
	for _, args := range cases {
		if err := run(args, bytes.NewReader(nil), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}

	// A misspelt -format fails before any input or sketch file is read:
	// run would spool the failing stdin and start map workers, reduce
	// would read the missing sketch.
	for _, args := range [][]string{
		{"run", "-format", "bogus"},
		{"reduce", "-format", "bogus", filepath.Join(t.TempDir(), "missing.jxsk")},
	} {
		err := run(args, failingReader{}, &bytes.Buffer{}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), `unknown format "bogus"`) {
			t.Errorf("%v: err = %v, want the format refused before any read", args, err)
		}
	}

	// A reduce over garbage sketch bytes must surface the typed decode
	// error, not a panic.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jxsk")
	if err := os.WriteFile(bad, []byte("not a sketch"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"reduce", bad}, nil, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("reduce accepted garbage sketch file")
	}
}
