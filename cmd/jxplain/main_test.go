package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `
{"ts":7,"event":"login","user":{"name":"bob","geo":[1.1,2.2]}}
{"ts":8,"event":"serve","files":["a.txt","b.txt"]}
`

// runOut runs the command with a discarded stderr.
func runOut(args []string, stdin string, out *strings.Builder) error {
	return run(args, strings.NewReader(stdin), out, &strings.Builder{})
}

func TestRunPretty(t *testing.T) {
	var out strings.Builder
	if err := runOut(nil, sample, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ts: ℝ") {
		t.Errorf("output = %q", out.String())
	}
}

func TestRunJSONSchema(t *testing.T) {
	var out strings.Builder
	if err := runOut([]string{"-format", "jsonschema"}, sample, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "json-schema.org") {
		t.Error("missing $schema header")
	}
}

func TestRunNative(t *testing.T) {
	var out strings.Builder
	if err := runOut([]string{"-format", "native"}, sample, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"node"`) {
		t.Error("missing native encoding")
	}
}

func TestRunAlgorithms(t *testing.T) {
	for _, alg := range []string{"jxplain", "bimax-naive", "k-reduce", "l-reduce"} {
		var out strings.Builder
		if err := runOut([]string{"-algorithm", alg}, sample, &out); err != nil {
			t.Errorf("%s: %v", alg, err)
		}
		if out.Len() == 0 {
			t.Errorf("%s: empty output", alg)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-algorithm", "bogus"},
		{"-format", "bogus"},
	}
	for _, args := range cases {
		if err := runOut(args, sample, &strings.Builder{}); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
	if err := runOut(nil, "", &strings.Builder{}); err == nil {
		t.Error("empty input should fail")
	}
	if err := runOut(nil, `{"a":`, &strings.Builder{}); err == nil {
		t.Error("malformed input should fail")
	}
	if err := run([]string{"/does/not/exist.jsonl"}, strings.NewReader(""), &strings.Builder{}, &strings.Builder{}); err == nil {
		t.Error("missing file should fail")
	}
}

// failingReader fails every Read, standing in for input that must not be
// touched.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("input was read") }

// TestFormatCheckedBeforeInput pins that a misspelt -format fails before
// the first read of the input, on every extractor path.
func TestFormatCheckedBeforeInput(t *testing.T) {
	for _, args := range [][]string{
		{"-format", "bogus"},
		{"-format", "bogus", "-jsonl"},
		{"-format", "bogus", "-algorithm", "k-reduce"},
		{"-format", "bogus", "-iterative", "0.5"},
	} {
		err := run(args, failingReader{}, &strings.Builder{}, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), `unknown format "bogus"`) {
			t.Errorf("%v: err = %v, want the format refused before any read", args, err)
		}
	}
}

func TestRunFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.jsonl")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{path}, strings.NewReader(""), &out, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("empty output")
	}
}

func TestJSONLFlag(t *testing.T) {
	var serial, parallel strings.Builder
	if err := runOut(nil, sample, &serial); err != nil {
		t.Fatal(err)
	}
	if err := runOut([]string{"-jsonl"}, sample, &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("jsonl decode changed the schema:\n%s\n%s", serial.String(), parallel.String())
	}
	// Line errors carry line numbers, blank lines counted.
	for input, line := range map[string]string{
		"{\"a\":1}\n{bad\n":              "line 2: ",
		"{\"a\":1}\n\n{\"a\":2}\n{bad\n": "line 4: ",
	} {
		err := runOut([]string{"-jsonl"}, input, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), line) {
			t.Errorf("%q: err = %v, want it to name %q", input, err, line)
		}
	}
}

func TestStreamingFlagsMatchDefault(t *testing.T) {
	var def strings.Builder
	if err := runOut(nil, sample, &def); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-workers", "1", "-chunk", "1"},
		{"-workers", "4", "-chunk", "1"},
		{"-workers", "3", "-chunk", "2", "-jsonl"},
	} {
		var got strings.Builder
		if err := runOut(args, sample, &got); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if got.String() != def.String() {
			t.Errorf("%v changed the schema:\n%s\n%s", args, def.String(), got.String())
		}
	}
}

func TestStatsFlag(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-stats"}, strings.NewReader(sample), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	stderr := errOut.String()
	for _, want := range []string{
		"records: 2", "schema nodes:", "entities:", "schema entropy",
		"distinct types: 2", "throughput:", "peak heap:",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stats output missing %q:\n%s", want, stderr)
		}
	}
	if strings.Contains(out.String(), "records:") {
		t.Error("stats leaked into stdout")
	}
	// -emit-sketch derives no schema, but prints every line that needs
	// none.
	errOut.Reset()
	sketch := filepath.Join(t.TempDir(), "s.jxsk")
	if err := run([]string{"-stats", "-emit-sketch", sketch, "-capacity", "16", "-window", "1", "-ring", "2"},
		strings.NewReader(sample), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	stderr = errOut.String()
	for _, want := range []string{
		"records: 2", "distinct types: 2", "reservoir: seen=2", "windows closed: 2",
		"elapsed:", "throughput:", "peak heap:",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("-emit-sketch stats output missing %q:\n%s", want, stderr)
		}
	}
	if strings.Contains(stderr, "schema nodes:") {
		t.Errorf("-emit-sketch stats output describes a schema:\n%s", stderr)
	}
	// The stats path stays quiet without the flag.
	errOut.Reset()
	if err := run(nil, strings.NewReader(sample), &strings.Builder{}, &errOut); err != nil {
		t.Fatal(err)
	}
	if errOut.Len() != 0 {
		t.Errorf("unexpected stderr output: %q", errOut.String())
	}
}

func TestIterativeFlag(t *testing.T) {
	var data strings.Builder
	for i := 0; i < 300; i++ {
		data.WriteString(`{"a":1,"b":"x"}` + "\n")
	}
	data.WriteString(`{"a":1,"b":"x","rare":true}` + "\n")
	var out strings.Builder
	if err := runOut([]string{"-iterative", "0.02"}, data.String(), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rare") {
		t.Errorf("iterative schema should cover the rare field: %q", out.String())
	}
	// The iterative report goes to the injected stderr writer.
	var errOut strings.Builder
	if err := run([]string{"-iterative", "0.02", "-stats"},
		strings.NewReader(data.String()), &strings.Builder{}, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "iterative: rounds=") {
		t.Errorf("missing iterative report: %q", errOut.String())
	}
	// Iterative only makes sense for the JXPLAIN algorithms.
	if err := runOut([]string{"-iterative", "0.02", "-algorithm", "k-reduce"},
		`{"a":1}`, &strings.Builder{}); err == nil {
		t.Error("-iterative with k-reduce should fail")
	}
}

func TestDetectionFlags(t *testing.T) {
	// Disabling array-tuple detection turns geo into a collection.
	var with, without strings.Builder
	geoSample := strings.Repeat(`{"geo":[1.5,2.5]}`+"\n", 10)
	if err := runOut(nil, geoSample, &with); err != nil {
		t.Fatal(err)
	}
	if err := runOut([]string{"-no-array-tuples"}, geoSample, &without); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(with.String(), "[ℝ, ℝ]") {
		t.Errorf("expected geo tuple: %s", with.String())
	}
	if !strings.Contains(without.String(), "[ℝ]*") {
		t.Errorf("expected geo collection: %s", without.String())
	}
}

// TestRunSketchMapReduce drives the CLI's map/reduce pair: two -emit-sketch
// runs over halves of the input, then a -merge-sketch reduce, must print
// the same schema as one run over everything.
func TestRunSketchMapReduce(t *testing.T) {
	lines := strings.Split(strings.TrimSpace(sample), "\n")
	dir := t.TempDir()
	var sketches []string
	for i, line := range lines {
		path := filepath.Join(dir, "shard"+string(rune('0'+i))+".jxsk")
		var out strings.Builder
		if err := runOut([]string{"-jsonl", "-emit-sketch", path}, line+"\n", &out); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		sketches = append(sketches, path)
	}

	var want strings.Builder
	if err := runOut(nil, sample, &want); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	args := []string{}
	for _, s := range sketches {
		args = append(args, "-merge-sketch", s)
	}
	if err := runOut(args, "", &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("reduced schema diverges\ngot:  %s\nwant: %s", got.String(), want.String())
	}
}

// TestRunSketchSeedsFurtherIngestion checks -merge-sketch composes with a
// record stream: sketch of shard 1 plus shard 2 as an input file must
// equal everything at once. (With -merge-sketch and no positional file,
// stdin is deliberately not read — a pure reduce must not block on a
// terminal — so the continuing stream arrives as a file argument.)
func TestRunSketchSeedsFurtherIngestion(t *testing.T) {
	lines := strings.Split(strings.TrimSpace(sample), "\n")
	dir := t.TempDir()
	sketchPath := filepath.Join(dir, "first.jxsk")
	var out strings.Builder
	if err := runOut([]string{"-jsonl", "-emit-sketch", sketchPath}, lines[0]+"\n", &out); err != nil {
		t.Fatal(err)
	}
	restPath := filepath.Join(dir, "rest.jsonl")
	if err := os.WriteFile(restPath, []byte(lines[1]+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := runOut([]string{"-jsonl", "-merge-sketch", sketchPath, restPath}, "", &got); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := runOut(nil, sample, &want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("seeded run diverges\ngot:  %s\nwant: %s", got.String(), want.String())
	}
}

// TestRunSketchErrors pins the flag-validation and decode failure modes.
func TestRunSketchErrors(t *testing.T) {
	var out strings.Builder
	if err := runOut([]string{"-algorithm", "k-reduce", "-emit-sketch", "x"}, sample, &out); err == nil {
		t.Error("-emit-sketch accepted for a non-streaming extractor")
	}
	if err := runOut([]string{"-iterative", "0.5", "-merge-sketch", "x"}, sample, &out); err == nil {
		t.Error("-merge-sketch accepted with -iterative")
	}
	bad := filepath.Join(t.TempDir(), "bad.jxsk")
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runOut([]string{"-merge-sketch", bad}, "", &out); err == nil {
		t.Error("garbage sketch accepted")
	}
	if err := runOut([]string{"-merge-sketch", filepath.Join(t.TempDir(), "missing.jxsk")}, "", &out); err == nil {
		t.Error("missing sketch file accepted")
	}
}

// TestRunBoundedStream exercises the sublinear-memory flags end to end:
// a churn stream under -capacity/-window/-ring/-decay still yields a
// schema, and -stats reports the reservoir and window counters.
func TestRunBoundedStream(t *testing.T) {
	var churn strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&churn, "{\"k%03d\":%d}\n", i, i)
	}
	var out, errOut strings.Builder
	err := run([]string{"-jsonl", "-stats",
		"-capacity", "16", "-window", "50", "-ring", "2", "-decay", "0.5",
		"-window-drift"},
		strings.NewReader(churn.String()), &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no schema output")
	}
	if !strings.Contains(errOut.String(), "reservoir: seen=400") {
		t.Errorf("stats missing reservoir line:\n%s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "windows closed:") {
		t.Errorf("stats missing window line:\n%s", errOut.String())
	}
}

// TestRunBoundedErrors pins the bound-flag validation.
func TestRunBoundedErrors(t *testing.T) {
	var out strings.Builder
	if err := runOut([]string{"-algorithm", "k-reduce", "-capacity", "8"}, sample, &out); err == nil {
		t.Error("-capacity accepted for a non-streaming extractor")
	}
	if err := runOut([]string{"-ring", "2"}, sample, &out); err == nil {
		t.Error("-ring accepted without -window")
	}
	if err := runOut([]string{"-window", "10", "-decay", "1.5"}, sample, &out); err == nil {
		t.Error("-decay outside (0,1) accepted")
	}
	if err := runOut([]string{"-window-drift", "-window", "10"}, sample, &out); err == nil {
		t.Error("-window-drift accepted without -ring")
	}
}
