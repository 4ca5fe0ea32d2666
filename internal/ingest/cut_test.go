package ingest

import (
	"context"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
)

// cutInputs are inputs for the range tests, read as JSONL and as
// concatenated JSON: blank lines, CRLF ends, no final newline, a line
// longer than the framer's read, empty and whitespace-only input, and the
// value shapes of FuzzValueFraming, with quotes, brackets and newlines
// inside strings.
var cutInputs = []string{
	"{\"a\":1}\n\n{\"b\":2}\n \n\n{\"c\":[3]}\n\n",
	"{\"a\":1}\r\n{\"b\":2}\r\n\r\n[4]\r\n",
	"{\"a\":1}\n{\"b\":2}\n{\"c\":3}",
	"{\"a\":1}\n{\"pad\":\"" + strings.Repeat("x", readSize+100) + "\"}\n{\"b\":2}\n[]\n",
	"",
	" \n\t\r\n  \n",
	`truefalse 01 1-2 {}{} [1][2] -0.5e+3 1E9 -12 nul`,
	`{"a":1} ] {"b":2} } [3]`,
	`"q\"" "b\\" "]" "}" ["]}\"\\"] {"k}":"[","\\":"\""} "}\n{" {"x":"]\n["}`,
	"{\n  \"a\": [\n    1,\n    {\"b\": null}\n  ],\n  \"c\": \"x\"\n}\n{\n  \"a\": []\n}\n",
	jsonl(200),
}

// recordsOf frames input with Records.
func recordsOf(t *testing.T, r io.Reader, jsonl bool) []string {
	t.Helper()
	var recs []string
	if err := Records(r, Options{JSONL: jsonl}, func(rec []byte) error {
		recs = append(recs, string(rec))
		return nil
	}); err != nil {
		t.Fatalf("Records: %v", err)
	}
	return recs
}

// boundaries returns the offsets a cut may fall at, in order: the start,
// the end, and the start of each line (JSONL) or the end of each value.
func boundaries(t *testing.T, input string, jsonl bool) []int64 {
	t.Helper()
	b := []int64{0, int64(len(input))}
	if jsonl {
		for i := range len(input) {
			if input[i] == '\n' {
				b = append(b, int64(i+1))
			}
		}
	} else {
		// Without reuse the framer keeps every byte, so bounds are offsets.
		f := &framer{r: strings.NewReader(input), n: 1}
		for {
			_, end, err := f.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			b = append(b, int64(end))
		}
	}
	slices.Sort(b)
	return slices.Compact(b)
}

// TestCutsFrameTheWholeInput checks ingest.Cuts for 1 to 8 ranges, in
// both formats: the ranges are contiguous and cover the input, each cut
// is the first record boundary at or past its quota, and the records
// framed range by range, in order, are the records of the whole input.
func TestCutsFrameTheWholeInput(t *testing.T) {
	for _, input := range cutInputs {
		size := int64(len(input))
		for _, jsonl := range []bool{true, false} {
			want := recordsOf(t, strings.NewReader(input), jsonl)
			bounds := boundaries(t, input, jsonl)
			for n := 1; n <= 8; n++ {
				cuts, err := Cuts(strings.NewReader(input), size, n, jsonl)
				if err != nil {
					t.Fatalf("JSONL %v, %d ranges of %.40q: %v", jsonl, n, input, err)
				}
				if len(cuts) != n+1 || cuts[0] != 0 || cuts[n] != size {
					t.Fatalf("JSONL %v, %d ranges of %.40q: cuts %v do not cover [0, %d)", jsonl, n, input, cuts, size)
				}
				var got []string
				for i := range n {
					quota := size * int64(i) / int64(n)
					at, _ := slices.BinarySearch(bounds, quota)
					if cuts[i] != bounds[at] {
						t.Errorf("JSONL %v, %d ranges of %.40q: cut %d at %d, want %d, the first boundary at or past %d",
							jsonl, n, input, i, cuts[i], bounds[at], quota)
					}
					got = append(got, recordsOf(t, io.NewSectionReader(strings.NewReader(input), cuts[i], cuts[i+1]-cuts[i]), jsonl)...)
				}
				if !slices.Equal(got, want) {
					t.Errorf("JSONL %v, %d ranges of %.40q: records %.200q, want %.200q", jsonl, n, input, got, want)
				}
			}
		}
	}
}

// TestRebaseNamesTheInputRecord reads each range of an input with one bad
// record through Each: the range that holds it fails, and Rebase, given
// the bytes before the range, names the record as Each does over the
// whole input, blank lines counted for JSONL. An oversized JSONL line is
// named the same way.
func TestRebaseNamesTheInputRecord(t *testing.T) {
	for _, c := range []struct {
		input string
		opts  Options
	}{
		{"{\"a\":1}\n\n{\"a\":2}\n\n\n{\"a\":3}\n{bad\n{\"a\":4}\n", Options{JSONL: true}},
		{"{\"a\":1}\n\n{\"a\":2}\n\n\n{\"a\":3}\n{\"pad\":\"xxxxxxxxxxxxxxxx\"}\n{\"a\":4}\n", Options{JSONL: true, MaxRecordBytes: 16}},
		{`{"a":1} {"a":2} "]" {"a":"}"} ] {"a":4}`, Options{}},
	} {
		run := func(r io.Reader) error {
			_, err := Each(context.Background(), r, c.opts, func(Chunk) error { return nil })
			return err
		}
		want := run(strings.NewReader(c.input))
		var re *RecordError
		if !errors.As(want, &re) {
			t.Fatalf("%q: Each: %v, want a RecordError", c.input, want)
		}
		for n := 1; n <= 8; n++ {
			cuts, err := Cuts(strings.NewReader(c.input), int64(len(c.input)), n, c.opts.JSONL)
			if err != nil {
				t.Fatal(err)
			}
			failed := 0
			for i := range n {
				err := run(io.NewSectionReader(strings.NewReader(c.input), cuts[i], cuts[i+1]-cuts[i]))
				if err == nil {
					continue
				}
				failed++
				if err = Rebase(err, io.NewSectionReader(strings.NewReader(c.input), 0, cuts[i]), c.opts.JSONL); err.Error() != want.Error() {
					t.Errorf("%q, range %d of %d: rebased %v, want %v", c.input, i, n, err, want)
				}
			}
			if failed != 1 {
				t.Errorf("%q, %d ranges: %d failed, want 1", c.input, n, failed)
			}
		}
	}
}
