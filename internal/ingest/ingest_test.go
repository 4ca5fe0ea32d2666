package ingest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"jxplain/internal/jsontype"
)

func jsonl(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"id":%d,"tag":"t%d"}`+"\n", i, i%3)
	}
	return b.String()
}

func TestEachChunksInOrder(t *testing.T) {
	for _, opts := range []Options{
		{ChunkSize: 1, Workers: 4},
		{ChunkSize: 7, Workers: 3},
		{ChunkSize: 7, Workers: 3, JSONL: true},
		{ChunkSize: 1000, Workers: 2},
		{}, // defaults
	} {
		var indices []int
		total := 0
		n, err := Each(context.Background(), strings.NewReader(jsonl(50)), opts, func(c Chunk) error {
			indices = append(indices, c.Index)
			total += c.Records
			if c.Records != c.Bag.Len() {
				t.Errorf("Records %d != Bag.Len %d", c.Records, c.Bag.Len())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if n != 50 || total != 50 {
			t.Errorf("opts %+v: n=%d total=%d", opts, n, total)
		}
		for i, idx := range indices {
			if idx != i {
				t.Errorf("opts %+v: chunk %d delivered at position %d", opts, idx, i)
			}
		}
	}
}

func TestEachDeduplicatesWithinChunk(t *testing.T) {
	input := strings.Repeat(`{"a":1}`+"\n", 40)
	_, err := Each(context.Background(), strings.NewReader(input), Options{ChunkSize: 40, Workers: 2}, func(c Chunk) error {
		if c.Bag.Distinct() != 1 || c.Bag.Len() != 40 {
			t.Errorf("distinct=%d len=%d", c.Bag.Distinct(), c.Bag.Len())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEachConcatenatedAndBlankLines(t *testing.T) {
	input := "{\"a\":1} {\"a\":2}\n\n  \n[1,2] \"s\" 3 true null"
	total, err := Each(context.Background(), strings.NewReader(input), Options{ChunkSize: 2, Workers: 2}, func(Chunk) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if total != 7 {
		t.Errorf("total = %d, want 7", total)
	}
}

func TestEachDecodeErrors(t *testing.T) {
	// JSONL errors carry line numbers, blank lines counted.
	for input, line := range map[string]string{
		"{\"a\":1}\n{bad\n":                     "line 2: ",
		"{\"a\":1}\n\n\n{bad\n":                 "line 4: ",
		"\n{\"a\":1}\n \r\n{\"a\":2}\n\n{bad\n": "line 6: ",
	} {
		for _, chunk := range []int{1, 2, 0} {
			_, err := Each(context.Background(), strings.NewReader(input), Options{JSONL: true, ChunkSize: chunk}, func(Chunk) error { return nil })
			if err == nil || !strings.HasPrefix(err.Error(), line) {
				t.Errorf("%q, chunk %d: err = %v, want %q…", input, chunk, err, line)
			}
		}
	}
	// Concatenated truncation fails too.
	_, err := Each(context.Background(), strings.NewReader(`{"a":`), Options{}, func(Chunk) error { return nil })
	if err == nil {
		t.Error("truncated input should fail")
	}
}

// TestOversizedRecordNamesItsLine feeds an 80-byte record on line 3 to
// both JSONL framers under a 64-byte cap: the error must name the line
// and the cap, and still wrap bufio.ErrTooLong.
func TestOversizedRecordNamesItsLine(t *testing.T) {
	long := `{"k":"` + strings.Repeat("x", 72) + `"}`
	if len(long) != 80 {
		t.Fatalf("record is %d bytes, want 80", len(long))
	}
	input := "{\"a\":1}\n{\"a\":2}\n" + long + "\n{\"a\":3}\n"
	opts := Options{JSONL: true, MaxRecordBytes: 64}
	_, eachErr := Each(context.Background(), strings.NewReader(input), opts, func(Chunk) error { return nil })
	recordsErr := Records(strings.NewReader(input), opts, func([]byte) error { return nil })
	for _, c := range []struct {
		name string
		err  error
	}{{"Each", eachErr}, {"Records", recordsErr}} {
		name, err := c.name, c.err
		if err == nil {
			t.Fatalf("%s: oversized record accepted", name)
		}
		if !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("%s: error %q does not wrap bufio.ErrTooLong", name, err)
		}
		if !strings.HasPrefix(err.Error(), "line 3: record exceeds 64 bytes: ") {
			t.Errorf("%s: error %q does not name line 3 and the 64-byte cap", name, err)
		}
	}
}

// TestNestingBoundNamesItsLine feeds JSONL records nested 10,000,
// 10,001 and 10⁶ levels deep. The first is a record like any other; the
// others fail with the scanner's depth error on their own line instead of
// overflowing the stack.
func TestNestingBoundNamesItsLine(t *testing.T) {
	deep := func(depth int) string { return strings.Repeat("[", depth) + strings.Repeat("]", depth) }
	n, err := Each(context.Background(), strings.NewReader("{\"a\":1}\n"+deep(10000)+"\n"), Options{JSONL: true}, func(Chunk) error { return nil })
	if err != nil || n != 2 {
		t.Fatalf("depth 10000: %d records, %v", n, err)
	}
	for _, depth := range []int{10001, 1000000} {
		input := "{\"a\":1}\n{\"a\":2}\n" + deep(depth) + "\n{\"a\":3}\n"
		_, err := Each(context.Background(), strings.NewReader(input), Options{JSONL: true}, func(Chunk) error { return nil })
		if want := "line 3: jsontype: nesting exceeds 10000 levels at offset 10000"; err == nil || err.Error() != want {
			t.Errorf("depth %d: err = %v, want %q", depth, err, want)
		}
	}
}

func TestEachCallbackError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	_, err := Each(context.Background(), strings.NewReader(jsonl(100)), Options{ChunkSize: 5, Workers: 4}, func(Chunk) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	if calls != 1 {
		t.Errorf("callback called %d times after error", calls)
	}
}

// endlessReader yields records forever, so only cancellation can stop
// ingestion.
type endlessReader struct{ i int }

func (e *endlessReader) Read(p []byte) (int, error) {
	rec := []byte(fmt.Sprintf(`{"id":%d}`+"\n", e.i))
	e.i++
	n := copy(p, rec)
	return n, nil
}

func TestEachCancellationStopsPromptlyWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Each(ctx, &endlessReader{}, Options{ChunkSize: 64, Workers: 4}, func(Chunk) error { return nil })
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not abort ingestion promptly")
	}

	// Goroutines wind down after Each returns.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestEachPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Each(ctx, strings.NewReader(jsonl(10)), Options{}, func(Chunk) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestEachEmptyInput(t *testing.T) {
	n, err := Each(context.Background(), strings.NewReader(""), Options{}, func(Chunk) error {
		t.Error("no chunks expected")
		return nil
	})
	if err != nil || n != 0 {
		t.Errorf("n=%d err=%v", n, err)
	}
}

func TestEachMatchesTypes(t *testing.T) {
	input := jsonl(137)
	want, err := Types(strings.NewReader(input), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantBag := jsontype.NewBag(want...)

	got := &jsontype.Bag{}
	_, err = Each(context.Background(), strings.NewReader(input), Options{ChunkSize: 10, Workers: 4}, func(c Chunk) error {
		got.Merge(c.Bag)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != wantBag.Len() || got.Distinct() != wantBag.Distinct() {
		t.Fatalf("merged bag %d/%d, want %d/%d", got.Len(), got.Distinct(), wantBag.Len(), wantBag.Distinct())
	}
	// Insertion order of distinct types must match the sequential decode,
	// the property downstream determinism rests on.
	for i, ty := range wantBag.Types() {
		if got.Types()[i].Canon() != ty.Canon() {
			t.Fatalf("distinct type %d out of order", i)
		}
	}
}

// readers wraps input in readers that return it whole, one byte per Read
// and half of each request per Read.
var readers = []struct {
	name string
	wrap func(string) io.Reader
}{
	{"whole", func(s string) io.Reader { return strings.NewReader(s) }},
	{"one byte", func(s string) io.Reader { return iotest.OneByteReader(strings.NewReader(s)) }},
	{"half", func(s string) io.Reader { return iotest.HalfReader(strings.NewReader(s)) }},
}

// framed returns the records Records passes to fn, and checks that Each,
// at every chunk size given, sees the same records: each chunk but the
// last holds exactly ChunkSize of them, and its bag is theirs.
func framed(t *testing.T, input string, wrap func(string) io.Reader, opts Options, chunks ...int) []string {
	t.Helper()
	var recs []string
	err := Records(wrap(input), opts, func(rec []byte) error {
		recs = append(recs, string(rec))
		return nil
	})
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	for _, size := range chunks {
		opts := opts
		opts.ChunkSize, opts.Workers = size, 3
		next := 0
		_, err := Each(context.Background(), wrap(input), opts, func(c Chunk) error {
			if c.Records != size && next+c.Records != len(recs) {
				t.Errorf("chunk %d of %d records holds %d records", c.Index, size, c.Records)
			}
			want := &jsontype.Bag{}
			for _, rec := range recs[next:min(next+c.Records, len(recs))] {
				ty, err := jsontype.FromJSON([]byte(rec))
				if err != nil {
					t.Fatalf("record %q: %v", rec, err)
				}
				want.Add(ty)
			}
			if !sameBag(c.Bag, want) {
				t.Errorf("chunk %d of %d records: bag differs from Records' records %d..%d", c.Index, size, next, next+c.Records)
			}
			next += c.Records
			return nil
		})
		if err != nil {
			t.Fatalf("Each, chunks of %d: %v", size, err)
		}
		if next != len(recs) {
			t.Errorf("Each, chunks of %d: %d records, Records framed %d", size, next, len(recs))
		}
	}
	return recs
}

// sameBag reports whether two bags hold the same types, in the same
// order, with the same counts.
func sameBag(a, b *jsontype.Bag) bool {
	if a.Len() != b.Len() || a.Distinct() != b.Distinct() {
		return false
	}
	for i, ty := range a.Types() {
		if b.Types()[i] != ty || a.Count(i) != b.Count(i) {
			return false
		}
	}
	return true
}

// TestLineFraming drives the JSONL framer through line ends, blank lines
// and readers that return little at a time. Records gets each record
// without its "\n" or "\r\n", skipping lines that are blank or hold only
// whitespace, and Each sees the same records in chunks of every size.
func TestLineFraming(t *testing.T) {
	for _, c := range []struct {
		input string
		want  []string
	}{
		{"{\"a\":1}\r\n{\"b\":2}\r\n", []string{`{"a":1}`, `{"b":2}`}},
		{"{\"a\":1}\n[2,3]", []string{`{"a":1}`, `[2,3]`}},
		{"{\"a\":1}\r\n\"x\"\r", []string{`{"a":1}`, `"x"`}},
		{"  \n\t\n{\"a\":1}\n \r\n\r\n\n {\"b\":[]} \n\v\n\n", []string{`{"a":1}`, ` {"b":[]} `}},
		{"\n \n", nil},
		{"", nil},
		{jsonl(300), strings.Split(strings.TrimSuffix(jsonl(300), "\n"), "\n")},
	} {
		for _, r := range readers {
			got := framed(t, c.input, r.wrap, Options{JSONL: true}, 1, 2, 7, 2048)
			if strings.Join(got, "|") != strings.Join(c.want, "|") {
				t.Errorf("%s reader, %q: records %q, want %q", r.name, c.input, got, c.want)
			}
		}
	}
}

// scannerLines frames data the way a bufio.Scanner over ScanLines does,
// capped at limit bytes per line: the reference for the JSONL framer. It
// returns the non-blank lines, their 1-based line numbers, and the error
// naming the first line that is too long.
func scannerLines(data []byte, limit int) (recs []string, lines []int, err error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, min(readSize, limit)), limit)
	line := 0
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			recs, lines = append(recs, sc.Text()), append(lines, line)
		}
	}
	if sc.Err() != nil {
		err = fmt.Errorf("line %d: record exceeds %d bytes: %w", line+1, limit, sc.Err())
	}
	return recs, lines, err
}

// FuzzLineFraming checks the JSONL framer against bufio.Scanner on
// arbitrary input and line caps: Records must pass the same records and
// fail with the same error. Where every line fits, Each must count the
// same records, and where exactly one of them is not JSON, name its line.
func FuzzLineFraming(f *testing.F) {
	for _, s := range []string{
		"{\"a\":1}\n{\"b\":2}", "{\"a\":1}\r\n\r\n \t\n[1]\r", "\n\n{bad\n{}\n", "\r", "\v\n\u00a0\n1",
		"{\"k\":\"xxxxxxxx\"}\n[]\n", strings.Repeat("{}\n", 10) + "{",
	} {
		f.Add([]byte(s), uint8(0))
		f.Add([]byte(s), uint8(5))
	}
	f.Fuzz(func(t *testing.T, data []byte, maxRecord uint8) {
		opts := Options{JSONL: true, MaxRecordBytes: int(maxRecord)}
		limit := opts.withDefaults().MaxRecordBytes
		want, lines, wantErr := scannerLines(data, limit)
		var got []string
		err := Records(bytes.NewReader(data), opts, func(rec []byte) error {
			got = append(got, string(rec))
			return nil
		})
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
			t.Fatalf("Records: %q, %v; bufio.Scanner: %q, %v", got, err, want, wantErr)
		}
		if wantErr != nil {
			return
		}
		bad := -1
		for i, rec := range want {
			if _, err := jsontype.FromJSON([]byte(rec)); err != nil {
				if bad >= 0 {
					return // which error Each reports is not fixed
				}
				bad = i
			}
		}
		opts.ChunkSize, opts.Workers = 3, 2
		n, err := Each(context.Background(), bytes.NewReader(data), opts, func(Chunk) error { return nil })
		switch {
		case bad < 0 && (err != nil || n != len(want)):
			t.Fatalf("Each: %d records, %v; want %d", n, err, len(want))
		case bad >= 0 && (err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("line %d: ", lines[bad]))):
			t.Fatalf("Each: %v; want an error on line %d", err, lines[bad])
		}
	})
}

// decoderValues returns the raw values json.Decoder reads from data, and
// whether it reads all of data to io.EOF without an error.
func decoderValues(data []byte) ([]string, bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var vals []string
	for {
		var raw json.RawMessage
		switch err := dec.Decode(&raw); err {
		case nil:
			vals = append(vals, string(raw))
		case io.EOF:
			return vals, true
		default:
			return nil, false
		}
	}
}

// FuzzValueFraming checks the value framer against json.Decoder. On input
// that json.Decoder reads to its end without an error, Records must pass
// the raw values it reads, whole or a little at a time, Each must see
// their types at every chunk size, and Types must return them in order.
// On any other input, Records, Each and Types must return.
func FuzzValueFraming(f *testing.F) {
	for _, s := range []string{
		`{}{}`, `truefalse`, `1"a"`, `01`, `[1][2]`, `-0.5e+3 1E9 -12`, `nul`, `{"a":1} ] {"b":2}`,
		`"q\"" "b\\" "]" "}" ["]}\"\\"] {"k}":"[","\\":"\""}`,
		"{\n  \"a\": [\n    1,\n    {\"b\": null}\n  ],\n  \"c\": \"x\"\n}\n{\n  \"a\": []\n}\n",
		strings.Repeat(" ", readSize-3) + "123456.75e-1",
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, ok := decoderValues(data)
		if !ok {
			_ = Records(bytes.NewReader(data), Options{}, func([]byte) error { return nil })
			_, _ = Each(context.Background(), bytes.NewReader(data), Options{ChunkSize: 2, Workers: 2}, func(Chunk) error { return nil })
			_, _ = Types(bytes.NewReader(data), Options{})
			return
		}
		for _, r := range readers {
			got := framed(t, string(data), r.wrap, Options{}, 1, 2, 2048)
			if !slices.Equal(got, want) {
				t.Fatalf("%s reader: Records passed %q, json.Decoder read %q", r.name, got, want)
			}
		}
		types, err := Types(bytes.NewReader(data), Options{})
		if err != nil || len(types) != len(want) {
			t.Fatalf("Types: %d types, %v; want %d", len(types), err, len(want))
		}
		for i, v := range want {
			if ty, err := jsontype.FromJSON([]byte(v)); err != nil || types[i] != ty {
				t.Fatalf("Types: record %d is %v, want FromJSON(%q) = %v, %v", i+1, types[i], v, ty, err)
			}
		}
	})
}

// TestLineFramingSizeCap pins the edge of the record size cap: with or
// without a newline after it, a record of MaxRecordBytes-1 bytes is read
// and one of MaxRecordBytes bytes is an error naming its line. The cap
// exceeds the framer's read size, so the record spans reads, and with
// one-record chunks it starts in the tail that moves from the first block
// into the next.
func TestLineFramingSizeCap(t *testing.T) {
	const limit = readSize + 1000
	record := func(n int) string { return `{"k":"` + strings.Repeat("x", n-8) + `"}` }
	opts := Options{JSONL: true, MaxRecordBytes: limit}
	for _, end := range []string{"\n", "\r\n", ""} {
		for _, r := range readers {
			input := "{\"a\":1}\n" + record(limit-1-len(end)+len(strings.TrimPrefix(end, "\r"))) + end
			if got := framed(t, input, r.wrap, opts, 1, 2); len(got) != 2 {
				t.Errorf("%s reader, end %q: %d records, want 2", r.name, end, len(got))
			}
			input = "{\"a\":1}\n" + record(limit-len(end)+len(strings.TrimPrefix(end, "\r"))) + end
			eachErr := func() error {
				_, err := Each(context.Background(), r.wrap(input), Options{JSONL: true, MaxRecordBytes: limit, ChunkSize: 1}, func(Chunk) error { return nil })
				return err
			}()
			recordsErr := Records(r.wrap(input), opts, func([]byte) error { return nil })
			for name, err := range map[string]error{"Each": eachErr, "Records": recordsErr} {
				want := fmt.Sprintf("line 2: record exceeds %d bytes: ", limit)
				if !errors.Is(err, bufio.ErrTooLong) || !strings.HasPrefix(err.Error(), want) {
					t.Errorf("%s, %s reader, end %q: err = %v, want %q… wrapping bufio.ErrTooLong", name, r.name, end, err, want)
				}
			}
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestEachDoesNotCopyRecords pins that records alias the blocks they were
// read into, as JSONL lines and as concatenated values: once the pooled
// scanners are warm, ingesting 16 MiB of short records with two workers
// allocates under a quarter of the input's bytes (the chunks' bags and the
// blocks themselves), where a copy per record alone would allocate more
// than the input.
func TestEachDoesNotCopyRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scanners at random under -race")
	}
	for _, jsonl := range []bool{true, false} {
		sep := " "
		if jsonl {
			sep = "\n"
		}
		var b strings.Builder
		for i := 0; b.Len() < 16<<20; i++ {
			fmt.Fprintf(&b, `{"id":%d,"name":"user-%d","active":true}`+sep, i, i%1000)
		}
		input := b.String()
		opts := Options{Workers: 2, JSONL: jsonl}
		ingest := func() {
			if _, err := Each(context.Background(), strings.NewReader(input), opts, func(Chunk) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		ingest()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ingest()
		runtime.ReadMemStats(&after)
		allocated := after.TotalAlloc - before.TotalAlloc
		t.Logf("JSONL %v: Each allocated %d bytes for a %d-byte input (%.3f per byte)", jsonl, allocated, len(input), float64(allocated)/float64(len(input)))
		if limit := uint64(len(input)) / 4; allocated > limit {
			t.Errorf("JSONL %v: Each allocated %d bytes for a %d-byte input (limit %d); records are being copied", jsonl, allocated, len(input), limit)
		}
	}
}

// TestEachBlocksFollowBytesRead pins that a block grows to at most
// maxGrowth times the bytes read into it, whatever its first records
// predict: a chunk whose first record is a long line and whose other
// 2,047 records are short predicts a block of 2,048 long lines, yet Each
// allocates under 12 bytes per input byte (up to 8 in the block, plus the
// buffers it grew from and the next block), with such a chunk first in
// the stream and after a chunk of short records.
func TestEachBlocksFollowBytesRead(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scanners at random under -race")
	}
	long := func(n int) string { return `{"pad":"` + strings.Repeat("x", n) + `"}` + "\n" }
	short := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `{"id":%d,"name":"user-%d","active":true}`+"\n", i, i%1000)
		}
		return b.String()
	}
	for _, input := range []string{long(60_000) + short(2047), short(2048) + long(200_000) + short(2047)} {
		ingest := func() {
			n, err := Each(context.Background(), strings.NewReader(input), Options{Workers: 2, JSONL: true}, func(Chunk) error { return nil })
			if err != nil || n != strings.Count(input, "\n") {
				t.Fatalf("Each: %d records, %v", n, err)
			}
		}
		ingest()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ingest()
		runtime.ReadMemStats(&after)
		allocated := after.TotalAlloc - before.TotalAlloc
		t.Logf("Each allocated %d bytes for a %d-byte input (%.2f per byte)", allocated, len(input), float64(allocated)/float64(len(input)))
		if limit := 12 * uint64(len(input)); allocated > limit {
			t.Errorf("Each allocated %d bytes for a %d-byte input (limit %d)", allocated, len(input), limit)
		}
	}
}
