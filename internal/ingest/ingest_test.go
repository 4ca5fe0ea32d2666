package ingest

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
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
	// JSONL errors carry line numbers.
	_, err := Each(context.Background(), strings.NewReader("{\"a\":1}\n{bad\n"), Options{JSONL: true}, func(Chunk) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v", err)
	}
	// Concatenated truncation fails too.
	_, err = Each(context.Background(), strings.NewReader(`{"a":`), Options{}, func(Chunk) error { return nil })
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

func TestEachMatchesDecodeAll(t *testing.T) {
	input := jsonl(137)
	want, err := jsontype.DecodeAll(strings.NewReader(input))
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
