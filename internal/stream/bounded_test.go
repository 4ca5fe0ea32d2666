package stream

import (
	"bytes"
	"context"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"jxplain/internal/core"
	"jxplain/internal/drift"
	"jxplain/internal/ingest"
	"jxplain/internal/jsontype"
)

// churnBounds are the bounds of the bench's churn workload.
var churnBounds = core.Bounds{ReservoirCapacity: 64, WindowRecords: 1000, WindowCount: 4, DecayFactor: 0.5}

// churnReader streams JSONL records [i, to) of a churn stream in the
// bench's churn shape: a stable service tuple beside a session key that
// never repeats, whose value is structurally constant. Record i depends
// on i alone, so a range can be read in parts. From record shift on, the
// service tuple carries one more field, so windows see a path appear.
// With nested set, the session key sits one level down, under "sessions",
// so each record brings a new type below the root as well as at it; with
// carried set too, the record also repeats the previous record's sessions
// object under "prev", so each new root holds a type made a record before.
type churnReader struct {
	i, to, shift    int
	nested, carried bool
	buf, rest       []byte
}

func (r *churnReader) Read(p []byte) (int, error) {
	for len(r.rest) == 0 {
		if r.i >= r.to {
			return 0, io.EOF
		}
		r.buf = r.record(r.buf[:0], r.i)
		r.rest = r.buf
		r.i++
	}
	n := copy(p, r.rest)
	r.rest = r.rest[n:]
	return n, nil
}

func (r *churnReader) record(b []byte, i int) []byte {
	b = append(b, `{"service":{"region":"eu-`...)
	b = strconv.AppendInt(b, int64(i%3), 10)
	b = append(b, `","build":`...)
	b = strconv.AppendInt(b, int64(i%7), 10)
	b = append(b, `,"flags":[true,false],"limits":{"cpu":`...)
	b = strconv.AppendFloat(b, 0.5+float64(i%8)/2, 'f', 1, 64)
	b = append(b, `,"mem":4.0}`...)
	if i >= r.shift {
		b = append(b, `,"zone":{"az":"b"}`...)
	}
	b = append(b, `},`...)
	if r.nested {
		b = append(b, `"sessions":{`...)
	}
	b = session(b, i)
	if r.nested {
		b = append(b, '}')
	}
	if r.carried {
		b = append(b, `,"prev":{`...)
		b = append(session(b, i-1), '}')
	}
	return append(b, "}\n"...)
}

// session appends record i's session field.
func session(b []byte, i int) []byte {
	// i*2654435761 mod 2³² is a bijection, so no session key repeats.
	b = append(b, `"sess_`...)
	b = strconv.AppendUint(b, uint64(uint32(i)*2654435761), 16)
	b = append(b, `":{"hits":`...)
	b = strconv.AppendInt(b, int64(i%1000), 10)
	b = append(b, `,"geo":[`...)
	b = strconv.AppendInt(b, int64(i%90), 10)
	return append(b, `.0,2.0],"tags":{"env":"prod"}}`...)
}

// gcFolder collects garbage before it folds each chunk.
type gcFolder struct{ acc *core.Accumulator }

func (f gcFolder) AddBag(b *jsontype.Bag) {
	runtime.GC()
	f.acc.AddBag(b)
}

// TestBoundedFoldUnderGCPressure folds a churn stream under the churn
// bounds with the collector off, at GOGC=1, and with a full collection
// before every chunk. The interner's entries are weak, so under pressure
// types that nothing holds are collected and made again with fresh ids;
// the schema, the rollup sketch and the drift events must not change.
func TestBoundedFoldUnderGCPressure(t *testing.T) {
	const n = 8000
	cfg := core.Default()
	cfg.Bounds = churnBounds
	fold := func(gcEachChunk bool) (schemaBytes, sketch []byte, events []string) {
		acc := core.NewAccumulator(cfg)
		drift.NewWindowMonitor(cfg).Bind(acc, func(ev *drift.WindowEvent) { events = append(events, ev.String()) })
		var into ingest.BagFolder = acc
		if gcEachChunk {
			into = gcFolder{acc}
		}
		opts := ingest.Options{ChunkSize: 1000, Workers: 2, JSONL: true}
		if _, err := ingest.Fold(context.Background(), &churnReader{to: n, shift: n / 2}, opts, into); err != nil {
			t.Fatal(err)
		}
		var s, k bytes.Buffer
		if err := WriteSchema(&s, acc.Finish(), "native"); err != nil {
			t.Fatal(err)
		}
		if err := WriteSketch(&k, acc, "-"); err != nil {
			t.Fatal(err)
		}
		return s.Bytes(), k.Bytes(), events
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	wantSchema, wantSketch, wantEvents := fold(false)
	if len(wantEvents) == 0 {
		t.Fatal("the stream raised no drift event to compare")
	}
	check := func(name string, gcEachChunk bool) {
		schemaBytes, sketch, events := fold(gcEachChunk)
		if !bytes.Equal(schemaBytes, wantSchema) {
			t.Errorf("%s: schema differs from the fold without GC", name)
		}
		if !bytes.Equal(sketch, wantSketch) {
			t.Errorf("%s: sketch differs from the fold without GC", name)
		}
		if len(events) != len(wantEvents) {
			t.Errorf("%s: %d drift events, want %d", name, len(events), len(wantEvents))
			return
		}
		for i := range events {
			if events[i] != wantEvents[i] {
				t.Errorf("%s: drift event %d is %q, want %q", name, i, events[i], wantEvents[i])
			}
		}
	}
	debug.SetGCPercent(1)
	check("GOGC=1", false)
	debug.SetGCPercent(100)
	check("GC before each chunk", true)
}

// TestBoundedHeapFlat streams the churn shape through the scanner and the
// accumulator under the churn bounds, with the drift monitor bound, and
// holds the heap in use after collection at 256k records to 1.5× its size
// at 32k. Every record brings a new session key and a new root type, so a
// type interner that kept every type would grow the heap with the stream.
// In the nested case the new key sits one level down, so each new root
// holds a new child, and in the carried case it also holds the previous
// record's: an interner that frees a type only with the types made beside
// it, which hold their own children, must not let a held type keep a chain
// of earlier records alive through them. Two collections empty the
// scanner pool, so the figure is the state the stream keeps, not the
// number of pooled scanners that happened to survive; TestKeyTableCapped
// bounds what a scanner's key table holds.
func TestBoundedHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 256k records")
	}
	for _, c := range []struct {
		name            string
		nested, carried bool
	}{{"root key", false, false}, {"nested key", true, false}, {"carried key", true, true}} {
		t.Run(c.name, func(t *testing.T) {
			testBoundedHeapFlat(t, &churnReader{shift: math.MaxInt, nested: c.nested, carried: c.carried})
		})
	}
}

func testBoundedHeapFlat(t *testing.T, shape *churnReader) {
	const ceiling = 1.5
	cfg := core.Default()
	cfg.Bounds = churnBounds
	acc := core.NewAccumulator(cfg)
	drift.NewWindowMonitor(cfg).Bind(acc, func(*drift.WindowEvent) {})
	inUse := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapInuse) / (1 << 20)
	}
	heap := map[int]float64{}
	from := 0
	for _, to := range []int{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10} {
		r := *shape
		r.i, r.to = from, to
		if _, err := Run(context.Background(), &r, cfg, Plan{Options: Options{JSONL: true, Workers: 2}, Acc: acc}); err != nil {
			t.Fatal(err)
		}
		heap[to] = inUse()
		t.Logf("%3dk records: %.1f MiB in use after GC, %d types interned so far",
			to>>10, heap[to], jsontype.InternedTypes())
		from = to
	}
	if ratio := heap[256<<10] / heap[32<<10]; ratio > ceiling {
		t.Errorf("heap in use grew %.2f× from 32k to 256k records (%.1f → %.1f MiB; ceiling %.1f×)",
			ratio, heap[32<<10], heap[256<<10], ceiling)
	}
}
