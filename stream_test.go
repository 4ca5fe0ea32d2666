package jxplain

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"jxplain/internal/dataset"
	"jxplain/internal/ingest"
)

// datasetJSONL renders a generator's records as JSONL bytes.
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

// TestDiscoverStreamEquivalence asserts that streaming discovery produces
// byte-identical schemas to slice-based discovery across every synthetic
// dataset generator, for a grid of chunk sizes and worker counts — the
// guarantee that the chunked mergeable-sketch pipeline is a pure
// restructuring, not a new algorithm.
func TestDiscoverStreamEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	for _, g := range dataset.Registry() {
		input := datasetJSONL(t, g, 300)

		types, err := ingest.Types(bytes.NewReader(input), ingest.Options{})
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		want, err := MarshalSchema(Discover(types, cfg))
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}

		for _, opts := range []StreamOptions{
			{ChunkSize: 1, Workers: 1},
			{ChunkSize: 17, Workers: 4},
			{ChunkSize: 64, Workers: 2, JSONL: true},
			{ChunkSize: 100000, Workers: 8},
			{}, // defaults
		} {
			s, err := DiscoverStreamOpts(context.Background(), bytes.NewReader(input), cfg, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", g.Name, opts, err)
			}
			got, err := MarshalSchema(s)
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: DiscoverStreamOpts with %+v diverges from Discover:\n%s\n%s",
					g.Name, opts, got, want)
			}
		}
	}
}

// TestDiscovererEquivalence feeds records one at a time through every
// Discoverer entry point and checks byte-identity with batch discovery.
func TestDiscovererEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	for _, g := range dataset.Registry()[:4] {
		records := g.Generate(200, 1)
		types := dataset.Types(records)
		want, err := MarshalSchema(Discover(types, cfg))
		if err != nil {
			t.Fatal(err)
		}

		byValue := NewDiscoverer(cfg)
		byDoc := NewDiscoverer(cfg)
		byType := NewDiscoverer(cfg)
		for _, rec := range records {
			if err := byValue.AddValue(rec.Value); err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			doc, err := json.Marshal(rec.Value)
			if err != nil {
				t.Fatal(err)
			}
			if err := byDoc.Add(doc); err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			byType.AddType(rec.Type)
		}
		for name, d := range map[string]*Discoverer{"AddValue": byValue, "Add": byDoc, "AddType": byType} {
			if d.Records() != len(records) {
				t.Errorf("%s %s: Records() = %d, want %d", g.Name, name, d.Records(), len(records))
			}
			got, err := MarshalSchema(d.Finish())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: %s-fed Discoverer diverges from Discover", g.Name, name)
			}
		}
	}
}

// TestDiscovererIncrementalFinish checks that Finish is a snapshot, not a
// terminal operation: more records may arrive afterwards.
func TestDiscovererIncrementalFinish(t *testing.T) {
	d := NewDiscoverer(DefaultConfig())
	if err := d.Add([]byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	first := d.Finish()
	if ok, _ := Validate(first, []byte(`{"a":2}`)); !ok {
		t.Error("snapshot schema should admit the seen shape")
	}
	if err := d.Add([]byte(`{"a":1,"b":"x"}`)); err != nil {
		t.Fatal(err)
	}
	second := d.Finish()
	if ok, _ := Validate(second, []byte(`{"a":3,"b":"y"}`)); !ok {
		t.Error("second snapshot should admit the new shape")
	}
	if d.Records() != 2 {
		t.Errorf("Records() = %d", d.Records())
	}
}

func TestDiscovererErrors(t *testing.T) {
	d := NewDiscoverer(DefaultConfig())
	if err := d.Add([]byte(`{"broken`)); err == nil {
		t.Error("malformed JSON should fail")
	}
	if err := d.AddValue(struct{}{}); err == nil {
		t.Error("unsupported value should fail")
	}
	if d.Records() != 0 {
		t.Error("failed adds must not count")
	}
}

func TestDiscoverStreamErrors(t *testing.T) {
	if _, err := DiscoverStreamOpts(context.Background(), strings.NewReader(`{"a":1} {nope`), DefaultConfig(), StreamOptions{}); err == nil {
		t.Error("malformed stream should fail")
	}
}

// slowEndlessReader yields records forever.
type slowEndlessReader struct{ i int }

func (s *slowEndlessReader) Read(p []byte) (int, error) {
	s.i++
	return copy(p, []byte(fmt.Sprintf(`{"id":%d}`+"\n", s.i))), nil
}

// TestDiscoverStreamCancellation: a cancelled context aborts ingestion of
// an unbounded stream promptly.
func TestDiscoverStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := DiscoverStreamOpts(ctx, &slowEndlessReader{}, DefaultConfig(), StreamOptions{})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not abort DiscoverStreamOpts promptly")
	}
}

// TestDiscoverJSONStreamsLargeInput sanity-checks the facade's default
// entry point on a large low-cardinality stream: a million records with a
// handful of distinct shapes must discover fine (and fast) because only
// distinct structure is retained.
func TestDiscoverJSONStreamsLargeInput(t *testing.T) {
	if testing.Short() {
		t.Skip("large stream")
	}
	var buf bytes.Buffer
	for i := 0; i < 1_000_000; i++ {
		fmt.Fprintf(&buf, `{"ts":%d,"event":"e%d"}`+"\n", i, i%3)
	}
	s, err := DiscoverJSON(&buf, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := Validate(s, []byte(`{"ts":1,"event":"x"}`)); !ok {
		t.Errorf("schema should admit the record shape: %s", s)
	}
}

// TestBoundedStreamDiscovery exercises the sublinear-memory stream
// options through the facade: a churn stream under reservoir + ring +
// decay bounds stays capped, raises windowed drift events, and still
// synthesizes a schema; bounds set after records are rejected.
func TestBoundedStreamDiscovery(t *testing.T) {
	// Two phases: the stream's shape moves halfway through, and each
	// record also carries a churn key so the reservoir sees eviction.
	var churn bytes.Buffer
	for i := 0; i < 600; i++ {
		shape := "user"
		if i >= 300 {
			shape = "account"
		}
		fmt.Fprintf(&churn, "{\"%s\":{\"id\":%d},\"k%03d\":%d}\n", shape, i, i, i)
	}

	d := NewDiscoverer(DefaultConfig())
	var events []*WindowDriftEvent
	d.OnWindowDrift(func(ev *WindowDriftEvent) { events = append(events, ev) })
	n, err := d.AddStream(context.Background(), bytes.NewReader(churn.Bytes()), StreamOptions{
		JSONL: true, ChunkSize: 25,
		Capacity: 16, WindowRecords: 100, WindowCount: 2, Decay: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 600 || d.Records() != 600 {
		t.Fatalf("records: ingested %d, accounted %d", n, d.Records())
	}
	if len(events) == 0 {
		t.Fatal("pure churn raised no windowed drift events")
	}
	if data, err := MarshalSchema(d.Finish()); err != nil || len(data) == 0 {
		t.Fatalf("bounded Finish: %v", err)
	}

	// Bounds arriving after records must be refused.
	late := NewDiscoverer(DefaultConfig())
	if _, err := late.AddStream(context.Background(), strings.NewReader("{\"a\":1}\n"), StreamOptions{JSONL: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := late.AddStream(context.Background(), strings.NewReader("{\"b\":2}\n"), StreamOptions{JSONL: true, Capacity: 8}); err == nil {
		t.Fatal("late bounds accepted")
	}

	// Bounds via Config work identically (alias check).
	cfg := DefaultConfig()
	cfg.Bounds = Bounds{ReservoirCapacity: 8}
	s, err := DiscoverStreamOpts(context.Background(), bytes.NewReader(churn.Bytes()), cfg, StreamOptions{JSONL: true})
	if err != nil {
		t.Fatal(err)
	}
	if data, err := MarshalSchema(s); err != nil || len(data) == 0 {
		t.Fatalf("config-bounded schema: %v", err)
	}
}

// TestStreamBoundsRejected pins that both stream entry points refuse the
// bounds the CLI refuses (jxplain -ring 4, -window 100 -decay 2), rather
// than silently running exact on them.
func TestStreamBoundsRejected(t *testing.T) {
	ctx := context.Background()
	for _, opts := range []StreamOptions{
		{WindowCount: 4},
		{WindowRecords: 100, Decay: 2},
		{WindowRecords: 100, Decay: -0.5},
	} {
		if _, err := DiscoverStreamOpts(ctx, strings.NewReader(`{"a":1}`), DefaultConfig(), opts); err == nil {
			t.Errorf("DiscoverStreamOpts accepted %+v", opts)
		}
		d := NewDiscoverer(DefaultConfig())
		if _, err := d.AddStream(ctx, strings.NewReader(`{"a":1}`), opts); err == nil {
			t.Errorf("AddStream accepted %+v", opts)
		}
		if d.Records() != 0 {
			t.Errorf("%+v: refused stream still added %d records", opts, d.Records())
		}
	}
}
