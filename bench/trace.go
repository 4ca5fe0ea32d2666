package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"jxplain/internal/core"
	"jxplain/internal/drift"
	"jxplain/internal/ingest"
	"jxplain/internal/jsontype"
	"jxplain/internal/schema"
)

// The traced run times every layer from outside, around calls into its
// public functions, in fresh child processes so the type interner starts
// empty as it does for a CLI user:
//
//   - seq replays the CLI's call sequence on one goroutine with a span
//     around each call;
//   - pipe runs ingest.Each as the CLI does and times the fold callback
//     and the gaps between callbacks, which is time the fold waited for
//     the decode workers;
//   - off replays seq with the tracer off; seq minus off is the tracing
//     overhead.

// span is one timed call. The parent process stamps Workload, Pass and
// Run before writing spans out.
type span struct {
	Workload string `json:"workload,omitempty"`
	Pass     string `json:"pass,omitempty"`
	Run      int    `json:"run"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Allocs   int64  `json:"allocs"`
	Bytes    int64  `json:"bytes"`
}

// tracer records spans in memory. Each span runs under the pprof label
// layer=<name>, so a CPU profile of the seq pass attributes by layer. A
// tracer that is off calls straight through.
type tracer struct {
	on      bool
	t0      time.Time
	spans   []span
	open    []openSpan // innermost last
	samples []metrics.Sample
}

type openSpan struct {
	id  int
	ctx context.Context
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

// allocs returns the process's cumulative heap allocations.
func (t *tracer) allocs() (objects, bytes int64) {
	metrics.Read(t.samples)
	return int64(t.samples[0].Value.Uint64() + t.samples[1].Value.Uint64()),
		int64(t.samples[2].Value.Uint64())
}

// do runs fn as span name, a child of the innermost open span.
func (t *tracer) do(name string, fn func()) {
	if !t.on {
		fn()
		return
	}
	id, parent, ctx := len(t.spans), -1, context.Background()
	if n := len(t.open); n > 0 {
		parent, ctx = t.open[n-1].id, t.open[n-1].ctx
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name})
	pprof.Do(ctx, pprof.Labels("layer", name), func(ctx context.Context) {
		t.open = append(t.open, openSpan{id, ctx})
		objects, bytes := t.allocs()
		start := time.Since(t.t0)
		fn()
		end := time.Since(t.t0)
		objects2, bytes2 := t.allocs()
		t.open = t.open[:len(t.open)-1]
		s := &t.spans[id]
		s.StartNS, s.EndNS = start.Nanoseconds(), end.Nanoseconds()
		s.Allocs, s.Bytes = objects2-objects, bytes2-bytes
	})
}

// childResult is what a traced child prints on stdout.
type childResult struct {
	TotalNS  int64              `json:"total_ns"`
	Equal    bool               `json:"equal"`
	Spans    []span             `json:"spans,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// runTraced is the body of a seq, pipe or off child.
func runTraced(pass string, w workload, base, cpuprofile string) (childResult, error) {
	want, err := os.ReadFile(base + ".ref")
	if err != nil {
		return childResult{}, err
	}
	f, err := os.Open(base + ".jsonl")
	if err != nil {
		return childResult{}, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return childResult{}, err
	}
	if pass == "pipe" {
		return pipe(w, f, info.Size())
	}
	if cpuprofile != "" {
		prof, err := os.Create(cpuprofile)
		if err != nil {
			return childResult{}, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return childResult{}, err
		}
		defer pprof.StopCPUProfile()
	}
	tr := newTracer(pass == "seq")
	interned := jsontype.InternedTypes()
	start := time.Now()
	acc, c, err := seqFold(tr, w, f, info.Size())
	if err != nil {
		return childResult{}, err
	}
	var s schema.Schema
	var out []byte
	tr.do("core.derive", func() { acc.Stats() })
	tr.do("core.finish", func() { s = acc.Finish() })
	tr.do("schema.simplify", func() { s = schema.Simplify(s) })
	tr.do("schema.encode", func() { out, err = schema.Marshal(s) })
	if err != nil {
		return childResult{}, err
	}
	res := childResult{
		TotalNS: time.Since(start).Nanoseconds(),
		Equal:   bytes.Equal(append(out, '\n'), want),
		Spans:   tr.spans,
	}
	if pass == "seq" {
		c["jsontype.interned"] = float64(jsontype.InternedTypes() - interned)
		c["core.sketch_nodes"] = float64(acc.SketchNodes())
		c["core.distinct"] = float64(acc.Distinct())
		c["core.windows_closed"] = float64(acc.WindowsClosed())
		c["jsontype.reservoir_kept_share"] = 1
		c["jsontype.reservoir_evictions"] = 0
		if r := acc.Reservoir(); r != nil && r.Seen() > 0 {
			c["jsontype.reservoir_kept_share"] = float64(r.Seen()-r.Dropped()) / float64(r.Seen())
			c["jsontype.reservoir_evictions"] = float64(r.Evictions())
		}
		c["schema.bytes"] = float64(len(out))
		c["schema.entities"] = float64(schema.Entities(s))
		res.Counters = c
	}
	return res, nil
}

// seqFold replays the CLI's ingestion on one goroutine and returns the
// filled accumulator with the counters only the fold can see. For shard
// it replays jxshard run: split into contiguous shards, fold each into
// its own accumulator, marshal the sketches, tree-reduce them.
func seqFold(tr *tracer, w workload, f *os.File, size int64) (*core.Accumulator, map[string]float64, error) {
	cfg := w.config()
	c := map[string]float64{"drift.events": 0, "core.sketch_bytes": 0}
	if !w.shard {
		acc := core.NewAccumulator(cfg)
		if !w.drift {
			return acc, c, frame(tr, f, w.chunk(), acc)
		}
		mon := drift.NewWindowMonitor(cfg)
		acc.OnWindowClose(func(index, records int, sketch *core.PathSketch) {
			tr.do("drift.observe", func() { mon.ObserveSketch(index, records, sketch) })
		})
		err := frame(tr, f, w.chunk(), acc)
		c["drift.events"] = float64(mon.Events())
		return acc, c, err
	}
	var shards [][]byte
	var err error
	tr.do("ingest.frame", func() { shards, err = splitShards(f, size, 2) })
	if err != nil {
		return nil, nil, err
	}
	sketches := make([][]byte, len(shards))
	for i, shard := range shards {
		// A map worker folds under the default configuration: a sketch
		// carries data statistics only.
		acc := core.NewAccumulator(core.Default())
		if err := frame(tr, bytes.NewReader(shard), w.chunk(), acc); err != nil {
			return nil, nil, err
		}
		tr.do("core.marshal", func() { sketches[i], err = acc.Marshal() })
		if err != nil {
			return nil, nil, err
		}
		c["core.sketch_bytes"] += float64(len(sketches[i]))
	}
	var acc *core.Accumulator
	tr.do("core.reduce", func() { acc, err = core.ReduceSketches(sketches, cfg, 2) })
	return acc, c, err
}

// frame reads r record by record, as ingest's splitter does, scans each
// chunk of records into a bag and folds the bag into acc.
func frame(tr *tracer, r io.Reader, chunk int, acc *core.Accumulator) error {
	batch := make([][]byte, 0, chunk)
	flush := func() error {
		bag := &jsontype.Bag{}
		var err error
		tr.do("jsontype.scan", func() {
			for _, rec := range batch {
				var t *jsontype.Type
				if t, err = jsontype.FromJSON(rec); err != nil {
					return
				}
				bag.Add(t)
			}
		})
		if err != nil {
			return err
		}
		tr.do("core.add", func() { acc.AddBag(bag) })
		batch = batch[:0]
		return nil
	}
	var err error
	tr.do("ingest.frame", func() {
		err = ingest.Records(r, ingest.Options{JSONL: true}, func(rec []byte) error {
			batch = append(batch, append([]byte(nil), rec...))
			if len(batch) < chunk {
				return nil
			}
			return flush()
		})
		if err == nil && len(batch) > 0 {
			err = flush()
		}
	})
	return err
}

// splitShards cuts the JSONL stream into n contiguous shards the way
// jxshard run feeds its map workers: the next shard starts at the first
// record boundary past a byte quota of size·(i+1)/n.
func splitShards(r io.Reader, size int64, n int) ([][]byte, error) {
	shards := make([][]byte, n)
	cur, written := 0, int64(0)
	err := ingest.Records(r, ingest.Options{JSONL: true}, func(rec []byte) error {
		for cur < n-1 && written >= size*int64(cur+1)/int64(n) {
			cur++
		}
		shards[cur] = append(append(shards[cur], rec...), '\n')
		written += int64(len(rec)) + 1
		return nil
	})
	return shards, err
}

// pipe runs the CLI's concurrent ingest and reports how long the fold
// goroutine waited for decoded chunks. jxshard's map workers decode with
// one worker each, one shard after another here.
func pipe(w workload, f *os.File, size int64) (childResult, error) {
	inputs, workers, cfg := []io.Reader{f}, 0, w.config()
	if w.shard {
		shards, err := splitShards(f, size, 2)
		if err != nil {
			return childResult{}, err
		}
		inputs, workers, cfg = nil, 1, core.Default()
		for _, s := range shards {
			inputs = append(inputs, bytes.NewReader(s))
		}
	}
	var total, wait time.Duration
	for _, in := range inputs {
		acc := core.NewAccumulator(cfg)
		if w.drift {
			drift.NewWindowMonitor(cfg).Bind(acc, nil)
		}
		opts := ingest.Options{ChunkSize: w.chunk(), Workers: workers, JSONL: true}
		start := time.Now()
		last := start
		_, err := ingest.Each(context.Background(), in, opts, func(c ingest.Chunk) error {
			wait += time.Since(last)
			acc.AddBag(c.Bag)
			last = time.Now()
			return nil
		})
		if err != nil {
			return childResult{}, fmt.Errorf("pipe: %w", err)
		}
		total += time.Since(start)
	}
	return childResult{
		TotalNS: total.Nanoseconds(),
		Equal:   true,
		Counters: map[string]float64{
			"ingest.pipe_ms": ms(total.Nanoseconds()),
			"ingest.wait_ms": ms(wait.Nanoseconds()),
		},
	}, nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// spanTotals is one span name's summed wall time and allocations, in
// total and net of child spans.
type spanTotals struct {
	ns, selfNS         int64
	allocs, selfAllocs int64
}

func aggregate(spans []span) map[string]*spanTotals {
	out := map[string]*spanTotals{}
	get := func(name string) *spanTotals {
		if out[name] == nil {
			out[name] = &spanTotals{}
		}
		return out[name]
	}
	for _, s := range spans {
		a := get(s.Name)
		a.ns += s.EndNS - s.StartNS
		a.selfNS += s.EndNS - s.StartNS
		a.allocs += s.Allocs
		a.selfAllocs += s.Allocs
		if s.Parent >= 0 {
			p := get(spans[s.Parent].Name)
			p.selfNS -= s.EndNS - s.StartNS
			p.selfAllocs -= s.Allocs
		}
	}
	return out
}

// layerMetrics derives every per-layer metric from one seq, pipe and off
// child of the same workload.
func layerMetrics(seq, pipe, off childResult) map[string]float64 {
	a := aggregate(seq.Spans)
	get := func(name string) spanTotals {
		if t := a[name]; t != nil {
			return *t
		}
		return spanTotals{}
	}
	finish, derive := get("core.finish"), get("core.derive")
	v := map[string]float64{
		"ingest.frame_ms":      ms(get("ingest.frame").selfNS),
		"jsontype.scan_ms":     ms(get("jsontype.scan").ns),
		"jsontype.scan_allocs": float64(get("jsontype.scan").allocs),
		"core.add_ms":          ms(get("core.add").selfNS),
		"core.add_allocs":      float64(get("core.add").selfAllocs),
		"core.derive_ms":       ms(derive.ns),
		"core.synth_ms":        ms(finish.ns - derive.ns),
		"core.synth_allocs":    float64(finish.allocs - derive.allocs),
		"core.marshal_ms":      ms(get("core.marshal").ns),
		"core.reduce_ms":       ms(get("core.reduce").ns),
		"core.reduce_allocs":   float64(get("core.reduce").allocs),
		"drift.observe_ms":     ms(get("drift.observe").ns),
		"schema.simplify_ms":   ms(get("schema.simplify").ns),
		"schema.encode_ms":     ms(get("schema.encode").ns),
		"trace.total_ms":       ms(seq.TotalNS),
		"trace.overhead_share": float64(seq.TotalNS-off.TotalNS) / float64(off.TotalNS),
	}
	// The residual is the traced time outside every root span.
	rooted := int64(0)
	for _, s := range seq.Spans {
		if s.Parent < 0 {
			rooted += s.EndNS - s.StartNS
		}
	}
	v["trace.residual_share"] = float64(seq.TotalNS-rooted) / float64(seq.TotalNS)
	for k, x := range seq.Counters {
		v[k] = x
	}
	for k, x := range pipe.Counters {
		v[k] = x
	}
	return v
}
