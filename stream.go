package jxplain

import (
	"context"
	"fmt"
	"io"

	"jxplain/internal/core"
	"jxplain/internal/drift"
	"jxplain/internal/jsontype"
	"jxplain/internal/schema"
	"jxplain/internal/stream"
)

// StreamOptions bounds streaming ingestion: records per chunk, decode
// worker count, input framing, and — for unbounded streams — the
// sublinear-memory state caps (Capacity, WindowRecords, WindowCount,
// Decay). The zero value picks sensible defaults (2048-record chunks, one
// worker per core, concatenated-JSON framing, exact state).
type StreamOptions = stream.Options

// Discoverer accumulates records incrementally and derives their schema on
// demand, without ever materializing the collection: memory tracks the
// stream's distinct structure (distinct record types and paths), not its
// record count. Records arrive via Add (raw JSON), AddValue (decoded
// values) or AddType; Finish returns the schema over everything seen so
// far and does not consume the accumulator, so it can be called
// periodically over a live stream.
//
// A Discoverer is not safe for concurrent use. The zero value is not
// valid; use NewDiscoverer.
type Discoverer struct {
	acc      *core.Accumulator
	cfg      Config
	windowFn func(*drift.WindowEvent)
}

// NewDiscoverer returns an empty Discoverer for the configuration. Set
// Config.Bounds (or the StreamOptions caps on the first AddStream) to run
// with sublinear-memory state over an unbounded stream.
func NewDiscoverer(cfg Config) *Discoverer {
	return &Discoverer{acc: core.NewAccumulator(cfg), cfg: cfg}
}

// Add folds one raw JSON document into the discoverer.
func (d *Discoverer) Add(doc []byte) error {
	t, err := jsontype.FromJSON(doc)
	if err != nil {
		return err
	}
	d.acc.Add(t)
	return nil
}

// AddValue folds one decoded JSON value (nil, bool, float64, string,
// []any, map[string]any) into the discoverer.
func (d *Discoverer) AddValue(v any) error {
	t, err := jsontype.FromValue(v)
	if err != nil {
		return err
	}
	d.acc.Add(t)
	return nil
}

// AddType folds one structural type into the discoverer.
func (d *Discoverer) AddType(t *Type) { d.acc.Add(t) }

// AddStream folds a whole stream of JSON documents (JSONL or concatenated)
// into the discoverer through the chunked decode pipeline, returning the
// number of records ingested. The context cancels ingestion mid-stream.
//
// The options' stream caps (Capacity, WindowRecords, WindowCount, Decay),
// when set, configure the accumulator's core.Bounds. Bounds shape the
// state itself, so they must be established before any records are
// folded in; setting them on a non-empty discoverer (or changing them
// between calls) is an error. So are bounds the accumulator would run
// exact on, as the CLI's flags are: a ring or a decay without
// WindowRecords, and a decay outside (0, 1).
func (d *Discoverer) AddStream(ctx context.Context, r io.Reader, opts StreamOptions) (int, error) {
	res, err := stream.Run(ctx, r, d.cfg, stream.Plan{Options: opts, WindowDrift: d.windowFn, Acc: d.acc})
	if res.Acc != nil {
		d.acc, d.cfg = res.Acc, res.Cfg
	}
	if err != nil {
		return res.Records, fmt.Errorf("jxplain: %w", err)
	}
	return res.Records, nil
}

// OnWindowDrift registers fn to receive windowed structural-drift events:
// whenever a statistics window closes (Bounds.WindowRecords with a
// WindowCount ring) and its shape moved against the previous window —
// paths appeared, paths retired, or a tuple/collection ruling flipped —
// fn is called with the event. The first window primes silently. A nil fn
// unregisters.
func (d *Discoverer) OnWindowDrift(fn func(*drift.WindowEvent)) {
	d.windowFn = fn
	if fn == nil {
		d.acc.OnWindowClose(nil)
		return
	}
	drift.NewWindowMonitor(d.cfg).Bind(d.acc, fn)
}

// MarshalSketch serializes the discoverer's accumulated state — the
// deduplicated type bag and the pass-① path statistics — in the versioned
// sketch wire format. The discoverer is not consumed. Sketches produced
// on different machines (or processes) over disjoint shards of a
// collection can be merged with MergeSketch to continue discovery exactly
// where the combined streams left off.
func (d *Discoverer) MarshalSketch() ([]byte, error) { return d.acc.Marshal() }

// MergeSketch folds a serialized sketch into the discoverer, as if every
// record behind the sketch had been added directly. It returns a typed
// error (core.SketchVersionError, core.SketchFormatError) on input this
// build cannot read. A failed merge may leave part of the file folded in,
// so it poisons the discoverer: every later MergeSketch, MergeSketches
// and MarshalSketch returns the same error. Add and Finish do not check
// for it, so discard a poisoned discoverer rather than finish it.
func (d *Discoverer) MergeSketch(data []byte) error { return d.acc.MergeSketch(data) }

// MergeSketches folds the serialized sketches into the discoverer in
// order, merging them as a balanced binary tree over at most workers
// concurrent goroutines (0 = one per core). The result is byte-identical
// to calling MergeSketch on each file in sequence — adjacent-pair merging
// preserves first-seen type order — while the decode work scales with the
// worker count. An error (a *core.SketchMergeError naming the failing
// file's index) poisons the discoverer as a failed MergeSketch does.
func (d *Discoverer) MergeSketches(sketches [][]byte, workers int) error {
	return d.acc.MergeSketches(sketches, workers)
}

// NewDiscovererFromSketch resumes discovery from a serialized sketch
// under the given configuration.
func NewDiscovererFromSketch(data []byte, cfg Config) (*Discoverer, error) {
	acc, err := core.UnmarshalAccumulator(data, cfg)
	if err != nil {
		return nil, err
	}
	return &Discoverer{acc: acc, cfg: cfg}, nil
}

// Records returns the number of records folded in so far.
func (d *Discoverer) Records() int { return d.acc.Records() }

// Finish derives and simplifies the schema of everything added so far.
// More records may be added afterwards and Finish called again.
func (d *Discoverer) Finish() Schema { return schema.Simplify(d.acc.Finish()) }

// DiscoverStreamOpts reads a stream of JSON documents (JSONL or
// concatenated) in bounded chunks through a decode worker pool and infers
// their collection schema, holding only the stream's distinct structure in
// memory. It produces exactly the schema Discover produces on the same
// records. The context cancels ingestion mid-stream. The zero
// StreamOptions pick the defaults; the stream caps, when set, replace
// cfg.Bounds, and the bounds are checked as AddStream checks them.
func DiscoverStreamOpts(ctx context.Context, r io.Reader, cfg Config, opts StreamOptions) (Schema, error) {
	res, err := stream.Run(ctx, r, cfg, stream.Plan{Options: opts})
	if err != nil {
		return nil, fmt.Errorf("jxplain: %w", err)
	}
	return schema.Simplify(res.Acc.Finish()), nil
}
