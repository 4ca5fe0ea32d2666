// Package stream owns a streaming JXPLAIN run, the one path every
// streaming front end takes: check the stream bounds, build (or continue)
// the accumulator and bind its window-drift monitor, fold seed sketch
// files, ingest the record stream, and write the result as a schema or as
// sketch bytes. cmd/jxplain's staged extractors, cmd/jxshard's map,
// reduce and run, and the facade's Discoverer.AddStream and
// DiscoverStreamOpts all go through Run; each keeps only its flag
// parsing or API surface around it.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"jxplain/internal/core"
	"jxplain/internal/drift"
	"jxplain/internal/ingest"
	"jxplain/internal/schema"
)

// Options bounds streaming ingestion: records per chunk, decode worker
// count, input framing, and — for unbounded streams — the
// sublinear-memory state caps. The zero value picks sensible defaults
// (2048-record chunks, one worker per core, concatenated-JSON framing,
// exact state).
type Options struct {
	// ChunkSize is the number of records per chunk (default 2048, or
	// WindowRecords when that is smaller: an add is atomic with respect
	// to windows, so a wider chunk would close windows per chunk, not per
	// WindowRecords records). An explicit ChunkSize is used as given.
	ChunkSize int
	// Workers is the decode worker count (default one per core).
	Workers int
	// JSONL frames records as non-blank lines (strict JSONL) instead of
	// scanning concatenated JSON values; errors then carry line numbers.
	JSONL bool
	// MaxRecordBytes caps a single record's size in JSONL mode
	// (default 64 MiB).
	MaxRecordBytes int

	// Capacity bounds the distinct-type state to a weighted reservoir of
	// this many types (core.Bounds.ReservoirCapacity). 0 keeps the exact
	// union bag.
	Capacity int
	// WindowRecords closes a pass-① statistics window every this many
	// records (core.Bounds.WindowRecords). 0 keeps one cumulative window.
	WindowRecords int
	// WindowCount retains this many closed windows in a ring for
	// decisions (core.Bounds.WindowCount). 0 means no ring; a ring needs
	// WindowRecords.
	WindowCount int
	// Decay, in (0, 1), exponentially ages the retained counters at every
	// window rotation (core.Bounds.DecayFactor). 0 means no decay; a
	// decay needs WindowRecords, and other values are an error.
	Decay float64
}

// Plan is one run: its ingestion options, plus what happens around the
// ingest. The zero Plan ingests into a fresh accumulator.
type Plan struct {
	Options
	// Seeds names sketch files folded in, in order, before any record:
	// as a tree over at most ReduceWorkers goroutines (0 = one per core,
	// 1 = sequential), byte-identical to a sequential fold.
	Seeds         []string
	ReduceWorkers int
	// WindowDrift, when non-nil, receives the drift events of the
	// accumulator Run builds. A continued accumulator keeps its binding.
	WindowDrift func(*drift.WindowEvent)
	// Acc, when non-nil, is continued instead of building an accumulator;
	// it must have been built for Run's cfg. Stream caps that change
	// cfg.Bounds replace it with a fresh one, which is an error once it
	// holds records: bounds shape the state itself.
	Acc *core.Accumulator
	// Prefix, when non-nil, reads the part of the input that comes before
	// the reader Run ingests. A record that fails is then named as a
	// record of the whole input (ingest.Rebase), and Prefix is read only
	// on that error.
	Prefix io.Reader
}

// Result is what a run leaves behind.
type Result struct {
	// Acc holds everything folded in; nil when the run failed before
	// building it.
	Acc *core.Accumulator
	// Cfg is the configuration Acc runs under: the caller's, with the
	// plan's stream caps applied.
	Cfg core.Config
	// Records counts the records ingested from the reader.
	Records int
}

// Run checks the stream bounds, builds or continues the accumulator,
// folds the seed sketches and ingests r (nil ingests nothing, as in a
// pure reduce). Non-zero stream caps in the plan replace cfg.Bounds. On
// an ingest error the result still carries the accumulator, holding the
// chunks folded before the failure.
func Run(ctx context.Context, r io.Reader, cfg core.Config, p Plan) (Result, error) {
	b := core.Bounds{
		ReservoirCapacity: p.Capacity,
		WindowRecords:     p.WindowRecords,
		WindowCount:       p.WindowCount,
		DecayFactor:       p.Decay,
	}
	if b != (core.Bounds{}) && b != cfg.Bounds {
		if p.Acc != nil && p.Acc.Records() != 0 {
			return Result{}, errors.New("stream bounds must be set before any records are added")
		}
		cfg.Bounds, p.Acc = b, nil
	}
	if err := checkBounds(cfg.Bounds); err != nil {
		return Result{}, err
	}
	res := Result{Acc: p.Acc, Cfg: cfg}
	if res.Acc == nil {
		res.Acc = core.NewAccumulator(cfg)
		if p.WindowDrift != nil {
			drift.NewWindowMonitor(cfg).Bind(res.Acc, p.WindowDrift)
		}
	}
	if err := seed(res.Acc, p.Seeds, p.ReduceWorkers); err != nil {
		return res, err
	}
	if r == nil {
		return res, nil
	}
	in := ingest.Options{ChunkSize: p.ChunkSize, Workers: p.Workers, JSONL: p.JSONL, MaxRecordBytes: p.MaxRecordBytes}
	// The default chunk is capped at the window cadence (see
	// Options.ChunkSize); bench/workload.go mirrors this rule.
	if w := cfg.Bounds.WindowRecords; in.ChunkSize == 0 && w > 0 && w < 2048 {
		in.ChunkSize = w
	}
	var err error
	if res.Records, err = ingest.Fold(ctx, r, in, res.Acc); err != nil {
		if p.Prefix != nil {
			err = ingest.Rebase(err, p.Prefix, p.JSONL)
		}
		return res, fmt.Errorf("decoding records: %w", err)
	}
	return res, nil
}

// checkBounds refuses bounds the accumulator would silently run exact
// on: a window ring or decay without the window cadence that drives
// them, and a decay factor outside (0, 1).
func checkBounds(b core.Bounds) error {
	if (b.WindowCount > 0 || b.DecayFactor != 0) && b.WindowRecords <= 0 {
		return errors.New("a window ring or decay needs a window cadence")
	}
	if b.DecayFactor != 0 && !(b.DecayFactor > 0 && b.DecayFactor < 1) {
		return errors.New("decay must be in (0, 1)")
	}
	return nil
}

// seed folds the sketch files into acc in order, naming a failing file.
func seed(acc *core.Accumulator, paths []string, workers int) error {
	datas := make([][]byte, len(paths))
	for i, path := range paths {
		var err error
		if datas[i], err = os.ReadFile(path); err != nil {
			return err
		}
	}
	if err := acc.MergeSketches(datas, workers); err != nil {
		var merr *core.SketchMergeError
		if errors.As(err, &merr) && merr.Index < len(paths) {
			return fmt.Errorf("merging sketch %s: %w", paths[merr.Index], merr.Err)
		}
		return fmt.Errorf("merging sketches: %w", err)
	}
	return nil
}

// Config returns the configuration of a staged extractor, jxplain or
// bimax-naive, under the CLIs' algorithm flags.
func Config(algorithm string, threshold float64, arrayTuples, objectColls bool, seed int64) (core.Config, error) {
	cfg := core.Default()
	cfg.Detection.Threshold = threshold
	cfg.DetectArrayTuples = arrayTuples
	cfg.DetectObjectCollections = objectColls
	cfg.Seed = seed
	switch algorithm {
	case "jxplain":
	case "bimax-naive":
		cfg.Partition = core.BimaxNaive
	default:
		return cfg, fmt.Errorf("algorithm %q is not a staged extractor (jxplain or bimax-naive)", algorithm)
	}
	return cfg, nil
}

// CheckFormat refuses a schema format WriteSchema cannot write. The CLIs
// call it right after parsing their flags, so that a misspelt -format
// fails before any input is read.
func CheckFormat(format string) error {
	switch format {
	case "pretty", "jsonschema", "native":
		return nil
	}
	return fmt.Errorf("unknown format %q", format)
}

// WriteSchema writes s to w as one line in format: pretty (the paper's
// notation), jsonschema (a json-schema.org document) or native (the
// round-trip encoding).
func WriteSchema(w io.Writer, s schema.Schema, format string) error {
	if err := CheckFormat(format); err != nil {
		return err
	}
	var data []byte
	var err error
	switch format {
	case "pretty":
		data = []byte(s.String())
	case "jsonschema":
		data, err = schema.MarshalJSONSchema(s)
	case "native":
		data, err = schema.Marshal(s)
	}
	if err != nil {
		return err
	}
	// Two writes: schema.Marshal's buffer has no room for the newline.
	if _, err = w.Write(data); err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n")
	return err
}

// WriteSketch writes acc's sketch to the file at path, or to w when path
// is "-".
func WriteSketch(w io.Writer, acc *core.Accumulator, path string) error {
	data, err := acc.Marshal()
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = w.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
