// Command jxplain discovers a collection-level schema from a stream of
// JSON records (JSONL or concatenated JSON) and prints it.
//
// Usage:
//
//	jxplain [flags] [file]        # reads stdin when no file is given
//
// Flags select the algorithm (jxplain, bimax-naive, k-reduce, l-reduce),
// the entropy threshold, and the output format: the paper's compact
// notation (default), a json-schema.org document (-format jsonschema), or
// the native round-trip encoding (-format native) consumable by
// jxvalidate.
//
// The JXPLAIN algorithms ingest the input as a bounded-memory stream:
// records are decoded in chunks by a worker pool (-workers, -chunk) and
// folded into mergeable sketches, so arbitrarily large inputs never
// materialize in memory. -stats reports throughput and peak heap
// alongside the schema statistics.
//
// For streams whose *distinct structure* itself grows without bound,
// -capacity caps the retained types in a weighted reservoir, -window and
// -ring keep decisions over a rolling horizon of statistics windows,
// -decay exponentially ages the retained counters, and -window-drift
// logs structural movement between consecutive windows to stderr.
//
// Accumulated state can cross process boundaries through the versioned
// sketch wire format: -emit-sketch writes the accumulator instead of a
// schema, and repeated -merge-sketch flags seed the accumulator from
// sketch files (merged in flag order, as a parallel tree when
// -reduce-workers allows) before any input is ingested — together they
// form a map/reduce pair (see also cmd/jxshard, the dedicated scale-out
// driver).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"jxplain/internal/core"
	"jxplain/internal/drift"
	"jxplain/internal/ingest"
	"jxplain/internal/jsontype"
	"jxplain/internal/merge"
	"jxplain/internal/metrics"
	"jxplain/internal/schema"
	"jxplain/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "jxplain:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("jxplain", flag.ContinueOnError)
	algorithm := fs.String("algorithm", "jxplain",
		"extractor: jxplain, bimax-naive, k-reduce, or l-reduce")
	format := fs.String("format", "pretty",
		"output: pretty (paper notation), jsonschema, or native")
	threshold := fs.Float64("threshold", 1.0,
		"key-space entropy threshold for collection detection (natural log)")
	noArrayTuples := fs.Bool("no-array-tuples", false,
		"treat every array as a collection (disable §5.4 detection)")
	noObjectColls := fs.Bool("no-object-collections", false,
		"treat every object as a tuple (disable §5.1 detection)")
	iterative := fs.Float64("iterative", 0,
		"run the §4.2 sampling loop with this seed fraction (0 = train on everything)")
	jsonl := fs.Bool("jsonl", false,
		"treat input as strict JSONL (line-framed chunking, line-numbered errors)")
	workers := fs.Int("workers", 0,
		"decode workers for streaming ingestion (0 = one per core)")
	chunk := fs.Int("chunk", 0,
		"records per ingestion chunk (0 = default 2048)")
	seed := fs.Int64("seed", 1, "seed for sampling and k-means")
	statsF := fs.Bool("stats", false, "print schema statistics to stderr")
	emitSketch := fs.String("emit-sketch", "",
		"write the accumulated sketch (wire format) to this file instead of a schema (- for stdout)")
	var mergeSketches sketchList
	fs.Var(&mergeSketches, "merge-sketch",
		"seed the accumulator from this sketch file before ingesting input (repeatable; merged in flag order)")
	reduceWorkers := fs.Int("reduce-workers", 0,
		"concurrent -merge-sketch workers (0 = one per core, 1 = sequential)")
	capacity := fs.Int("capacity", 0,
		"bound distinct-type state to a weighted reservoir of this many types (0 = exact)")
	window := fs.Int("window", 0,
		"close a statistics window every N records (0 = one cumulative window)")
	ring := fs.Int("ring", 0,
		"retain this many closed windows for decisions (requires -window; 0 = no ring)")
	decay := fs.Float64("decay", 0,
		"exponential decay factor in (0,1) applied at every window rotation (requires -window)")
	windowDrift := fs.Bool("window-drift", false,
		"log windowed structural drift events to stderr (requires -ring)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *algorithm {
	case "jxplain", "bimax-naive", "k-reduce", "l-reduce":
	default:
		return fmt.Errorf("unknown algorithm %q", *algorithm)
	}

	input := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		input = f
	} else if len(mergeSketches) > 0 {
		// Reducing sketch files needs no record stream; don't block on stdin.
		input = nil
	}

	streaming := (*algorithm == "jxplain" || *algorithm == "bimax-naive") &&
		!(*iterative > 0 && *iterative < 1)
	if (*emitSketch != "" || len(mergeSketches) > 0) && !streaming {
		return fmt.Errorf("-emit-sketch/-merge-sketch require a streaming extractor (jxplain or bimax-naive, without -iterative)")
	}
	bounds := core.Bounds{
		ReservoirCapacity: *capacity,
		WindowRecords:     *window,
		WindowCount:       *ring,
		DecayFactor:       *decay,
	}
	if bounds != (core.Bounds{}) {
		if !streaming {
			return fmt.Errorf("-capacity/-window/-ring/-decay require a streaming extractor (jxplain or bimax-naive, without -iterative)")
		}
		if (*ring > 0 || *decay != 0) && *window <= 0 {
			return fmt.Errorf("-ring and -decay need a -window cadence")
		}
		if *decay != 0 && !(*decay > 0 && *decay < 1) {
			return fmt.Errorf("-decay must be in (0, 1)")
		}
	}
	if *windowDrift && *ring <= 0 {
		return fmt.Errorf("-window-drift requires a -ring of closed windows")
	}

	var s schema.Schema
	records := 0
	distinct := 0
	boundedStats := ""
	start := time.Now()
	var sampler *stats.MemSampler
	if *statsF {
		sampler = stats.StartMemSampler()
		defer sampler.Stop()
	}

	if streaming {
		cfg := configFor(*algorithm, *threshold, !*noArrayTuples, !*noObjectColls)
		cfg.Seed = *seed
		cfg.Bounds = bounds
		acc := core.NewAccumulator(cfg)
		if *windowDrift {
			drift.NewWindowMonitor(cfg).Bind(acc, func(ev *drift.WindowEvent) {
				fmt.Fprintln(stderr, ev.String())
			})
		}
		datas := make([][]byte, len(mergeSketches))
		for i, path := range mergeSketches {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			datas[i] = data
		}
		if err := acc.MergeSketches(datas, *reduceWorkers); err != nil {
			var merr *core.SketchMergeError
			if errors.As(err, &merr) && merr.Index < len(mergeSketches) {
				return fmt.Errorf("merging sketch %s: %w", mergeSketches[merr.Index], merr.Err)
			}
			return fmt.Errorf("merging sketches: %w", err)
		}
		if input != nil {
			// An add is atomic with respect to windows, so with a window
			// cadence the default chunk size must not exceed it — otherwise
			// rotations happen at chunk granularity, not the configured one.
			// An explicit -chunk is respected as given.
			if *chunk == 0 && *window > 0 && *window < 2048 {
				*chunk = *window
			}
			opts := ingest.Options{ChunkSize: *chunk, Workers: *workers, JSONL: *jsonl}
			if _, err := ingest.Fold(context.Background(), input, opts, acc); err != nil {
				return fmt.Errorf("decoding records: %w", err)
			}
		}
		if acc.Records() == 0 {
			return fmt.Errorf("no records in input")
		}
		records, distinct = acc.Records(), acc.Distinct()
		if r := acc.Reservoir(); r != nil {
			boundedStats += fmt.Sprintf("reservoir: seen=%d retained=%d dropped=%d evictions=%d\n",
				r.Seen(), r.Distinct(), r.Dropped(), r.Evictions())
		}
		if w := acc.WindowsClosed(); w > 0 {
			boundedStats += fmt.Sprintf("windows closed: %d\n", w)
		}
		if *emitSketch != "" {
			data, err := acc.Marshal()
			if err != nil {
				return err
			}
			if *emitSketch == "-" {
				_, err := stdout.Write(data)
				return err
			}
			return os.WriteFile(*emitSketch, data, 0o644)
		}
		s = acc.Finish()
	} else {
		var types []*jsontype.Type
		var err error
		if *jsonl {
			types, err = jsontype.DecodeLines(input, *workers)
		} else {
			types, err = jsontype.DecodeAll(input)
		}
		if err != nil {
			return fmt.Errorf("decoding records: %w", err)
		}
		if len(types) == 0 {
			return fmt.Errorf("no records in input")
		}
		records = len(types)

		if *iterative > 0 && *iterative < 1 {
			if *algorithm != "jxplain" && *algorithm != "bimax-naive" {
				return fmt.Errorf("-iterative requires a JXPLAIN algorithm")
			}
			cfg := configFor(*algorithm, *threshold, !*noArrayTuples, !*noObjectColls)
			var report core.IterativeReport
			s, report = core.IterativeDiscover(types, cfg, *iterative, 10, *seed)
			if *statsF {
				fmt.Fprintf(stderr, "iterative: rounds=%d converged=%v final sample=%d of %d\n",
					report.Rounds, report.Converged,
					report.SampleSizes[len(report.SampleSizes)-1], len(types))
			}
		} else {
			s, err = discover(*algorithm, types, *threshold, !*noArrayTuples, !*noObjectColls)
			if err != nil {
				return err
			}
		}
	}
	s = schema.Simplify(s)

	if *statsF {
		elapsed := time.Since(start)
		peak := sampler.Stop()
		fmt.Fprintf(stderr, "records: %d\nschema nodes: %d\nentities: %d\nschema entropy (log2 types): %.2f\n",
			records, schema.Size(s), schema.Entities(s), metrics.SchemaEntropy(s))
		if streaming {
			fmt.Fprintf(stderr, "distinct types: %d\n", distinct)
			fmt.Fprint(stderr, boundedStats)
		}
		fmt.Fprintf(stderr, "elapsed: %s\nthroughput: %.0f records/s\npeak heap: %.1f MiB\n",
			elapsed.Round(time.Millisecond), float64(records)/elapsed.Seconds(),
			float64(peak)/(1<<20))
	}

	switch *format {
	case "pretty":
		fmt.Fprintln(stdout, s.String())
	case "jsonschema":
		data, err := schema.MarshalJSONSchema(s)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
	case "native":
		data, err := schema.Marshal(s)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}

// sketchList collects repeated -merge-sketch flags in order.
type sketchList []string

func (s *sketchList) String() string { return fmt.Sprint([]string(*s)) }

func (s *sketchList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func configFor(algorithm string, threshold float64, arrayTuples, objectColls bool) core.Config {
	cfg := core.Default()
	cfg.Detection.Threshold = threshold
	cfg.DetectArrayTuples = arrayTuples
	cfg.DetectObjectCollections = objectColls
	if algorithm == "bimax-naive" {
		cfg.Partition = core.BimaxNaive
	}
	return cfg
}

func discover(algorithm string, types []*jsontype.Type, threshold float64, arrayTuples, objectColls bool) (schema.Schema, error) {
	cfg := configFor(algorithm, threshold, arrayTuples, objectColls)
	switch algorithm {
	case "jxplain", "bimax-naive":
		return core.PipelineTypes(types, cfg), nil
	case "k-reduce":
		return merge.FoldK(types, 0), nil
	case "l-reduce":
		bag := &jsontype.Bag{}
		for _, t := range types {
			bag.Add(t)
		}
		return merge.Naive(bag), nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", algorithm)
}
