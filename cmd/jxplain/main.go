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
// Records are decoded in chunks by a worker pool (-workers, -chunk); only
// -iterative, which samples records, reads them one by one in order. The
// JXPLAIN algorithms fold the chunks into mergeable sketches, so
// arbitrarily large inputs never materialize in memory; k-reduce and
// l-reduce merge them into one bag of distinct types. -stats reports
// throughput and peak heap alongside the schema statistics.
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
	"jxplain/internal/stream"
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
	if err := stream.CheckFormat(*format); err != nil {
		return err
	}
	// k-reduce and l-reduce take no Config; the staged extractors do.
	cfg, err := stream.Config(*algorithm, *threshold, !*noArrayTuples, !*noObjectColls, *seed)
	staged := err == nil
	if !staged && *algorithm != "k-reduce" && *algorithm != "l-reduce" {
		return fmt.Errorf("unknown algorithm %q", *algorithm)
	}
	iterate := *iterative > 0 && *iterative < 1
	if iterate && !staged {
		return fmt.Errorf("-iterative requires a JXPLAIN algorithm")
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

	streaming := staged && !iterate
	bounded := *capacity != 0 || *window != 0 || *ring != 0 || *decay != 0
	if !streaming && (*emitSketch != "" || len(mergeSketches) > 0 || bounded) {
		return fmt.Errorf("-emit-sketch, -merge-sketch, -capacity, -window, -ring and -decay require a streaming extractor (jxplain or bimax-naive, without -iterative)")
	}
	if *windowDrift && *ring <= 0 {
		return fmt.Errorf("-window-drift requires a -ring of closed windows")
	}

	var s schema.Schema
	records := 0
	streamStats := "" // the -stats lines only a streaming run has
	start := time.Now()
	var sampler *stats.MemSampler
	if *statsF {
		sampler = stats.StartMemSampler()
		defer sampler.Stop()
	}
	// printStats writes the -stats lines, those about the schema only
	// when there is one.
	printStats := func(s schema.Schema) {
		elapsed := time.Since(start)
		peak := sampler.Stop()
		fmt.Fprintf(stderr, "records: %d\n", records)
		if s != nil {
			fmt.Fprintf(stderr, "schema nodes: %d\nentities: %d\nschema entropy (log2 types): %.2f\n",
				schema.Size(s), schema.Entities(s), metrics.SchemaEntropy(s))
		}
		fmt.Fprint(stderr, streamStats)
		fmt.Fprintf(stderr, "elapsed: %s\nthroughput: %.0f records/s\npeak heap: %.1f MiB\n",
			elapsed.Round(time.Millisecond), float64(records)/elapsed.Seconds(),
			float64(peak)/(1<<20))
	}

	if streaming {
		p := stream.Plan{
			Options: stream.Options{ChunkSize: *chunk, Workers: *workers, JSONL: *jsonl,
				Capacity: *capacity, WindowRecords: *window, WindowCount: *ring, Decay: *decay},
			Seeds:         mergeSketches,
			ReduceWorkers: *reduceWorkers,
		}
		if *windowDrift {
			p.WindowDrift = func(ev *drift.WindowEvent) { fmt.Fprintln(stderr, ev.String()) }
		}
		res, err := stream.Run(context.Background(), input, cfg, p)
		if err != nil {
			return err
		}
		acc := res.Acc
		if records = acc.Records(); records == 0 {
			return fmt.Errorf("no records in input")
		}
		// Read now, so that acc is garbage once the schema is derived.
		streamStats = fmt.Sprintf("distinct types: %d\n", acc.Distinct())
		if r := acc.Reservoir(); r != nil {
			streamStats += fmt.Sprintf("reservoir: seen=%d retained=%d dropped=%d evictions=%d\n",
				r.Seen(), r.Distinct(), r.Dropped(), r.Evictions())
		}
		if w := acc.WindowsClosed(); w > 0 {
			streamStats += fmt.Sprintf("windows closed: %d\n", w)
		}
		if *emitSketch != "" {
			if *statsF {
				printStats(nil)
			}
			return stream.WriteSketch(stdout, acc, *emitSketch)
		}
		s = acc.Finish()
	} else {
		in := ingest.Options{ChunkSize: *chunk, Workers: *workers, JSONL: *jsonl}
		var types []*jsontype.Type
		bag := &jsontype.Bag{}
		if iterate {
			types, err = ingest.Types(input, in)
			records = len(types)
		} else {
			records, err = ingest.Each(context.Background(), input, in, func(c ingest.Chunk) error {
				bag.Merge(c.Bag)
				return nil
			})
		}
		if err != nil {
			return fmt.Errorf("decoding records: %w", err)
		}
		if records == 0 {
			return fmt.Errorf("no records in input")
		}

		switch {
		case iterate:
			var report core.IterativeReport
			s, report = core.IterativeDiscover(types, cfg, *iterative, 10, *seed)
			if *statsF {
				fmt.Fprintf(stderr, "iterative: rounds=%d converged=%v final sample=%d of %d\n",
					report.Rounds, report.Converged,
					report.SampleSizes[len(report.SampleSizes)-1], len(types))
			}
		case *algorithm == "k-reduce":
			s = merge.K(bag)
		default: // l-reduce
			s = merge.Naive(bag)
		}
	}
	s = schema.Simplify(s)

	if *statsF {
		printStats(s)
	}
	return stream.WriteSchema(stdout, s, *format)
}

// sketchList collects repeated -merge-sketch flags in order.
type sketchList []string

func (s *sketchList) String() string { return fmt.Sprint([]string(*s)) }

func (s *sketchList) Set(v string) error {
	*s = append(*s, v)
	return nil
}
