package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"jxplain"
	"jxplain/internal/core"
	"jxplain/internal/dataset"
	"jxplain/internal/ingest"
	"jxplain/internal/jsontype"
	"jxplain/internal/schema"
)

// workload is one seeded input file and the CLI command that discovers
// its schema. Each exists to load a different layer; bench/README.md
// gives the measured shares.
type workload struct {
	name string
	// gen and copies describe a generated input: copies batches of
	// gen's DefaultN records, each batch under its own derived seed.
	gen    func() *dataset.Generator
	copies int
	// churn, when > 0, is the record count of a churn stream instead.
	churn int
	// shard runs jxshard run, the map/reduce front end, instead of jxplain.
	shard  bool
	bounds core.Bounds
	// drift turns on windowed drift events (-window-drift).
	drift bool
}

var workloads = []workload{
	// Few shapes, many bytes: framing and the type scanner own the time.
	{
		name:   "ingest",
		gen:    dataset.GitHub,
		copies: 10,
	},
	// Thousands of distinct flat types: Bimax, GreedyMerge and synthesis
	// own the time.
	{
		name:   "entity",
		gen:    func() *dataset.Generator { return dataset.Wide(256) },
		copies: 1,
	},
	// The accumulator is filled by sketch merge from map worker processes.
	{
		name:   "shard",
		gen:    dataset.NYT,
		copies: 3,
		shard:  true,
	},
	// Bounded mode: reservoir drops, window rotation and drift diffs.
	{
		name:  "churn",
		churn: 16000,
		bounds: core.Bounds{
			ReservoirCapacity: 64,
			WindowRecords:     1000,
			WindowCount:       4,
			DecayFactor:       0.5,
		},
		drift: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config is the discovery configuration both CLIs build from the flags
// of command: the defaults, seed 1, and the workload's bounds.
func (w workload) config() core.Config {
	cfg := core.Default()
	cfg.Seed = 1
	cfg.Bounds = w.bounds
	return cfg
}

// chunk is the ingestion chunk size jxplain picks for the workload: the
// window cadence when it is below the default chunk, else the default.
func (w workload) chunk() int {
	if wr := w.bounds.WindowRecords; wr > 0 && wr < 2048 {
		return wr
	}
	return 2048
}

// command is the CLI invocation one op runs.
func (w workload) command(bin, input string) []string {
	if w.shard {
		return []string{filepath.Join(bin, "jxshard"), "run", "-shards", "2", "-workers", "1",
			"-jsonl", "-format", "native", input}
	}
	args := []string{filepath.Join(bin, "jxplain"), "-jsonl", "-format", "native"}
	if b := w.bounds; b != (core.Bounds{}) {
		args = append(args, "-capacity", fmt.Sprint(b.ReservoirCapacity),
			"-window", fmt.Sprint(b.WindowRecords), "-ring", fmt.Sprint(b.WindowCount),
			"-decay", fmt.Sprint(b.DecayFactor))
	}
	if w.drift {
		args = append(args, "-window-drift")
	}
	return append(args, input)
}

// prepared describes the input a preparation child wrote.
type prepared struct {
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
}

// prepare writes the workload's seeded input to base+".jsonl" and its
// reference schema, byte for byte what the CLI must print, to base+".ref".
// It runs in a fresh process so that the type interner starts as empty
// as it does for a CLI user.
func prepare(w workload, seed int64, scale float64, base string) (prepared, error) {
	f, err := os.Create(base + ".jsonl")
	if err != nil {
		return prepared{}, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	var p prepared
	var ref []byte
	if w.churn > 0 {
		p.Records = scaled(w.churn, scale)
		writeChurn(bw, p.Records, seed)
	} else {
		var types []*jsontype.Type
		if types, err = writeGenerated(bw, w, seed, scale); err != nil {
			return prepared{}, err
		}
		p.Records = len(types)
		ref, err = jxplain.MarshalSchema(jxplain.Discover(types, w.config()))
		if err != nil {
			return prepared{}, err
		}
	}
	if err := bw.Flush(); err != nil {
		return prepared{}, err
	}
	info, err := f.Stat()
	if err != nil {
		return prepared{}, err
	}
	p.Bytes = info.Size()
	if w.churn > 0 {
		// A bounded run's schema depends on chunk boundaries, so the
		// reference folds the file through the same chunked ingest.
		if _, err := f.Seek(0, 0); err != nil {
			return prepared{}, err
		}
		acc := core.NewAccumulator(w.config())
		opts := ingest.Options{ChunkSize: w.chunk(), JSONL: true}
		if _, err := ingest.Fold(context.Background(), f, opts, acc); err != nil {
			return prepared{}, err
		}
		if ref, err = schema.Marshal(schema.Simplify(acc.Finish())); err != nil {
			return prepared{}, err
		}
	}
	if err := f.Close(); err != nil {
		return prepared{}, err
	}
	return p, os.WriteFile(base+".ref", append(ref, '\n'), 0o644)
}

func scaled(n int, scale float64) int {
	return max(1, int(math.Round(float64(n)*scale)))
}

// writeGenerated writes copies×DefaultN generator records (scaled) as
// JSONL and returns their types. Batches bound the memory held by
// decoded values to one generator default.
func writeGenerated(bw *bufio.Writer, w workload, seed int64, scale float64) ([]*jsontype.Type, error) {
	g := w.gen()
	n := scaled(w.copies*g.DefaultN, scale)
	enc := json.NewEncoder(bw)
	types := make([]*jsontype.Type, 0, n)
	for batch := 0; len(types) < n; batch++ {
		for _, rec := range g.Generate(min(g.DefaultN, n-len(types)), seed*1000+int64(batch)) {
			if err := enc.Encode(rec.Value); err != nil {
				return nil, err
			}
			types = append(types, rec.Type)
		}
	}
	return types, nil
}

// writeChurn writes n records of a churn stream: a stable service tuple
// beside a session key that almost never repeats, so distinct types grow
// with the stream while the reservoir and the window ring stay capped.
func writeChurn(bw *bufio.Writer, n int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		// A failed write sticks to bw and surfaces at Flush.
		fmt.Fprintf(bw, `{"service":{"region":"eu-%d","build":%d,"flags":[true,false],"limits":{"cpu":%.1f,"mem":4.0}},`+
			`"sess_%08x":{"hits":%d,"geo":[%d.0,2.0],"tags":{"env":"prod"}}}`+"\n",
			r.Intn(3), r.Intn(7), 0.5+float64(r.Intn(8))/2, r.Uint32(), r.Intn(1000), r.Intn(90))
	}
}
