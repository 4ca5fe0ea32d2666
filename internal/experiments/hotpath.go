package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"jxplain/internal/core"
	"jxplain/internal/dataset"
	"jxplain/internal/jsontype"
	"jxplain/internal/schema"
	"jxplain/internal/stats"
)

// hotpathBaselinePath is where the frozen PR-1 measurement lives (relative
// to the repo root, which is where jxbench runs). When present, the
// hotpath table reports improvement ratios against it; when absent, the
// ratio columns are zero and the note records the omission.
const hotpathBaselinePath = "results/BENCH_hotpath_pr1.json"

// hotpathIters matches the baseline capture: each measurement is the mean
// of this many full pipeline executions.
const hotpathIters = 3

// HotpathRow is the hot-path measurement for one dataset. One op is
// DecodeAll over the dataset's JSONL bytes, the staged pipeline, and
// Simplify — the full ingest-to-schema path, so the interner's savings on
// per-record type construction are visible, not just synthesis time.
type HotpathRow struct {
	Dataset       string `json:"dataset"`
	Records       int    `json:"records"`
	DistinctTypes int    `json:"distinct_types"`
	InputBytes    int    `json:"input_bytes"`

	// Measured op, directly comparable to the PR-1 baseline captured with
	// the same op and iteration count.
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	PeakHeapBytes uint64  `json:"peak_heap_bytes"`

	// Ratios against the PR-1 baseline (0 when no baseline file).
	BaselineNsPerOp     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocsPerOp float64 `json:"baseline_allocs_per_op,omitempty"`
	AllocReduction      float64 `json:"alloc_reduction,omitempty"` // baseline allocs / current allocs
	SpeedupSeq          float64 `json:"speedup_seq,omitempty"`     // baseline ns / current ns
}

// HotpathResult is the full hot-path benchmark (BENCH_hotpath.json).
type HotpathResult struct {
	Note    string       `json:"note"`
	Options Options      `json:"options"`
	Workers int          `json:"workers"`
	Rows    []HotpathRow `json:"rows"`
}

// RunHotpath measures the allocation-free hot path — interned types and
// bitset key sets — over the configured datasets and,
// when the committed PR-1 baseline is available, reports the improvement
// ratios.
func RunHotpath(o Options) (*HotpathResult, error) {
	o = o.Defaults()
	gens, err := o.generators()
	if err != nil {
		return nil, err
	}
	baseline := loadHotpathBaseline()
	res := &HotpathResult{
		Note: fmt.Sprintf("hot path: DecodeAll + Pipeline + Simplify per op, n=DefaultN, seed=%d, %d iters",
			o.Seed, hotpathIters),
		Options: o,
		Workers: runtime.GOMAXPROCS(0),
	}
	if baseline == nil {
		res.Note += "; no PR-1 baseline file, ratio columns omitted"
	}
	for _, g := range gens {
		row, err := hotpathDataset(g, o)
		if err != nil {
			return nil, err
		}
		if base, ok := baseline[g.Name]; ok {
			row.BaselineNsPerOp = base.NsPerOp
			row.BaselineAllocsPerOp = base.AllocsPerOp
			if row.AllocsPerOp > 0 {
				row.AllocReduction = base.AllocsPerOp / row.AllocsPerOp
			}
			if row.NsPerOp > 0 {
				row.SpeedupSeq = base.NsPerOp / row.NsPerOp
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func hotpathDataset(g *dataset.Generator, o Options) (HotpathRow, error) {
	records := g.Generate(o.scaledN(g), o.Seed)
	var input bytes.Buffer
	for _, rec := range records {
		data, err := json.Marshal(rec.Value)
		if err != nil {
			return HotpathRow{}, fmt.Errorf("hotpath: marshal %s: %w", g.Name, err)
		}
		input.Write(data)
		input.WriteByte('\n')
	}
	row := HotpathRow{
		Dataset:    g.Name,
		Records:    len(records),
		InputBytes: input.Len(),
	}

	op := func() error {
		types, err := jsontype.DecodeAll(bytes.NewReader(input.Bytes()))
		if err != nil {
			return err
		}
		schema.Simplify(core.PipelineTypes(types, core.Default()))
		return nil
	}

	// Record the distinct-type count once, outside the measured loops.
	{
		types, err := jsontype.DecodeAll(bytes.NewReader(input.Bytes()))
		if err != nil {
			return HotpathRow{}, fmt.Errorf("hotpath: decode %s: %w", g.Name, err)
		}
		row.DistinctTypes = jsontype.NewBag(types...).Distinct()
	}

	var opErr error
	// One unmeasured op first: the first execution pays one-time costs
	// (interner growth, allocator warm-up) that would otherwise land on
	// the measured block.
	if err := op(); err != nil {
		return HotpathRow{}, fmt.Errorf("hotpath: %s (warmup): %w", g.Name, err)
	}
	sampler := stats.StartMemSampler(0)
	row.NsPerOp, row.AllocsPerOp, row.BytesPerOp = measureOp(hotpathIters, func() {
		opErr = op()
	})
	row.PeakHeapBytes = sampler.Stop()
	if opErr != nil {
		return HotpathRow{}, fmt.Errorf("hotpath: %s: %w", g.Name, opErr)
	}
	return row, nil
}

// measureOp runs fn iters times and returns mean wall time, heap
// allocations, and heap bytes per run (mallocs and bytes from the
// runtime's own counters, so allocations on any goroutine are included).
func measureOp(iters int, fn func()) (nsPerOp, allocsPerOp, bytesPerOp float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return float64(elapsed.Nanoseconds()) / n,
		float64(after.Mallocs-before.Mallocs) / n,
		float64(after.TotalAlloc-before.TotalAlloc) / n
}

// hotpathBaseline mirrors the committed PR-1 measurement rows.
type hotpathBaseline struct {
	Rows []struct {
		Dataset     string  `json:"dataset"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	} `json:"rows"`
}

func loadHotpathBaseline() map[string]struct{ NsPerOp, AllocsPerOp float64 } {
	data, err := os.ReadFile(hotpathBaselinePath)
	if err != nil {
		return nil
	}
	var b hotpathBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil
	}
	out := map[string]struct{ NsPerOp, AllocsPerOp float64 }{}
	for _, r := range b.Rows {
		out[r.Dataset] = struct{ NsPerOp, AllocsPerOp float64 }{r.NsPerOp, r.AllocsPerOp}
	}
	return out
}

func (r *HotpathResult) table() *table {
	t := &table{
		title: fmt.Sprintf("Hot path: interning + bitsets (GOMAXPROCS %d)", r.Workers),
		headers: []string{"dataset", "records", "distinct", "ms/op",
			"Mallocs/op", "peak MiB", "allocs ÷", "speedup"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Dataset,
			fmt.Sprintf("%d", row.Records),
			fmt.Sprintf("%d", row.DistinctTypes),
			fmt.Sprintf("%.1f", row.NsPerOp/1e6),
			fmt.Sprintf("%.2f", row.AllocsPerOp/1e6),
			fmt.Sprintf("%.1f", float64(row.PeakHeapBytes)/(1<<20)),
			fmt.Sprintf("%.2fx", row.AllocReduction),
			fmt.Sprintf("%.2fx", row.SpeedupSeq))
	}
	return t
}

// Render draws the benchmark as an ASCII table.
func (r *HotpathResult) Render() string { return r.table().Render() }

// CSV renders the benchmark as CSV.
func (r *HotpathResult) CSV() string { return r.table().CSV() }

// JSON renders the full measurement for BENCH_hotpath.json.
func (r *HotpathResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
