package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"jxplain/internal/dataset"
	"jxplain/internal/entity"
)

// entityRecordScales are the record-count multipliers of the scaling grid:
// each wide dataset is measured at its default size and at 4× it, so the
// table separates the two growth axes — distinct key sets (across
// datasets) and records per distinct set (across multipliers).
var entityRecordScales = []int{1, 4}

// EntityRow is one cell of the entity-discovery scaling grid.
type EntityRow struct {
	Dataset      string  `json:"dataset"`
	Records      int     `json:"records"`
	DistinctSets int     `json:"distinct_sets"`
	DedupFactor  float64 `json:"dedup_factor"` // records / distinct sets

	// NaiveNs is the quadratic reference pipeline (size-sorted Bimax with
	// full-window rescans, GreedyMerge with per-step cover rescans) over
	// the distinct key sets — the pre-index behavior of this codebase.
	NaiveNs float64 `json:"naive_ns"`
	// IndexedNs is the posting-index pipeline over the same weighted sets.
	IndexedNs float64 `json:"indexed_ns"`
	// Speedup is NaiveNs / IndexedNs.
	Speedup float64 `json:"speedup"`

	// TransposeNs measures the column transpose used by BimaxColumns.
	TransposeNs float64 `json:"transpose_ns"`

	// Clusters is the entity count after GreedyMerge; ClustersEqual
	// confirms the reference and indexed pipelines emitted identical
	// clusterings; WeightsOK confirms cluster weights add up to the
	// record count.
	Clusters      int  `json:"clusters"`
	ClustersEqual bool `json:"clusters_equal"`
	WeightsOK     bool `json:"weights_ok"`
}

// EntityBenchResult is the entity-discovery scaling benchmark
// (BENCH_entity.json).
type EntityBenchResult struct {
	Note    string      `json:"note"`
	Options Options     `json:"options"`
	Workers int         `json:"workers"`
	Rows    []EntityRow `json:"rows"`
}

// RunEntityBench measures weighted, posting-index entity discovery against
// the quadratic reference over the wide synthetic datasets. With no
// explicit -datasets, the grid runs the wide scaling family rather than
// the paper registry: the paper datasets top out at a few thousand
// distinct key sets, too small to separate the asymptotics.
func RunEntityBench(o Options) (*EntityBenchResult, error) {
	if len(o.Datasets) == 0 {
		for _, g := range dataset.WideRegistry() {
			o.Datasets = append(o.Datasets, g.Name)
		}
	}
	o = o.Defaults()
	gens, err := o.generators()
	if err != nil {
		return nil, err
	}
	res := &EntityBenchResult{
		Note: fmt.Sprintf("entity stage: weighted dedup + Bimax + GreedyMerge per op, seed=%d, min of %d trials",
			o.Seed, o.Trials),
		Options: o,
		Workers: runtime.GOMAXPROCS(0),
	}
	for _, g := range gens {
		for _, mult := range entityRecordScales {
			row, err := entityBenchCell(g, o, mult)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func entityBenchCell(g *dataset.Generator, o Options, mult int) (EntityRow, error) {
	n := o.scaledN(g) * mult
	records := g.Generate(n, o.Seed)

	dict := entity.NewDict()
	sets := make([]entity.KeySet, 0, len(records))
	for _, rec := range records {
		obj, ok := rec.Value.(map[string]any)
		if !ok {
			return EntityRow{}, fmt.Errorf("entity bench: %s emits non-object records", g.Name)
		}
		names := make([]string, 0, len(obj))
		for k := range obj {
			names = append(names, k)
		}
		sort.Strings(names)
		sets = append(sets, entity.KeySetOf(dict, names...))
	}
	w, _ := entity.DedupKeySets(sets)

	row := EntityRow{
		Dataset:      g.Name,
		Records:      len(sets),
		DistinctSets: len(w.Sets),
		DedupFactor:  float64(len(sets)) / float64(len(w.Sets)),
	}

	var refClusters, ixClusters []entity.Cluster
	row.NaiveNs = minDuration(o.Trials, func() {
		refClusters = entity.GreedyMergeRef(entity.BimaxNaiveRef(w.Sets))
	})
	row.IndexedNs = minDuration(o.Trials, func() {
		ixClusters = entity.DiscoverEntities(w, true)
	})
	if row.IndexedNs > 0 {
		row.Speedup = row.NaiveNs / row.IndexedNs
	}

	row.Clusters = len(ixClusters)
	row.ClustersEqual = clusteringsEqual(refClusters, ixClusters)
	total := 0
	for _, c := range ixClusters {
		total += c.Weight
	}
	row.WeightsOK = total == len(sets)

	dim := dict.Len()
	row.TransposeNs = minDuration(o.Trials, func() {
		entity.Transpose(w.Sets, dim)
	})
	return row, nil
}

// clusteringsEqual compares cluster structure (Max and Members, in
// order). Weights are excluded: the reference run is unweighted, so its
// Weight field counts member sets, not records.
func clusteringsEqual(a, b []entity.Cluster) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Max.Equal(b[i].Max) || len(a[i].Members) != len(b[i].Members) {
			return false
		}
		for j := range a[i].Members {
			if a[i].Members[j] != b[i].Members[j] {
				return false
			}
		}
	}
	return true
}

// minDuration runs fn trials times and returns the fastest wall time in
// nanoseconds — the standard noise floor for a deterministic op.
func minDuration(trials int, fn func()) float64 {
	best := 0.0
	for t := 0; t < trials; t++ {
		start := time.Now()
		fn()
		ns := float64(time.Since(start).Nanoseconds())
		if t == 0 || ns < best {
			best = ns
		}
	}
	return best
}

func (r *EntityBenchResult) table() *table {
	t := &table{
		title: "Entity discovery scaling: weighted dedup + posting-index Bimax/GreedyMerge",
		headers: []string{"dataset", "records", "distinct", "dedup",
			"naive ms", "indexed ms", "speedup", "transpose µs", "clusters", "equal"},
	}
	for _, row := range r.Rows {
		t.addRow(row.Dataset,
			fmt.Sprintf("%d", row.Records),
			fmt.Sprintf("%d", row.DistinctSets),
			fmt.Sprintf("%.1fx", row.DedupFactor),
			fmt.Sprintf("%.1f", row.NaiveNs/1e6),
			fmt.Sprintf("%.1f", row.IndexedNs/1e6),
			fmt.Sprintf("%.1fx", row.Speedup),
			fmt.Sprintf("%.0f", row.TransposeNs/1e3),
			fmt.Sprintf("%d", row.Clusters),
			fmt.Sprintf("%v", row.ClustersEqual && row.WeightsOK))
	}
	return t
}

// Render draws the benchmark as an ASCII table.
func (r *EntityBenchResult) Render() string { return r.table().Render() }

// CSV renders the benchmark as CSV.
func (r *EntityBenchResult) CSV() string { return r.table().CSV() }

// JSON renders the full measurement for BENCH_entity.json.
func (r *EntityBenchResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
