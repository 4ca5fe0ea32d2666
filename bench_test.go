package jxplain

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus micro-benchmarks of the extraction kernels and an ablation bench
// for the two execution strategies. The table/figure benches run the same
// harness as cmd/jxbench at reduced scale and report the headline numbers
// as custom metrics, so `go test -bench=. -benchmem` regenerates every
// experiment; run `go run ./cmd/jxbench -all` for the full-size tables.

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"jxplain/internal/core"
	"jxplain/internal/dataset"
	"jxplain/internal/entity"
	"jxplain/internal/entropy"
	"jxplain/internal/experiments"
	"jxplain/internal/ingest"
	"jxplain/internal/jsontype"
	"jxplain/internal/merge"
	"jxplain/internal/metrics"
)

func benchOpts(scale float64) experiments.Options {
	return experiments.Options{Trials: 2, Scale: scale, Seed: 1}
}

// BenchmarkTable1Recall regenerates the recall comparison (Table 1) and
// reports mean recall per algorithm at the 10% training fraction.
func BenchmarkTable1Recall(b *testing.B) {
	o := benchOpts(0.15)
	o.Fractions = []float64{0.10}
	o.Datasets = []string{"pharma", "synapse", "yelp-merged"}
	var res *experiments.Table1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunTable1(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	var kSum, mSum, lSum float64
	for _, ds := range res.Datasets {
		cell := res.Cells[ds][0.10]
		kSum += cell[experiments.KReduce].Mean
		mSum += cell[experiments.BimaxMerge].Mean
		lSum += cell[experiments.LReduce].Mean
	}
	n := float64(len(res.Datasets))
	b.ReportMetric(kSum/n, "recall-kreduce")
	b.ReportMetric(mSum/n, "recall-bimaxmerge")
	b.ReportMetric(lSum/n, "recall-lreduce")
}

// BenchmarkTable2SchemaEntropy regenerates the precision comparison
// (Table 2) and reports mean schema entropy per algorithm.
func BenchmarkTable2SchemaEntropy(b *testing.B) {
	o := benchOpts(0.15)
	o.Fractions = []float64{0.50}
	o.Datasets = []string{"github", "yelp-merged", "twitter"}
	var res *experiments.Table2Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunTable2(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	var kSum, mSum float64
	for _, ds := range res.Datasets {
		cell := res.Cells[ds][0.50]
		kSum += cell[experiments.KReduce].Mean
		mSum += cell[experiments.BimaxMerge].Mean
	}
	n := float64(len(res.Datasets))
	b.ReportMetric(kSum/n, "entropy-kreduce")
	b.ReportMetric(mSum/n, "entropy-bimaxmerge")
}

// BenchmarkTable3EntityDetection regenerates the clustering-accuracy
// comparison (Table 3) and reports the total symmetric difference per
// approach over the Yelp-Merged ground truth.
func BenchmarkTable3EntityDetection(b *testing.B) {
	o := benchOpts(0.3)
	o.Datasets = []string{"yelp-merged"}
	var res *experiments.Table3Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunTable3(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	var k, m, km int
	for _, row := range res.Rows {
		k += row.KReduce
		m += row.Bimax
		km += row.KMeans
	}
	b.ReportMetric(float64(k), "symdiff-kreduce")
	b.ReportMetric(float64(m), "symdiff-bimaxmerge")
	b.ReportMetric(float64(km), "symdiff-kmeans")
}

// BenchmarkTable4Conciseness regenerates the entity-count comparison
// (Table 4) and reports Bimax-Naive vs Bimax-Merge entity counts on
// Yelp-Merged.
func BenchmarkTable4Conciseness(b *testing.B) {
	o := benchOpts(0.25)
	o.Trials = 1
	o.Datasets = []string{"yelp-merged", "yelp-business"}
	var res *experiments.Table4Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunTable4(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		if row.Dataset == "yelp-merged" {
			b.ReportMetric(row.BimaxNaiveMean, "entities-naive")
			b.ReportMetric(row.BimaxMergeMean, "entities-merge")
		}
	}
}

// BenchmarkTable5Runtime regenerates the runtime comparison (Table 5) and
// reports the JXPLAIN/K-reduce slowdown factor.
func BenchmarkTable5Runtime(b *testing.B) {
	o := benchOpts(0.2)
	o.Fractions = []float64{0.50}
	o.Datasets = []string{"twitter", "nyt", "yelp-merged"}
	var res *experiments.Table5Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunTable5(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	var ratio float64
	for _, ds := range res.Datasets {
		cell := res.Cells[ds][0.50]
		ratio += cell[experiments.BimaxMerge].Mean / cell[experiments.KReduce].Mean
	}
	b.ReportMetric(ratio/float64(len(res.Datasets)), "slowdown-x")
}

// BenchmarkFigure4EntropyHistogram regenerates the key-space entropy
// distribution (Figure 4) and reports how bimodal it is.
func BenchmarkFigure4EntropyHistogram(b *testing.B) {
	o := benchOpts(0.2)
	var res *experiments.Figure4Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunFigure4(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Points)), "paths")
	b.ReportMetric(float64(res.GrayZone), "gray-zone-paths")
}

// BenchmarkFigure5FeatureMemory regenerates the feature-vector memory
// comparison (Figure 5) and reports the sparse-encoding savings of
// nested-collection pruning on Yelp-Merged.
func BenchmarkFigure5FeatureMemory(b *testing.B) {
	o := benchOpts(0.2)
	var res *experiments.Figure5Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunFigure5(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	var pruned, unpruned float64
	for _, row := range res.Rows {
		if row.Dataset == "yelp-merged" && row.Encoding == 0 { // sparse
			if row.PruneNested {
				pruned = float64(row.Bytes)
			} else {
				unpruned = float64(row.Bytes)
			}
		}
	}
	b.ReportMetric(unpruned/pruned, "memory-savings-x")
}

// BenchmarkAblationPipeline compares the recursive §4.1 implementation
// with the staged Figure-3 pipeline.
func BenchmarkAblationPipeline(b *testing.B) {
	g, _ := dataset.ByName("yelp-merged")
	types := dataset.Types(g.Generate(1200, 1))
	b.Run("recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.DiscoverTypes(types, core.Default())
		}
	})
	b.Run("pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.PipelineTypes(types, core.Default())
		}
	})
}

// --- extraction kernel micro-benchmarks ---

func benchTypes(b *testing.B, name string, n int) []*jsontype.Type {
	b.Helper()
	g, ok := dataset.ByName(name)
	if !ok {
		b.Fatalf("unknown dataset %s", name)
	}
	return dataset.Types(g.Generate(n, 1))
}

// BenchmarkKReduceFold measures the distributable K-reduction fold.
func BenchmarkKReduceFold(b *testing.B) {
	types := benchTypes(b, "twitter", 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merge.FoldK(types, 0)
	}
}

// BenchmarkJxplainPipeline measures the full JXPLAIN pipeline.
func BenchmarkJxplainPipeline(b *testing.B) {
	types := benchTypes(b, "twitter", 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PipelineTypes(types, core.Default())
	}
}

// BenchmarkTypeExtraction measures JSON → structural-type decoding over
// 2,000 github records, the record shape of bench/'s ingest workload. The
// interner is warm after the first pass, as it is for all but the first
// chunk of a CLI run.
func BenchmarkTypeExtraction(b *testing.B) {
	g, ok := dataset.ByName("github")
	if !ok {
		b.Fatal("unknown dataset github")
	}
	records := g.Generate(2000, 1)
	docs := make([][]byte, len(records))
	size := 0
	for i, r := range records {
		doc, err := json.Marshal(r.Value)
		if err != nil {
			b.Fatal(err)
		}
		docs[i] = doc
		size += len(doc)
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, doc := range docs {
			if _, err := jsontype.FromJSON(doc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkValidation measures schema membership testing.
func BenchmarkValidation(b *testing.B) {
	types := benchTypes(b, "github", 1500)
	s := core.PipelineTypes(types, core.Default())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Accepts(types[i%len(types)]) {
			b.Fatal("training record rejected")
		}
	}
}

// BenchmarkSchemaEntropy measures admitted-type counting.
func BenchmarkSchemaEntropy(b *testing.B) {
	types := benchTypes(b, "yelp-merged", 1500)
	s := core.PipelineTypes(types, core.Default())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.SchemaEntropy(s)
	}
}

// BenchmarkTypes reads JSONL records in order through ingest.Types, framed
// as concatenated JSON values and as lines.
func BenchmarkTypes(b *testing.B) {
	g, _ := dataset.ByName("twitter")
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	for _, rec := range g.Generate(1000, 1) {
		if err := enc.Encode(rec.Value); err != nil {
			b.Fatal(err)
		}
	}
	data := buf.String()
	b.SetBytes(int64(len(data)))
	for _, jsonl := range []bool{false, true} {
		b.Run(fmt.Sprintf("jsonl=%v", jsonl), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := ingest.Types(strings.NewReader(data), ingest.Options{JSONL: jsonl}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectionDetection measures Algorithm 5 over a pharma-style
// wide-domain bag.
func BenchmarkCollectionDetection(b *testing.B) {
	types := benchTypes(b, "pharma", 1000)
	bag := &jsontype.Bag{}
	for _, t := range types {
		bag.Add(t)
	}
	keys, groups, _ := bag.GroupByKey()
	var inner *jsontype.Bag
	for i, k := range keys {
		if k == "cms_prescription_counts" {
			inner = groups[i]
		}
	}
	if inner == nil {
		b.Fatal("prescription counts missing")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entropy.DetectObjects(inner, entropy.DefaultConfig())
	}
}

// BenchmarkBimaxClustering measures Algorithms 6–8 over the Yelp-Merged
// key sets.
func BenchmarkBimaxClustering(b *testing.B) {
	types := benchTypes(b, "yelp-merged", 3000)
	dict := entity.NewDict()
	var sets []entity.KeySet
	for _, t := range types {
		sets = append(sets, entity.KeySetOf(dict, t.Keys()...))
	}
	b.Run("bimax-naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			entity.BimaxNaive(sets)
		}
	})
	b.Run("greedy-merge", func(b *testing.B) {
		naive := entity.BimaxNaive(sets)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			entity.GreedyMerge(naive)
		}
	})
}

// BenchmarkPathStatsTrieVsWalk compares pass ①'s two algorithms on one
// bag: the one-shot walk, and the mergeable trie (fold every type in,
// then derive).
func BenchmarkPathStatsTrieVsWalk(b *testing.B) {
	bag := jsontype.NewBag(benchTypes(b, "twitter", 2000)...)
	cfg := core.Default()
	b.Run("walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.CollectPathStats(bag, cfg)
		}
	})
	b.Run("trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := core.NewPathSketch()
			s.AddBag(bag)
			s.Stats(cfg)
		}
	})
}
