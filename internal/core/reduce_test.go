package core

import (
	"bytes"
	"errors"
	"testing"

	"jxplain/internal/dataset"
)

// shardedSketches folds the dataset's records into `shards` contiguous
// map accumulators (cut at the given boundaries, or evenly when nil) and
// returns their serialized sketches in shard order.
func shardedSketches(t *testing.T, g *dataset.Generator, n, shards int, cuts []int, cfg Config) [][]byte {
	t.Helper()
	records := g.Generate(n, 1)
	bounds := cuts
	if bounds == nil {
		for i := 1; i <= shards; i++ {
			bounds = append(bounds, len(records)*i/shards)
		}
	}
	files := make([][]byte, 0, len(bounds))
	start := 0
	for _, end := range bounds {
		acc := NewAccumulator(cfg)
		for _, r := range records[start:end] {
			acc.Add(r.Type)
		}
		data, err := acc.Marshal()
		if err != nil {
			t.Fatalf("%s: marshal shard: %v", g.Name, err)
		}
		files = append(files, data)
		start = end
	}
	return files
}

// TestMergeSketchesTreeEquivalence pins the tentpole property on every
// dataset: the parallel tree reduce is byte-identical to the sequential
// fold — same accumulator bytes, same schema bytes — at every shard
// width and worker count, because adjacent-pair merging preserves
// first-seen type order.
func TestMergeSketchesTreeEquivalence(t *testing.T) {
	cfg := Default()
	for _, g := range dataset.Registry() {
		// The sequential fold is the contract; single-process discovery
		// equals it by the existing MergeSketch equivalence tests.
		single := wireSampleAccumulator(t, g.Name, 160, cfg)
		wantSchema := schemaBytes(t, single.Finish())

		for _, shards := range []int{1, 2, 3, 4, 7, 16, 32} {
			files := shardedSketches(t, g, 160, shards, nil, cfg)

			seq := NewAccumulator(cfg)
			for _, data := range files {
				if err := seq.MergeSketch(data); err != nil {
					t.Fatalf("%s/%d: sequential merge: %v", g.Name, shards, err)
				}
			}
			seqBytes, err := seq.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if got := schemaBytes(t, seq.Finish()); !bytes.Equal(got, wantSchema) {
				t.Fatalf("%s/%d: sequential reduce diverges from single process", g.Name, shards)
			}

			for _, workers := range []int{0, 2, 3, 8} {
				tree, err := ReduceSketches(files, cfg, workers)
				if err != nil {
					t.Fatalf("%s/%d/w%d: %v", g.Name, shards, workers, err)
				}
				treeBytes, err := tree.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(treeBytes, seqBytes) {
					t.Fatalf("%s/%d/w%d: tree-reduced accumulator bytes diverge from sequential fold",
						g.Name, shards, workers)
				}
				if got := schemaBytes(t, tree.Finish()); !bytes.Equal(got, wantSchema) {
					t.Fatalf("%s/%d/w%d: tree-reduced schema diverges", g.Name, shards, workers)
				}
			}
		}
	}
}

// TestMergeSketchesUnevenShards covers ragged splits — empty shards
// included — since real stream cuts land wherever the byte quotas fall.
func TestMergeSketchesUnevenShards(t *testing.T) {
	cfg := Default()
	g, ok := dataset.ByName("yelp-business")
	if !ok {
		t.Fatal("yelp-business dataset missing")
	}
	single := wireSampleAccumulator(t, g.Name, 300, cfg)
	want := schemaBytes(t, single.Finish())

	for _, cuts := range [][]int{
		{50, 150, 300},
		{0, 7, 7, 290, 300}, // two empty shards among the cuts
		{299, 300},
	} {
		files := shardedSketches(t, g, 300, 0, cuts, cfg)
		for _, workers := range []int{1, 4} {
			acc, err := ReduceSketches(files, cfg, workers)
			if err != nil {
				t.Fatalf("cuts %v w%d: %v", cuts, workers, err)
			}
			if got := schemaBytes(t, acc.Finish()); !bytes.Equal(got, want) {
				t.Fatalf("cuts %v w%d: schema diverges", cuts, workers)
			}
		}
	}
}

// TestMergeSketchesIntoNonEmpty checks the tree result folds into a
// reducer that already holds records, matching the sequential fold.
func TestMergeSketchesIntoNonEmpty(t *testing.T) {
	cfg := Default()
	g, _ := dataset.ByName("github")
	files := shardedSketches(t, g, 120, 6, nil, cfg)

	seq := wireSampleAccumulator(t, g.Name, 40, cfg)
	for _, data := range files {
		if err := seq.MergeSketch(data); err != nil {
			t.Fatal(err)
		}
	}
	tree := wireSampleAccumulator(t, g.Name, 40, cfg)
	if err := tree.MergeSketches(files, 4); err != nil {
		t.Fatal(err)
	}
	requireSameAccumulatorSchema(t, seq, tree)
}

// TestMergeSketchesError pins the failure contract: the failing file's
// index is reported and the typed decode error survives wrapping, on both
// the sequential and the parallel path.
func TestMergeSketchesError(t *testing.T) {
	cfg := Default()
	g, _ := dataset.ByName("github")
	files := shardedSketches(t, g, 120, 6, nil, cfg)
	files[3] = files[3][:len(files[3])-2] // truncate one shard

	for _, workers := range []int{1, 4} {
		_, err := ReduceSketches(files, cfg, workers)
		if err == nil {
			t.Fatalf("w%d: truncated sketch accepted", workers)
		}
		var ferr *SketchFormatError
		if !errors.As(err, &ferr) {
			t.Fatalf("w%d: untyped error %T: %v", workers, err, err)
		}
		if want := "sketch 3"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Fatalf("w%d: error %q does not name the failing file (%q)", workers, err, want)
		}
	}
}

// TestMarshalExactPreallocation pins assemble's sizing arithmetic: the
// output buffer is allocated once at its exact final size, so length and
// capacity agree (an append that grew the buffer would round the capacity
// up).
func TestMarshalExactPreallocation(t *testing.T) {
	cfg := Default()
	for _, g := range dataset.Registry() {
		acc := wireSampleAccumulator(t, g.Name, 100, cfg)
		data, err := acc.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != cap(data) {
			t.Errorf("%s: Marshal allocated %d bytes for a %d-byte file", g.Name, cap(data), len(data))
		}
	}
}

// TestMergeSketchAllocsNoWorseThanDecodeThenMerge guards the merge-into
// decode: folding a sketch into a populated accumulator must not allocate
// more than decoding it into a fresh accumulator and merging that in.
// Both legs run the same decoder, so the test pins what folding in place
// saves, the intermediate accumulator. (It only pins the direction so it
// stays robust across runtimes. The bench `shard` workload traces
// core.reduce_allocs end to end.)
func TestMergeSketchAllocsNoWorseThanDecodeThenMerge(t *testing.T) {
	cfg := Default()
	g, _ := dataset.ByName("yelp-business")
	base := wireSampleAccumulator(t, g.Name, 200, cfg)
	data, err := base.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	// Warm interner and pools outside the measured runs.
	warm := wireSampleAccumulator(t, g.Name, 200, cfg)
	if err := warm.MergeSketch(data); err != nil {
		t.Fatal(err)
	}

	mergeInto := testing.AllocsPerRun(20, func() {
		acc := wireSampleAccumulator(t, g.Name, 200, cfg)
		if err := acc.MergeSketch(data); err != nil {
			t.Fatal(err)
		}
	})
	decodeThenMerge := testing.AllocsPerRun(20, func() {
		acc := wireSampleAccumulator(t, g.Name, 200, cfg)
		other, err := UnmarshalAccumulator(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		acc.Merge(other)
	})
	if mergeInto > decodeThenMerge {
		t.Errorf("merge-into decode allocates more than decode-then-merge: %.0f vs %.0f allocs/op",
			mergeInto, decodeThenMerge)
	}
}
