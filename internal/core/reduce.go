package core

import (
	"fmt"

	"jxplain/internal/dist"
)

// SketchMergeError reports which file of a multi-sketch reduction failed,
// wrapping the typed decode error. Drivers that know the files' names can
// translate Index back into one.
type SketchMergeError struct {
	Index int   // position of the failing file in the input slice
	Err   error // the *SketchFormatError or *SketchVersionError
}

func (e *SketchMergeError) Error() string { return fmt.Sprintf("sketch %d: %v", e.Index, e.Err) }

func (e *SketchMergeError) Unwrap() error { return e.Err }

// Parallel tree reduction over serialized sketches — the reduce-side
// counterpart of the sharded map phase. A sequential reduce folds sketch
// files one by one into a single accumulator; at 16+ shards that serial
// fold is the Amdahl bottleneck of the whole run. MergeSketches instead
// decodes contiguous *runs* of files in parallel (each run folded
// left-to-right through the merge-into decoder) and then combines the run
// accumulators pairwise, adjacent-first, as a balanced binary tree.
//
// Why this is allowed to parallelize at all: Accumulator.Merge is
// associative in the order-preserving sense pinned by the wire_test merge
// law properties — the bag union presents the left operand's first-seen
// type order followed by the right operand's unseen types, so any
// grouping that keeps operands adjacent and in order,
//
//	(s0 ⊕ s1) ⊕ (s2 ⊕ s3) = s0 ⊕ s1 ⊕ s2 ⊕ s3,
//
// reproduces the sequential fold exactly, bag order included, and with it
// the byte-identical schema. Commuting operands would only preserve the
// multiset and statistics, not the presentation order, which is why the
// tree combines adjacent pairs and never work-steals across the order.

// MergeSketches folds the serialized sketches into a, in order, merging
// them as a balanced binary tree over at most `workers` concurrent
// goroutines (workers <= 0 means one per core). The result is
// byte-identical to calling MergeSketch on each file in sequence, at
// every width and worker count.
//
// Like MergeSketch, a corrupt input aborts the reduction with a
// *SketchMergeError carrying the failing file's index around the typed
// decode error, and poisons the accumulator: every later MergeSketch,
// MergeSketches and Marshal returns that same error value.
func (a *Accumulator) MergeSketches(files [][]byte, workers int) error {
	if a.err == nil {
		a.err = a.mergeSketches(files, workers)
	}
	return a.err
}

// mergeSketches is MergeSketches without the poison check.
func (a *Accumulator) mergeSketches(files [][]byte, workers int) error {
	if workers <= 0 {
		workers = dist.DefaultWorkers()
	}
	if workers == 1 || len(files) < 2 {
		for i, data := range files {
			if err := a.mergeSketch(data); err != nil {
				return &SketchMergeError{Index: i, Err: err}
			}
		}
		return nil
	}

	// Leaf level: contiguous runs of files, one accumulator per run, each
	// folded left-to-right with the merge-into decoder. Decode dominates
	// reduce cost, so the run fold is where the workers earn their keep;
	// runs ≤ workers keeps every leaf busy without oversubscribing.
	runs := workers
	if runs > len(files) {
		runs = len(files)
	}
	accs := make([]*Accumulator, runs)
	errs := make([]error, runs)
	dist.ForEach(runs, runs, func(i int) {
		lo, hi := len(files)*i/runs, len(files)*(i+1)/runs
		acc := NewAccumulator(a.cfg)
		for j := lo; j < hi; j++ {
			if err := acc.mergeSketch(files[j]); err != nil {
				errs[i] = &SketchMergeError{Index: j, Err: err}
				return
			}
		}
		accs[i] = acc
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// An empty reducer adopts the tree result outright instead of walking
	// it a final time; otherwise fold it in like any other operand.
	// Bounded reducers always fold: their reservoir and ring state cannot
	// be adopted wholesale.
	res := treeCombine(accs, workers)
	if !a.cfg.Bounds.bounded() && a.bag.Len() == 0 && a.bag.Distinct() == 0 {
		a.bag = res.bag
		a.sketch = res.sketch // same configuration, so nil-ness matches
		return nil
	}
	a.Merge(res)
	return nil
}

// treeCombine merges items down to one by folding adjacent pairs in
// parallel rounds — ⌈log2(n)⌉ rounds, each halving the count — and
// returns the survivor (items[0], mutated in place). Each Merge folds an
// accumulator into the one just before it, so order-preserving
// associativity is all it needs; items must be non-empty.
func treeCombine(items []*Accumulator, workers int) *Accumulator {
	for len(items) > 1 {
		half := len(items) / 2
		dist.ForEach(half, workers, func(i int) {
			items[2*i].Merge(items[2*i+1])
		})
		next := items[:0]
		for i := 0; i < half; i++ {
			next = append(next, items[2*i])
		}
		if len(items)%2 == 1 {
			next = append(next, items[len(items)-1])
		}
		items = next
	}
	return items[0]
}

// ReduceSketches builds an accumulator for cfg and tree-merges the
// serialized sketches into it — the one-call reduce phase for drivers
// that hold all map outputs in memory.
func ReduceSketches(files [][]byte, cfg Config, workers int) (*Accumulator, error) {
	acc := NewAccumulator(cfg)
	if err := acc.MergeSketches(files, workers); err != nil {
		return nil, err
	}
	return acc, nil
}
