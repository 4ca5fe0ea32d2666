// Package dist is a miniature data-parallel execution framework standing in
// for the Apache Spark substrate of the paper's implementation. It provides
// partitioned map and fold (fan-in aggregation) over in-memory slices.
//
// The paper's key observation about K-reduction is that its merge operator
// is commutative and associative, so schema extraction can run as a
// partitioned fold followed by a combine tree — exactly the shape Fold
// implements (merge.FoldK runs K-reduction through it). JXPLAIN's global
// heuristics break this property, which is why core.Pipeline instead runs
// its whole-collection passes one after another on a single goroutine; its
// parallelism lives in ingest decoding and in the sketch tree reduce, which
// uses ForEach here.
package dist

import (
	"runtime"
	"sync"
)

// DefaultWorkers is the worker count used when a caller passes workers <= 0.
func DefaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// split partitions n items into at most workers contiguous ranges.
func split(n, workers int) [][2]int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 0 {
		return nil
	}
	per := n / workers
	rem := n % workers
	parts := make([][2]int, 0, workers)
	start := 0
	for i := 0; i < workers; i++ {
		size := per
		if i < rem {
			size++
		}
		parts = append(parts, [2]int{start, start + size})
		start += size
	}
	return parts
}

// Map applies fn to every item in parallel and returns the results in input
// order. Workers write disjoint ranges of the pre-sized out slice.
func Map[T, U any](items []T, workers int, fn func(T) U) []U {
	out := make([]U, len(items))
	parts := split(len(items), workers)
	var wg sync.WaitGroup
	for _, p := range parts {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = fn(items[i])
			}
		}(p[0], p[1])
	}
	wg.Wait()
	return out
}

// Fold reduces items with a partitioned fold: each worker folds its range
// into a fresh accumulator with add, then the per-worker accumulators are
// combined left-to-right. combine must be associative for the result to be
// independent of the partitioning; add(acc, item) may mutate and return acc.
// combine runs on the calling goroutine after every worker has finished.
func Fold[T, A any](items []T, workers int, newAcc func() A, add func(A, T) A, combine func(A, A) A) A {
	parts := split(len(items), workers)
	if len(parts) == 0 {
		return newAcc()
	}
	accs := make([]A, len(parts))
	var wg sync.WaitGroup
	for pi, p := range parts {
		wg.Add(1)
		go func(pi, lo, hi int) {
			defer wg.Done()
			acc := newAcc()
			for i := lo; i < hi; i++ {
				acc = add(acc, items[i])
			}
			accs[pi] = acc
		}(pi, p[0], p[1])
	}
	wg.Wait()
	result := accs[0]
	for _, a := range accs[1:] {
		result = combine(result, a)
	}
	return result
}

// ForEach runs fn over every index in parallel; use when results are
// written into caller-owned structures indexed by i. Workers cover
// disjoint index ranges; fn must write only to the slots of its own i.
func ForEach(n, workers int, fn func(i int)) {
	parts := split(n, workers)
	var wg sync.WaitGroup
	for _, p := range parts {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(p[0], p[1])
	}
	wg.Wait()
}
