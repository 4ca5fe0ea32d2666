package entity

// Inverted posting index over a fixed slice of key sets. Bimax and
// GreedyMerge are built on one question — "which other sets share a key
// with this one?" — and the naive implementations answer it by scanning
// every remaining set with word-level bitset operations, which is
// quadratic in the number of sets. The index answers it in time
// proportional to the posting lists actually touched: postings[k] lists
// the ids of the sets containing key k, so the sets intersecting a query
// are exactly the union of the query keys' posting lists, and sets
// disjoint from the query are never visited at all. One walk (AddGains)
// also counts, per set, the keys it shares with the query: Bimax reads a
// subset of the seed as a set whose count equals its size, GreedyMerge a
// cluster's cover gain.
//
// Both consumers retire sets monotonically (Bimax finalizes sets,
// GreedyMerge deactivates clusters and never reactivates them), so the
// walks compact dead ids out of the posting lists in place, keeping
// repeated queries proportional to the *live* postings. The index holds
// only integer slices — no maps — so iteration order is deterministic by
// construction (the detorder invariant).

// Index is an inverted index over the key sets it was built from: for
// each key id, the ascending ids of the sets containing it. Empty sets
// appear in no posting list and are tracked separately, because the empty
// set is a subset of every set and therefore a candidate in every Bimax
// round. An Index is single-goroutine; build one per clustering run.
type Index struct {
	postings [][]int32
	empties  []int32

	// mark/epoch list each id once per AddGains walk without clearing
	// state between walks.
	mark  []int32
	epoch int32
}

// NewIndex builds the index for sets. The sets slice is not retained.
// Construction is two counting passes over the sets' bits into one flat
// posting arena (CSR layout), so the index costs O(Σ|set|) time and one
// allocation for all posting lists together.
func NewIndex(sets []KeySet) *Index {
	dim := 0
	for _, s := range sets {
		if n := len(s) * wordBits; n > dim {
			dim = n
		}
	}
	starts := make([]int32, dim+1)
	for _, s := range sets {
		s.Each(func(k int) { starts[k+1]++ })
	}
	for k := 0; k < dim; k++ {
		starts[k+1] += starts[k]
	}
	flat := make([]int32, starts[dim])
	fill := append([]int32(nil), starts[:dim]...)
	ix := &Index{postings: make([][]int32, dim), mark: make([]int32, len(sets))}
	for id, s := range sets {
		if s.Empty() {
			ix.empties = append(ix.empties, int32(id))
			continue
		}
		s.Each(func(k int) {
			flat[fill[k]] = int32(id)
			fill[k]++
		})
	}
	for k := 0; k < dim; k++ {
		ix.postings[k] = flat[starts[k]:fill[k]]
	}
	return ix
}

// AddGains adds delta to gains[id] once per (key of q, live set id
// containing the key) pair — after a walk with delta=+1 starting from
// zero, gains[id] = |sets[id] ∩ q| for every live id sharing a key with
// q. When dst is non-nil, the live ids sharing a key with q are appended
// to it, each exactly once, in no particular order: first-touch
// detection stamps mark[id] with a fresh epoch. Ids for which live(id) is
// false are permanently compacted out of the walked posting lists —
// callers must guarantee a dead id never becomes live again.
//
//jx:hotpath
func (ix *Index) AddGains(q KeySet, live func(id int32) bool, delta int, gains []int, dst []int32) []int32 {
	if dst != nil {
		ix.epoch++
	}
	q.Each(func(k int) {
		if k >= len(ix.postings) {
			return
		}
		pl := ix.postings[k]
		kept := pl[:0]
		for _, id := range pl {
			if !live(id) {
				continue
			}
			kept = append(kept, id)
			gains[id] += delta
			if dst != nil && ix.mark[id] != ix.epoch {
				ix.mark[id] = ix.epoch
				dst = append(dst, id)
			}
		}
		ix.postings[k] = kept
	})
	return dst
}

// LiveEmpties appends to dst the ids of the live empty sets, which share
// no key with any query but are subsets of every set, compacting dead ids
// out as AddGains does.
func (ix *Index) LiveEmpties(live func(id int32) bool, dst []int32) []int32 {
	kept := ix.empties[:0]
	for _, id := range ix.empties {
		if live(id) {
			kept = append(kept, id)
			dst = append(dst, id)
		}
	}
	ix.empties = kept
	return dst
}
