package entity

import (
	"math/bits"
	"sort"
)

// Cluster is one discovered entity: a group of input key sets together
// with its maximal element (the union of all member key sets — for
// Bimax-Naive clusters this equals the seed k_max, since all members are
// subsets of the seed; GreedyMerge synthesizes larger maximal elements).
type Cluster struct {
	// Members holds indices into the key-set slice passed to BimaxNaive.
	Members []int
	// Max is the cluster's maximal element.
	Max KeySet
	// Weight is the total record multiplicity of the cluster's members
	// when the clustering ran over weighted (deduplicated) key sets; zero
	// when the input carried no weights. Clustering decisions never depend
	// on it — it exists so per-entity statistics reflect records, not
	// distinct key sets.
	Weight int
}

// indexMinSets is the input size below which the O(n²) reference loop
// beats building the posting index. Both paths produce identical output;
// the constant only trades constant factors.
const indexMinSets = 64

// Bimax implements Algorithm 6: reorder key sets so that similar sets are
// adjacent. Starting from a size-descending order, the algorithm repeatedly
// takes the largest unprocessed set k_max and stably partitions the
// remaining sets into subsets of k_max, overlapping sets, and disjoint
// sets, then advances past the subsets.
//
// The returned slice contains indices into sets, in Bimax order.
func Bimax(sets []KeySet) []int {
	order := sizeDescending(sets)
	bimaxSort(sets, order, nil, nil)
	return order
}

// BimaxNaive implements Algorithm 7: run the Bimax loop, emitting each
// iteration's subset group (the seed k_max and every remaining set
// contained in it) as one cluster.
func BimaxNaive(sets []KeySet) []Cluster {
	return BimaxNaiveWeighted(sets, nil)
}

// BimaxNaiveWeighted is BimaxNaive over deduplicated key sets carrying
// record multiplicities: weights[i] is the number of records whose key set
// is sets[i] (nil means unweighted). The clustering is identical to
// running BimaxNaive over the sets replicated weights[i] times — sizes,
// seeds, and tie-breaks depend only on the distinct sets and their order —
// but costs O(distinct) instead of O(records). Each cluster's Weight is
// the sum of its members' weights.
func BimaxNaiveWeighted(sets []KeySet, weights []int) []Cluster {
	order := sizeDescending(sets)
	var clusters []Cluster
	bimaxSort(sets, order, &clusters, weights)
	return clusters
}

// BimaxNaiveRef is the quadratic reference implementation of Algorithm 7,
// retained for differential tests and the entity scaling benchmark. Output
// is identical to BimaxNaive.
func BimaxNaiveRef(sets []KeySet) []Cluster {
	order := sizeDescending(sets)
	var clusters []Cluster
	bimaxSortRef(sets, order, &clusters, nil)
	return clusters
}

// sizeDescending returns the indices of sets ordered by descending set
// size; ties preserve input order (stable), keeping results deterministic.
func sizeDescending(sets []KeySet) []int {
	sizes := make([]int, len(sets))
	order := make([]int, len(sets))
	for i := range order {
		order[i] = i
		sizes[i] = sets[i].Len()
	}
	sort.SliceStable(order, func(a, b int) bool {
		return sizes[order[a]] > sizes[order[b]]
	})
	return order
}

// bimaxSort runs the shared loop of Algorithms 6 and 7 over order in
// place, choosing between the posting-index walk and the reference scan by
// input size. When clusters is non-nil, each iteration's subset group is
// appended to it as a Cluster (with Weight summed from weights when
// non-nil).
func bimaxSort(sets []KeySet, order []int, clusters *[]Cluster, weights []int) {
	if len(order) < indexMinSets {
		bimaxSortRef(sets, order, clusters, weights)
		return
	}
	bimaxSortIndexed(sets, order, clusters, weights)
}

// bimaxSortRef is the reference O(n²) partition loop: every iteration
// classifies every remaining set against the seed with bitset operations.
func bimaxSortRef(sets []KeySet, order []int, clusters *[]Cluster, weights []int) {
	for i := 0; i < len(order); {
		kmax := sets[order[i]]
		var sub, overlap, disjoint []int
		for _, idx := range order[i:] {
			k := sets[idx]
			switch {
			case k.SubsetOf(kmax):
				sub = append(sub, idx)
			case !k.Intersects(kmax):
				disjoint = append(disjoint, idx)
			default:
				overlap = append(overlap, idx)
			}
		}
		// Rearrange as sub < overlap < disjoint, preserving relative order.
		pos := i
		pos += copy(order[pos:], sub)
		pos += copy(order[pos:], overlap)
		copy(order[pos:], disjoint)
		if clusters != nil {
			*clusters = append(*clusters, Cluster{
				Members: append([]int(nil), sub...),
				Max:     kmax,
				Weight:  weightOf(sub, weights),
			})
		}
		i += len(sub)
	}
}

// bimaxSortIndexed is the sub-quadratic partition loop. The window lives
// in a slot array of 2n entries with holes (-1): set id sits in
// slots[slot[id]] and keeps that slot until it is finalized (slot[id]
// becomes -1) or moves to the front as an overlap. A round asks the
// posting index for the live sets sharing a key with the seed and their
// shared-key counts, so a candidate is a subset of the seed exactly when
// its count equals its size; the live empty sets, subsets of everything,
// join them. Every other set is disjoint from the seed and is neither
// tested nor moved. The candidates' slot bits, read from the seed's word
// to the last candidate's, list subsets and overlaps in window order
// without a sort. Subsets are finalized into order; overlaps are written,
// in order, into the free slots just before the rest of the window, which
// is first packed against the buffer's end when the front has no room.
// A pack leaves at least n slots free in front, so packing costs O(1)
// amortized per moved set. The resulting order — and the emitted
// clusters — are identical to bimaxSortRef.
func bimaxSortIndexed(sets []KeySet, order []int, clusters *[]Cluster, weights []int) {
	n := len(order)
	ix := NewIndex(sets)
	size := make([]int, len(sets))
	shared := make([]int, len(sets))
	slot := make([]int32, len(sets))
	slots := make([]int32, 2*n)
	for p := range slots[:n] {
		slots[p] = -1
	}
	for p, id := range order {
		size[id] = sets[id].Len()
		slot[id] = int32(n + p)
		slots[n+p] = int32(id)
	}
	marked := make([]uint64, (2*n+wordBits-1)/wordBits)
	live := func(id int32) bool { return slot[id] >= 0 }
	// Non-nil from the start: AddGains only lists first-touch ids when
	// handed a non-nil dst, and cands[:0] must preserve that.
	cands := make([]int32, 0, 64)
	var overlap []int32
	// head is the seed's slot: every slot before it is free.
	for done, head := 0, n; done < n; {
		kmax := sets[slots[head]]
		cands = ix.AddGains(kmax, live, 1, shared, cands[:0])
		cands = ix.LiveEmpties(live, cands)
		last := head
		for _, id := range cands {
			s := int(slot[id])
			marked[s/wordBits] |= 1 << (uint(s) % wordBits)
			last = max(last, s)
		}
		start := done
		overlap = overlap[:0]
		for w := head / wordBits; w <= last/wordBits; w++ {
			word := marked[w]
			marked[w] = 0
			for ; word != 0; word &= word - 1 {
				s := w*wordBits + bits.TrailingZeros64(word)
				id := slots[s]
				slots[s] = -1
				if shared[id] == size[id] {
					slot[id] = -1
					order[done] = int(id)
					done++
				} else {
					overlap = append(overlap, id)
				}
			}
		}
		for _, id := range cands {
			shared[id] = 0
		}
		if clusters != nil {
			sub := order[start:done]
			*clusters = append(*clusters, Cluster{
				Members: append([]int(nil), sub...),
				Max:     kmax,
				Weight:  weightOf(sub, weights),
			})
		}
		if len(overlap) == 0 {
			for head < len(slots) && slots[head] < 0 {
				head++
			}
			continue
		}
		// The seed's slot is free now too, so the overlaps end there
		// unless the front lacks room for them.
		front := head + 1
		if front < len(overlap) {
			front = packWindow(slots, slot, front)
		}
		head = front - len(overlap)
		for k, id := range overlap {
			slots[head+k] = id
			slot[id] = int32(head + k)
		}
	}
}

// packWindow moves the live entries of slots[from:] against the end of
// slots, keeping their order, and returns the first live slot (len(slots)
// when none is live). With at most n sets live in 2n slots, at least n
// slots are free in front afterwards.
func packWindow(slots, slot []int32, from int) int {
	dst := len(slots)
	for s := len(slots) - 1; s >= from; s-- {
		if id := slots[s]; id >= 0 {
			dst--
			slots[s] = -1
			slots[dst] = id
			slot[id] = int32(dst)
		}
	}
	return dst
}

func weightOf(members []int, weights []int) int {
	if weights == nil {
		return 0
	}
	w := 0
	for _, m := range members {
		w += weights[m]
	}
	return w
}

// Transpose flips a record × feature incidence matrix: the result has one
// key set per feature id in [0, dim), holding the indices of the records
// containing it. Bimax "sorts field order analogously" to record order
// (§6.2) — running Bimax over the transposed sets yields that column
// ordering.
func Transpose(sets []KeySet, dim int) []KeySet {
	words := (len(sets) + wordBits - 1) / wordBits
	cols := make([]KeySet, dim)
	for ri, ks := range sets {
		ks.Each(func(id int) {
			if id < dim {
				if cols[id] == nil {
					cols[id] = make(KeySet, words)
				}
				cols[id][ri/wordBits] |= 1 << (uint(ri) % wordBits)
			}
		})
	}
	for i, c := range cols {
		if c == nil {
			cols[i] = KeySet{}
		} else {
			cols[i] = c.trim()
		}
	}
	return cols
}

// BimaxColumns returns the feature ids in Bimax order: features whose
// record sets are subsets of the densest feature's cluster first, then
// overlapping, then disjoint — placing co-occurring fields adjacently,
// which is how the paper renders Figure-style co-occurrence blocks.
func BimaxColumns(sets []KeySet, dim int) []int {
	return Bimax(Transpose(sets, dim))
}

// GreedyMerge implements Algorithm 8: coalesce Bimax-Naive clusters whose
// maximal elements can be covered by unions of other clusters' maximal
// elements. Clusters are processed in reverse insertion order
// (smallest-seeded first); when a candidate's maximal element is fully
// covered by a set of other active clusters, those clusters are absorbed
// into the candidate and the search repeats with the enlarged maximal
// element. Emitted clusters are final and cannot be absorbed later.
//
// The "minimal" cover of the paper is NP-hard; this uses the standard
// greedy approximation, preferring clusters that cover more uncovered keys
// and breaking ties toward earlier Bimax positions (more similar entities).
//
// Cover searches run over an inverted index of the clusters' maximal
// elements with incrementally maintained per-cluster gain counts (see
// coverState); GreedyMergeRef retains the rescanning reference loop.
func GreedyMerge(naive []Cluster) []Cluster {
	if len(naive) < indexMinSets {
		return greedyMerge(naive, findCoverRef)
	}
	cs := newCoverState(naive)
	return greedyMerge(naive, cs.findCover)
}

// GreedyMergeRef is the reference implementation of Algorithm 8 — every
// cover step rescans all active clusters — retained for differential tests
// and the entity scaling benchmark. Output is identical to GreedyMerge.
func GreedyMergeRef(naive []Cluster) []Cluster {
	return greedyMerge(naive, findCoverRef)
}

// greedyMerge is the shared absorption loop, parameterized by the cover
// search. Active clusters' maximal elements never change (only the — by
// then inactive — candidate's Max grows), which is what lets an indexed
// cover search treat the naive maximal elements as immutable.
func greedyMerge(naive []Cluster, findCover func(work []Cluster, active []bool, target KeySet) []int) []Cluster {
	active := make([]bool, len(naive))
	for i := range active {
		active[i] = true
	}
	// Work on copies: Members and Max grow as clusters absorb others.
	work := make([]Cluster, len(naive))
	for i, c := range naive {
		work[i] = Cluster{Members: append([]int(nil), c.Members...), Max: c.Max, Weight: c.Weight}
	}

	var merged []Cluster
	for cand := len(work) - 1; cand >= 0; cand-- {
		if !active[cand] {
			continue
		}
		active[cand] = false // candidate is being finalized
		for {
			cover := findCover(work, active, work[cand].Max)
			if cover == nil {
				break
			}
			for _, ci := range cover {
				active[ci] = false
				work[cand].Members = append(work[cand].Members, work[ci].Members...)
				work[cand].Max = work[cand].Max.Union(work[ci].Max)
				work[cand].Weight += work[ci].Weight
			}
		}
		merged = append(merged, work[cand])
	}
	// Restore insertion order of surviving clusters (merged was built in
	// reverse) so output remains aligned with Bimax similarity order.
	for l, r := 0, len(merged)-1; l < r; l, r = l+1, r-1 {
		merged[l], merged[r] = merged[r], merged[l]
	}
	return merged
}

// findCoverRef greedily searches for a set cover of target among the
// maximal elements of active clusters. It returns nil when no cover exists
// (some key of target appears in no active cluster). Ties between equally
// covering clusters break toward the latest insertion position: the Bimax
// order places similar entities together, so the nearest preceding cluster
// is the most similar one — the property Example 11 relies on.
func findCoverRef(work []Cluster, active []bool, target KeySet) []int {
	uncovered := target.Clone()
	picked := make([]uint64, (len(work)+wordBits-1)/wordBits)
	var cover []int
	for !uncovered.Empty() {
		best, bestGain := -1, 0
		for i := range work {
			if !active[i] || picked[i/wordBits]&(1<<(uint(i)%wordBits)) != 0 {
				continue
			}
			gain := work[i].Max.IntersectCount(uncovered)
			if gain > bestGain || (gain == bestGain && gain > 0 && i > best) {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			return nil // some key cannot be covered
		}
		picked[best/wordBits] |= 1 << (uint(best) % wordBits)
		cover = append(cover, best)
		uncovered = uncovered.Minus(work[best].Max)
	}
	return cover
}

// coverState is the indexed cover search: an inverted index over the naive
// clusters' maximal elements plus reusable gain counters and a picked
// bitmask. Per search, gains[j] is maintained as |Max_j ∩ uncovered| for
// every candidate cluster j — initialized by one posting walk over the
// target's keys and decremented incrementally as picked clusters shrink
// the uncovered set — so each cover step selects the best cluster with an
// integer scan over the candidates instead of re-intersecting every active
// cluster's bitset against the residual.
type coverState struct {
	ix     *Index
	gains  []int
	picked []uint64
	cands  []int32
}

func newCoverState(naive []Cluster) *coverState {
	maxes := make([]KeySet, len(naive))
	for i, c := range naive {
		maxes[i] = c.Max
	}
	return &coverState{
		ix:     NewIndex(maxes),
		gains:  make([]int, len(naive)),
		picked: make([]uint64, (len(naive)+wordBits-1)/wordBits),
		// Non-nil from the start: AddGains only tracks first-touch ids
		// when handed a non-nil dst, and cands[:0] must preserve that.
		cands: make([]int32, 0, len(naive)),
	}
}

// findCover is the indexed equivalent of findCoverRef: same greedy choice,
// same tie-break toward the latest insertion position, identical returned
// covers. Inactive clusters are compacted out of the posting lists as the
// walks encounter them (GreedyMerge never reactivates a cluster).
func (cs *coverState) findCover(work []Cluster, active []bool, target KeySet) []int {
	if target.Empty() {
		return nil
	}
	live := func(id int32) bool { return active[id] }
	cs.cands = cs.ix.AddGains(target, live, 1, cs.gains, cs.cands[:0])
	uncovered := target.Clone()
	var cover []int
	for !uncovered.Empty() {
		best, bestGain := -1, 0
		for _, id := range cs.cands {
			j := int(id)
			if cs.picked[j/wordBits]&(1<<(uint(j)%wordBits)) != 0 {
				continue
			}
			gain := cs.gains[j]
			if gain > bestGain || (gain == bestGain && gain > 0 && j > best) {
				best, bestGain = j, gain
			}
		}
		if best < 0 {
			// Some key cannot be covered. cover still holds the partial
			// picks so the scratch reset below clears their bits.
			break
		}
		cs.picked[best/wordBits] |= 1 << (uint(best) % wordBits)
		cover = append(cover, best)
		// Every candidate's gain shrinks by its overlap with the keys the
		// pick just covered; decrementing along the posting lists of the
		// removed keys applies exactly that.
		removed := uncovered.Intersect(work[best].Max)
		cs.ix.AddGains(removed, live, -1, cs.gains, nil)
		uncovered = uncovered.Minus(work[best].Max)
	}
	// Reset scratch state for the next search.
	for _, id := range cs.cands {
		cs.gains[id] = 0
	}
	for _, j := range cover {
		cs.picked[j/wordBits] &^= 1 << (uint(j) % wordBits)
	}
	if !uncovered.Empty() {
		return nil
	}
	return cover
}
