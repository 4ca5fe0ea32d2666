package core

import (
	"sort"

	"jxplain/internal/entropy"
	"jxplain/internal/jsontype"
	"jxplain/internal/stats"
)

// statsTrie is the per-partition pass-① state: a trie over *concrete*
// paths (object keys and array positions) carrying the statistics
// Algorithm 5 needs. Every counter is mergeable — record and key-presence
// counts add, length histograms add, the similar-types constraint combines
// through the subsumption rule — which is what lets per-chunk tries fold
// into exactly the statistics one pass over the whole collection would
// have produced (see PathSketch for the fold, wire.go for the serialized
// form).
//
// Node state is deliberately enumerable, not just walkable: the each*
// iterators expose every counter in a deterministic order and the set*
// builders reconstruct a node from those enumerations, so the wire codec
// round-trips a trie without reaching into representation details like
// map layout or accumulator internals.
type statsTrie struct {
	// Object-kinded statistics at this path.
	objCount  int
	keyCounts map[string]int
	objSim    jsontype.SimilarityAccumulator

	// Array-kinded statistics at this path.
	arrCount  int
	lenCounts map[int]int
	arrSim    jsontype.SimilarityAccumulator

	children map[string]*statsTrie // object keys
	elems    []*statsTrie          // array positions
}

// newStatsTrie allocates an empty trie node.
//
//jx:coldpath allocates once per newly observed path node, not per record
func newStatsTrie() *statsTrie { return &statsTrie{} }

//jx:hotpath
func (t *statsTrie) child(key string) *statsTrie {
	if t.children == nil {
		t.children = map[string]*statsTrie{}
	}
	c := t.children[key]
	if c == nil {
		c = newStatsTrie()
		t.children[key] = c
	}
	return c
}

//jx:hotpath
func (t *statsTrie) elem(i int) *statsTrie {
	for len(t.elems) <= i {
		t.elems = append(t.elems, newStatsTrie())
	}
	return t.elems[i]
}

// add folds one value type (with multiplicity n) into the trie.
//
//jx:hotpath
func (t *statsTrie) add(ty *jsontype.Type, n int) {
	switch ty.Kind() {
	case jsontype.KindObject:
		t.objCount += n
		if t.keyCounts == nil {
			t.keyCounts = map[string]int{}
		}
		for _, f := range ty.Fields() {
			t.keyCounts[f.Key] += n
			t.objSim.Add(f.Type)
			t.child(f.Key).add(f.Type, n)
		}
	case jsontype.KindArray:
		t.arrCount += n
		if t.lenCounts == nil {
			t.lenCounts = map[int]int{}
		}
		t.lenCounts[ty.Len()] += n
		for i, e := range ty.Elems() {
			t.arrSim.Add(e)
			t.elem(i).add(e, n)
		}
	default:
		// Primitive occurrences carry no per-node stats of their own;
		// they are counted by the parent's key/length distributions.
	}
}

// combine merges other into t (mutating t). other is consumed: its
// maps and children may be adopted wholesale.
//
//jx:hotpath
//jx:monoid consuming
func (t *statsTrie) combine(other *statsTrie) *statsTrie {
	t.objCount += other.objCount
	if other.keyCounts != nil {
		if t.keyCounts == nil {
			t.keyCounts = other.keyCounts
		} else {
			for k, n := range other.keyCounts {
				t.keyCounts[k] += n
			}
		}
	}
	t.objSim.Combine(&other.objSim)

	t.arrCount += other.arrCount
	if other.lenCounts != nil {
		if t.lenCounts == nil {
			t.lenCounts = other.lenCounts
		} else {
			for l, n := range other.lenCounts {
				t.lenCounts[l] += n
			}
		}
	}
	t.arrSim.Combine(&other.arrSim)

	for k, oc := range other.children {
		if tc, ok := t.children[k]; ok {
			tc.combine(oc)
		} else {
			t.child(k).combine(oc)
		}
	}
	for i, oe := range other.elems {
		t.elem(i).combine(oe)
	}
	return t
}

// combineShared folds other into t while treating other's whole subtree
// as immutable: counters are copied, never adopted. combine's
// map-adoption shortcut is correct for Merge (the argument is consumed)
// but must not be used where the source trie lives on — derive builds
// wildcard merge nodes from live children, and adopting a child's map
// there would let a later fold into the merge node silently corrupt the
// sketch Stats was called on.
//
//jx:monoid
func (t *statsTrie) combineShared(other *statsTrie) *statsTrie {
	t.objCount += other.objCount
	for k, n := range other.keyCounts {
		t.setKeyCount(k, n)
	}
	t.objSim.Combine(&other.objSim)

	t.arrCount += other.arrCount
	for l, n := range other.lenCounts {
		t.setLenCount(l, n)
	}
	t.arrSim.Combine(&other.arrSim)

	for k, oc := range other.children {
		t.child(k).combineShared(oc)
	}
	for i, oe := range other.elems {
		t.elem(i).combineShared(oe)
	}
	return t
}

// decay scales every additive counter by factor (flooring) and compacts
// the subtree: children whose counters and descendants have all decayed
// to zero are unlinked, and trailing zeroed array positions are trimmed,
// so paths that stopped appearing in the stream eventually release their
// nodes instead of pinning the trie forever. The similarity accumulators
// are left untouched — they encode a monotone constraint (a dissimilarity
// once observed cannot be un-observed), not a frequency, so aging them
// would claim evidence the stream never retracted.
func (t *statsTrie) decay(factor float64) {
	t.objCount = int(float64(t.objCount) * factor)
	for k, n := range t.keyCounts {
		if scaled := int(float64(n) * factor); scaled > 0 {
			t.keyCounts[k] = scaled
		} else {
			delete(t.keyCounts, k)
		}
	}
	if len(t.keyCounts) == 0 {
		t.keyCounts = nil
	}
	t.arrCount = int(float64(t.arrCount) * factor)
	for l, n := range t.lenCounts {
		if scaled := int(float64(n) * factor); scaled > 0 {
			t.lenCounts[l] = scaled
		} else {
			delete(t.lenCounts, l)
		}
	}
	if len(t.lenCounts) == 0 {
		t.lenCounts = nil
	}
	for k, c := range t.children {
		c.decay(factor)
		if c.decayedOut() {
			delete(t.children, k)
		}
	}
	if len(t.children) == 0 {
		t.children = nil
	}
	for _, e := range t.elems {
		e.decay(factor)
	}
	for len(t.elems) > 0 && t.elems[len(t.elems)-1].decayedOut() {
		t.elems = t.elems[:len(t.elems)-1]
	}
}

// decayedOut reports whether every counter in the subtree has reached
// zero, licensing compaction.
func (t *statsTrie) decayedOut() bool {
	if t.objCount != 0 || t.arrCount != 0 ||
		len(t.keyCounts) != 0 || len(t.lenCounts) != 0 {
		return false
	}
	for _, c := range t.children {
		if !c.decayedOut() {
			return false
		}
	}
	for _, e := range t.elems {
		if !e.decayedOut() {
			return false
		}
	}
	return true
}

// nodeCount returns the number of trie nodes in the subtree — the memory
// proxy behind the flat-RSS assertions.
func (t *statsTrie) nodeCount() int {
	n := 1
	for _, c := range t.children {
		n += c.nodeCount()
	}
	for _, e := range t.elems {
		n += e.nodeCount()
	}
	return n
}

// ---- enumerable node state (the encode side of the wire codec) ----

// eachKeyCount calls fn for every (key, presence count) pair in sorted
// key order.
func (t *statsTrie) eachKeyCount(fn func(key string, n int)) {
	keys := make([]string, 0, len(t.keyCounts))
	for k := range t.keyCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(k, t.keyCounts[k])
	}
}

// eachLenCount calls fn for every (array length, count) pair in ascending
// length order.
func (t *statsTrie) eachLenCount(fn func(length, n int)) {
	lengths := make([]int, 0, len(t.lenCounts))
	for l := range t.lenCounts {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	for _, l := range lengths {
		fn(l, t.lenCounts[l])
	}
}

// eachChild calls fn for every named child in sorted key order.
func (t *statsTrie) eachChild(fn func(key string, c *statsTrie)) {
	for _, k := range sortedKeys(t.children) {
		fn(k, t.children[k])
	}
}

// ---- node builders (the decode side of the wire codec) ----

// setKeyCount records a key-presence count on a node under construction.
//
//jx:hotpath
func (t *statsTrie) setKeyCount(key string, n int) {
	if t.keyCounts == nil {
		t.keyCounts = map[string]int{}
	}
	t.keyCounts[key] += n
}

// setLenCount records an array-length count on a node under construction.
//
//jx:hotpath
func (t *statsTrie) setLenCount(length, n int) {
	if t.lenCounts == nil {
		t.lenCounts = map[int]int{}
	}
	t.lenCounts[length] += n
}

// attachChild links a decoded child subtree under key.
func (t *statsTrie) attachChild(key string, c *statsTrie) {
	if t.children == nil {
		t.children = map[string]*statsTrie{}
	}
	t.children[key] = c
}

// attachElem appends a decoded subtree at the next array position.
func (t *statsTrie) attachElem(c *statsTrie) {
	t.elems = append(t.elems, c)
}

// ---- evidence derivation ----

// objectEvidence renders the node's object statistics as entropy.Evidence,
// matching entropy.DetectObjects bit for bit.
func (t *statsTrie) objectEvidence() entropy.Evidence {
	// Key order must be pinned before the float64 summation inside Entropy:
	// FP addition is not associative, so map order would leak into the
	// entropy bits (and differ from entropy.DetectObjects).
	weights := make([]float64, 0, len(t.keyCounts))
	t.eachKeyCount(func(_ string, n int) {
		weights = append(weights, float64(n))
	})
	return entropy.Evidence{
		KeyEntropy:   stats.Entropy(weights, float64(t.objCount)),
		Similar:      t.objSim.Similar(),
		Records:      t.objCount,
		DistinctKeys: len(t.keyCounts),
	}
}

// arrayEvidence renders the node's array statistics, matching
// entropy.DetectArrays.
func (t *statsTrie) arrayEvidence() entropy.Evidence {
	weights := make([]float64, 0, len(t.lenCounts))
	t.eachLenCount(func(_, n int) {
		weights = append(weights, float64(n))
	})
	return entropy.Evidence{
		KeyEntropy:   stats.Entropy(weights, float64(t.arrCount)),
		Similar:      t.arrSim.Similar(),
		Records:      t.arrCount,
		DistinctKeys: len(t.lenCounts),
	}
}

// derive walks the aggregated trie top-down, emitting the same PathStat
// rows the sequential CollectPathStats produces.
func (t *statsTrie) derive(path string, cfg Config, out *[]PathStat) {
	if t.arrCount > 0 {
		ev := t.arrayEvidence()
		decision := entropy.Decide(ev, cfg.Detection)
		if !cfg.DetectArrayTuples {
			decision = entropy.Collection
		}
		*out = append(*out, PathStat{
			Path: path, Kind: jsontype.KindArray, Decision: decision, Evidence: ev,
		})
		if decision == entropy.Collection {
			merged := newStatsTrie()
			for _, e := range t.elems {
				merged.combineShared(e)
			}
			if merged.objCount > 0 || merged.arrCount > 0 {
				merged.derive(arrayElemPath(path), cfg, out)
			}
		} else {
			for i, e := range t.elems {
				e.derive(arrayIndexPath(path, i), cfg, out)
			}
		}
	}
	if t.objCount > 0 {
		ev := t.objectEvidence()
		decision := entropy.Decide(ev, cfg.Detection)
		if !cfg.DetectObjectCollections {
			decision = entropy.Tuple
		}
		*out = append(*out, PathStat{
			Path: path, Kind: jsontype.KindObject, Decision: decision, Evidence: ev,
		})
		if decision == entropy.Collection {
			merged := newStatsTrie()
			keys := sortedKeys(t.children)
			for _, k := range keys {
				merged.combineShared(t.children[k])
			}
			if merged.objCount > 0 || merged.arrCount > 0 {
				merged.derive(objectValuePath(path), cfg, out)
			}
		} else {
			for _, k := range sortedKeys(t.children) {
				t.children[k].derive(childKeyPath(path, k), cfg, out)
			}
		}
	}
}

func sortedKeys(m map[string]*statsTrie) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
