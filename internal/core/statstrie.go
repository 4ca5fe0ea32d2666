package core

import (
	"cmp"
	"slices"
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
// Nodes exist only for object and array values. A primitive occurrence is
// counted in full by its parent — a presence count in keyCounts or a
// length in lenCounts, plus the parent's similarity accumulator — so a
// node of its own would hold nothing. children has no entry for a key
// whose values were all primitive, and elems holds nil at a position that
// only ever held primitives, so every later position keeps its index.
// elems never ends in nil: positions are added only up to the last one
// that needs a node, which keeps the encoding of equal statistics
// identical whichever fold built them.
//
// Node state is deliberately enumerable, not just walkable: the append*
// helpers list every counter in a deterministic order and the set*
// builders reconstruct a node from those lists, so the wire codec
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

	children map[string]*statsTrie // object keys with an object or array value
	elems    []*statsTrie          // array positions; nil where no node is needed
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
	if i >= len(t.elems) || t.elems[i] == nil {
		t.attachElem(i, newStatsTrie())
	}
	return t.elems[i]
}

// hasNode reports whether a value of type ty gets a trie node of its own:
// only objects and arrays carry statistics below their parent.
//
//jx:hotpath
func hasNode(ty *jsontype.Type) bool {
	k := ty.Kind()
	return k == jsontype.KindObject || k == jsontype.KindArray
}

// add folds one value type (with multiplicity n) into the trie. Only
// object and array values descend into a child or element node.
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
			if hasNode(f.Type) {
				t.child(f.Key).add(f.Type, n)
			}
		}
	case jsontype.KindArray:
		t.arrCount += n
		if t.lenCounts == nil {
			t.lenCounts = map[int]int{}
		}
		t.lenCounts[ty.Len()] += n
		for i, e := range ty.Elems() {
			t.arrSim.Add(e)
			if hasNode(e) {
				t.elem(i).add(e, n)
			}
		}
	default:
		// A primitive record at the root has no statistics to record.
		// Below the root a primitive never reaches add: its occurrence is
		// counted by the parent's key/length distributions.
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
		if oe != nil {
			t.elem(i).combine(oe)
		}
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
		if oe != nil {
			t.elem(i).combineShared(oe)
		}
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
		if e != nil {
			e.decay(factor)
		}
	}
	for n := len(t.elems); n > 0 && (t.elems[n-1] == nil || t.elems[n-1].decayedOut()); n-- {
		t.elems = t.elems[:n-1]
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
		if e != nil && !e.decayedOut() {
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
		if e != nil {
			n += e.nodeCount()
		}
	}
	return n
}

// ---- enumerable node state (the encode side of the wire codec) ----

// keyCount is one entry of a node's key-presence distribution.
type keyCount struct {
	key string
	n   int
}

// lenCount is one entry of a node's array-length histogram.
type lenCount struct {
	length, n int
}

// appendKeyCounts appends every (key, presence count) pair to dst in
// sorted key order and returns the extended slice.
func (t *statsTrie) appendKeyCounts(dst []keyCount) []keyCount {
	start := len(dst)
	for k, n := range t.keyCounts {
		dst = append(dst, keyCount{k, n})
	}
	slices.SortFunc(dst[start:], func(a, b keyCount) int { return cmp.Compare(a.key, b.key) })
	return dst
}

// appendLenCounts appends every (array length, count) pair to dst in
// ascending length order and returns the extended slice.
func (t *statsTrie) appendLenCounts(dst []lenCount) []lenCount {
	start := len(dst)
	for l, n := range t.lenCounts {
		dst = append(dst, lenCount{l, n})
	}
	slices.SortFunc(dst[start:], func(a, b lenCount) int { return cmp.Compare(a.length, b.length) })
	return dst
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

// attachElem links a subtree at array position i, padding the positions
// before it with nil.
//
//jx:hotpath
func (t *statsTrie) attachElem(i int, c *statsTrie) {
	for len(t.elems) <= i {
		t.elems = append(t.elems, nil)
	}
	t.elems[i] = c
}

// ---- evidence derivation ----

// objectEvidence renders the node's object statistics as entropy.Evidence,
// matching entropy.DetectObjects bit for bit.
func (t *statsTrie) objectEvidence() entropy.Evidence {
	// Key order must be pinned before the float64 summation inside Entropy:
	// FP addition is not associative, so map order would leak into the
	// entropy bits (and differ from entropy.DetectObjects).
	counts := t.appendKeyCounts(make([]keyCount, 0, len(t.keyCounts)))
	weights := make([]float64, len(counts))
	for i, kc := range counts {
		weights[i] = float64(kc.n)
	}
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
	counts := t.appendLenCounts(make([]lenCount, 0, len(t.lenCounts)))
	weights := make([]float64, len(counts))
	for i, lc := range counts {
		weights[i] = float64(lc.n)
	}
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
				if e != nil {
					merged.combineShared(e)
				}
			}
			if merged.objCount > 0 || merged.arrCount > 0 {
				merged.derive(arrayElemPath(path), cfg, out)
			}
		} else {
			for i, e := range t.elems {
				if e != nil {
					e.derive(arrayIndexPath(path, i), cfg, out)
				}
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
