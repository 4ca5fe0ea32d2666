package core

import (
	"cmp"
	"slices"

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
// counted in full by its parent — a presence count in keys or a length in
// lens, plus the parent's similarity accumulator — so a node of its own
// would hold nothing. A key whose values were all primitive has no child,
// and elems holds nil at a position that only ever held primitives, so
// every later position keeps its index. elems never ends in nil:
// positions are added only up to the last one that needs a node, which
// keeps the encoding of equal statistics identical whichever fold built
// them.
//
// Each node keeps its counters in two lists instead of maps: keys, one
// entry per object key with its presence count and the child node of its
// object and array values (a child key is always a counted key, so one
// entry holds both), and lens, the array-length histogram. Nearly every
// node of a real trie has a few keys and one or two lengths, and a fresh
// node per record is the common case on a churning stream, so a list
// that is scanned costs far less to build, fill and walk than a map. A
// list that grows past indexAt entries — a root keyed by session or
// entity ids — also keeps a key→position map. Lists are in insertion
// order; every reader that needs an order sorts a copy. The encoder sorts
// one per list it writes, and derive sorts the pointers to a node's key
// entries once, reading from them both the entropy weights and, at a
// collection, the order the wildcard merge folds the children in.
//
// A node's array statistics — its count, length histogram, similarity
// accumulator and element nodes — sit in an arrayStats block behind one
// pointer that stays nil until the node first holds an array. Most nodes
// of a real trie are objects only, and on a churning stream a closed
// window keeps thousands of them alive, so an object-only node is a
// 64-byte allocation instead of a 144-byte one. The encoder writes a nil
// block as an array count of 0 and no elements, the bytes a zeroed block
// gives, so the wire form does not depend on whether the block exists.
//
// Node state is deliberately enumerable, not just walkable: the append*
// helpers list every counter in a deterministic order and the set*
// builders reconstruct a node from those lists, so the wire codec
// round-trips a trie without reaching into representation details like
// list order or accumulator internals.
type statsTrie struct {
	// Object-kinded statistics at this path.
	objCount int
	keys     nodeList[string, *statsTrie]
	objSim   jsontype.SimilarityAccumulator

	arr *arrayStats // array-kinded statistics; nil until the first array
}

// arrayStats is a node's array-kinded statistics.
type arrayStats struct {
	count int
	lens  nodeList[int, struct{}]
	sim   jsontype.SimilarityAccumulator

	elems []*statsTrie // array positions; nil where no node is needed
}

// indexAt is the longest list a node searches by scanning; a longer one
// also keeps a key→position map. A scan finds a key faster than a map
// does in up to about 16 keys of varied lengths, but only up to 4 or 5
// of one length, such as generated ids (EXPERIMENTS "Performance").
const indexAt = 8

// listEntry is one entry of a node list: a key, its count, and — for an
// object key — the child node of its object and array values (nil when
// all were primitive). A length histogram's entries carry no child.
type listEntry[K comparable, C any] struct {
	child C
	key   K
	n     int
}

// keyStat is one object key at a node.
type keyStat = listEntry[string, *statsTrie]

// lenCount is one array length at a node.
type lenCount = listEntry[int, struct{}]

// nodeList is one of a node's counted lists, searched linearly until it
// outgrows indexAt entries and through index after that. An entry pointer
// from slot is valid only until the list's next insertion.
type nodeList[K comparable, C any] struct {
	entries []listEntry[K, C]
	index   map[K]int // key → position in entries; nil up to indexAt entries
}

// slot returns k's entry, appending a zero one when k is new: the lookup
// or append every counter update goes through.
//
//jx:hotpath
func (l *nodeList[K, C]) slot(k K) *listEntry[K, C] {
	if l.index != nil {
		if i, ok := l.index[k]; ok {
			return &l.entries[i]
		}
	} else {
		for i := range l.entries {
			if l.entries[i].key == k {
				return &l.entries[i]
			}
		}
	}
	l.entries = append(l.entries, listEntry[K, C]{key: k})
	i := len(l.entries) - 1
	if l.index != nil {
		l.index[k] = i
	} else if i == indexAt {
		l.reindex()
	}
	return &l.entries[i]
}

// reserve gives a list that has never held an entry room for n of them:
// a node's first object, or first encoded key set, usually names every
// key the node will see, so its list is sized once instead of grown.
//
//jx:hotpath
func (l *nodeList[K, C]) reserve(n int) {
	if l.entries == nil {
		l.entries = make([]listEntry[K, C], 0, n)
	}
}

// reindex builds the index of a list longer than indexAt and drops that
// of a shorter one — after the list first outgrows indexAt, and after
// decay removes entries. A new index is sized from the list's capacity,
// so a list reserved for the keys it will hold fills its index without
// growing it either.
//
//jx:coldpath runs once per node that outgrows indexAt, and per decay
func (l *nodeList[K, C]) reindex() {
	if len(l.entries) <= indexAt {
		l.index = nil
		return
	}
	if l.index == nil {
		l.index = make(map[K]int, cap(l.entries))
	} else {
		clear(l.index)
	}
	for i := range l.entries {
		l.index[l.entries[i].key] = i
	}
}

// newStatsTrie allocates an empty trie node.
//
//jx:coldpath allocates once per newly observed path node, not per record
func newStatsTrie() *statsTrie { return &statsTrie{} }

// newArrayStats allocates an empty array block.
//
//jx:coldpath allocates once per path node that holds an array, not per record
func newArrayStats() *arrayStats { return &arrayStats{} }

// arrays returns the node's array block, allocating it on first use.
//
//jx:hotpath
func (t *statsTrie) arrays() *arrayStats {
	if t.arr == nil {
		t.arr = newArrayStats()
	}
	return t.arr
}

// arrCount returns the number of array occurrences at the node.
func (t *statsTrie) arrCount() int {
	if t.arr == nil {
		return 0
	}
	return t.arr.count
}

//jx:hotpath
func (t *statsTrie) child(key string) *statsTrie {
	e := t.keys.slot(key)
	if e.child == nil {
		e.child = newStatsTrie()
	}
	return e.child
}

//jx:hotpath
func (a *arrayStats) elem(i int) *statsTrie {
	if i >= len(a.elems) || a.elems[i] == nil {
		a.attachElem(i, newStatsTrie())
	}
	return a.elems[i]
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
		fields := ty.Fields()
		t.keys.reserve(len(fields))
		for _, f := range fields {
			e := t.keys.slot(f.Key)
			e.n += n
			t.objSim.Add(f.Type)
			if hasNode(f.Type) {
				if e.child == nil {
					e.child = newStatsTrie()
				}
				e.child.add(f.Type, n)
			}
		}
	case jsontype.KindArray:
		a := t.arrays()
		a.count += n
		a.lens.slot(ty.Len()).n += n
		for i, e := range ty.Elems() {
			a.sim.Add(e)
			if hasNode(e) {
				a.elem(i).add(e, n)
			}
		}
	default:
		// A primitive record at the root has no statistics to record.
		// Below the root a primitive never reaches add: its occurrence is
		// counted by the parent's key/length distributions.
	}
}

// combine merges other into t (mutating t). other is consumed: t adopts
// its child nodes where t has none, a whole list where t's is empty, and
// the whole array block where t has none.
//
//jx:hotpath
//jx:monoid consuming
func (t *statsTrie) combine(other *statsTrie) *statsTrie {
	t.objCount += other.objCount
	if len(t.keys.entries) == 0 {
		t.keys = other.keys
	} else {
		for _, oe := range other.keys.entries {
			e := t.keys.slot(oe.key)
			e.n += oe.n
			switch {
			case oe.child == nil:
			case e.child == nil:
				e.child = oe.child
			default:
				e.child.combine(oe.child)
			}
		}
	}
	t.objSim.Combine(&other.objSim)

	if oa := other.arr; oa != nil {
		if t.arr == nil {
			t.arr = oa
		} else {
			t.arr.combine(oa)
		}
	}
	return t
}

// combine merges other into a, consuming other like statsTrie.combine.
//
//jx:hotpath
//jx:monoid consuming
func (a *arrayStats) combine(other *arrayStats) {
	a.count += other.count
	if len(a.lens.entries) == 0 {
		a.lens = other.lens
	} else {
		for _, oe := range other.lens.entries {
			a.lens.slot(oe.key).n += oe.n
		}
	}
	a.sim.Combine(&other.sim)

	for i, oe := range other.elems {
		switch {
		case oe == nil:
		case i < len(a.elems) && a.elems[i] != nil:
			a.elems[i].combine(oe)
		default:
			a.attachElem(i, oe)
		}
	}
}

// combineShared folds other into t while treating other's whole subtree
// as immutable: counters are copied, never adopted. combine's adoption
// shortcut is correct for Merge (the argument is consumed) but must not
// be used where the source trie lives on — derive builds wildcard merge
// nodes from live children, and adopting a child's list or node there
// would let a later fold into the merge node silently corrupt the sketch
// Stats was called on.
//
//jx:monoid
func (t *statsTrie) combineShared(other *statsTrie) *statsTrie {
	t.objCount += other.objCount
	t.keys.reserve(len(other.keys.entries))
	for _, oe := range other.keys.entries {
		e := t.keys.slot(oe.key)
		e.n += oe.n
		if oe.child != nil {
			if e.child == nil {
				e.child = newStatsTrie()
			}
			e.child.combineShared(oe.child)
		}
	}
	t.objSim.Combine(&other.objSim)

	if oa := other.arr; oa != nil {
		a := t.arrays()
		a.count += oa.count
		for _, oe := range oa.lens.entries {
			a.lens.slot(oe.key).n += oe.n
		}
		a.sim.Combine(&oa.sim)
		for i, oe := range oa.elems {
			if oe != nil {
				a.elem(i).combineShared(oe)
			}
		}
	}
	return t
}

// decay scales every additive counter by factor (flooring) and compacts
// the subtree: children and array positions whose counters and
// descendants have all decayed to zero are unlinked, list entries left
// with neither a count nor a child are dropped, and trailing unlinked
// positions are trimmed, so paths that stopped appearing in the stream
// eventually release their nodes instead of pinning the trie forever.
// The similarity accumulators are left untouched — they encode a monotone
// constraint (a dissimilarity once observed cannot be un-observed), not a
// frequency, so aging them would claim evidence the stream never
// retracted.
func (t *statsTrie) decay(factor float64) {
	t.objCount = int(float64(t.objCount) * factor)
	keys := t.keys.entries[:0]
	for _, e := range t.keys.entries {
		e.n = int(float64(e.n) * factor)
		if e.child != nil {
			e.child.decay(factor)
			if e.child.decayedOut() {
				e.child = nil
			}
		}
		if e.n > 0 || e.child != nil {
			keys = append(keys, e)
		}
	}
	clear(t.keys.entries[len(keys):])
	t.keys.entries = keys
	t.keys.reindex()
	if a := t.arr; a != nil {
		a.count = int(float64(a.count) * factor)
		lens := a.lens.entries[:0]
		for _, e := range a.lens.entries {
			if e.n = int(float64(e.n) * factor); e.n > 0 {
				lens = append(lens, e)
			}
		}
		a.lens.entries = lens
		a.lens.reindex()
		for i, e := range a.elems {
			if e != nil {
				e.decay(factor)
				if e.decayedOut() {
					a.elems[i] = nil
				}
			}
		}
		for n := len(a.elems); n > 0 && a.elems[n-1] == nil; n-- {
			a.elems = a.elems[:n-1]
		}
	}
}

// decayedOut reports whether every counter in the subtree has reached
// zero, licensing compaction.
func (t *statsTrie) decayedOut() bool {
	if t.objCount != 0 {
		return false
	}
	for _, e := range t.keys.entries {
		if e.n != 0 || e.child != nil && !e.child.decayedOut() {
			return false
		}
	}
	if a := t.arr; a != nil {
		if a.count != 0 || len(a.lens.entries) != 0 {
			return false
		}
		for _, e := range a.elems {
			if e != nil && !e.decayedOut() {
				return false
			}
		}
	}
	return true
}

// nodeCount returns the number of trie nodes in the subtree — the memory
// proxy behind the flat-RSS assertions.
func (t *statsTrie) nodeCount() int {
	n := 1
	for _, e := range t.keys.entries {
		if e.child != nil {
			n += e.child.nodeCount()
		}
	}
	for _, e := range t.elemNodes() {
		if e != nil {
			n += e.nodeCount()
		}
	}
	return n
}

// dropIndexes drops every list index in the subtree. A closed window is
// read-only — folds read its lists in order and never look a key up — so
// an index would only hold memory while the window sits in the ring.
func (t *statsTrie) dropIndexes() {
	t.keys.index = nil
	for _, e := range t.keys.entries {
		if e.child != nil {
			e.child.dropIndexes()
		}
	}
	if a := t.arr; a != nil {
		a.lens.index = nil
		for _, e := range a.elems {
			if e != nil {
				e.dropIndexes()
			}
		}
	}
}

// elemNodes returns the node's array positions (nil without an array
// block).
func (t *statsTrie) elemNodes() []*statsTrie {
	if t.arr == nil {
		return nil
	}
	return t.arr.elems
}

// ---- enumerable node state (the encode side of the wire codec) ----

// keyCount is one entry of a node's key-presence distribution.
type keyCount struct {
	key string
	n   int
}

// appendKeyCounts appends every (key, presence count) pair to dst in
// sorted key order and returns the extended slice. A key counted zero
// times — a child-only entry decoded from a file, or one decay floored —
// is not in the key set.
func (t *statsTrie) appendKeyCounts(dst []keyCount) []keyCount {
	start := len(dst)
	for _, e := range t.keys.entries {
		if e.n > 0 {
			dst = append(dst, keyCount{e.key, e.n})
		}
	}
	slices.SortFunc(dst[start:], func(a, b keyCount) int { return cmp.Compare(a.key, b.key) })
	return dst
}

// appendLenCounts appends every (array length, count) pair to dst in
// ascending length order and returns the extended slice.
func (a *arrayStats) appendLenCounts(dst []lenCount) []lenCount {
	start := len(dst)
	dst = append(dst, a.lens.entries...)
	slices.SortFunc(dst[start:], func(a, b lenCount) int { return cmp.Compare(a.key, b.key) })
	return dst
}

// appendChildren appends every (key, child node) pair to dst in sorted
// key order and returns the extended slice.
func (t *statsTrie) appendChildren(dst []childEntry) []childEntry {
	start := len(dst)
	for _, e := range t.keys.entries {
		if e.child != nil {
			dst = append(dst, childEntry{e.key, e.child})
		}
	}
	slices.SortFunc(dst[start:], func(a, b childEntry) int { return cmp.Compare(a.key, b.key) })
	return dst
}

// childEntry is one named child node.
type childEntry struct {
	key  string
	node *statsTrie
}

// ---- node builders (the decode side of the wire codec) ----

// setKeyCount records a key-presence count on a node under construction.
//
//jx:hotpath
func (t *statsTrie) setKeyCount(key string, n int) {
	t.keys.slot(key).n += n
}

// setLenCount records an array-length count on a node under construction.
//
//jx:hotpath
func (a *arrayStats) setLenCount(length, n int) {
	a.lens.slot(length).n += n
}

// attachElem links a subtree at array position i, padding the positions
// before it with nil.
//
//jx:hotpath
func (a *arrayStats) attachElem(i int, c *statsTrie) {
	for len(a.elems) <= i {
		a.elems = append(a.elems, nil)
	}
	a.elems[i] = c
}

// ---- evidence derivation ----

// sortedKeys returns pointers to the node's key entries, in key order.
// They point into the key list itself, so they are valid only while
// nothing adds to the node, as throughout derive.
func (t *statsTrie) sortedKeys() []*keyStat {
	keys := make([]*keyStat, len(t.keys.entries))
	for i := range t.keys.entries {
		keys[i] = &t.keys.entries[i]
	}
	slices.SortFunc(keys, func(a, b *keyStat) int { return cmp.Compare(a.key, b.key) })
	return keys
}

// objectEvidence renders the node's object statistics as entropy.Evidence,
// matching entropy.DetectObjects bit for bit. keys are the node's key
// entries in key order (sortedKeys): the order must be pinned before the
// float64 summation inside Entropy, since FP addition is not associative,
// so list order would leak into the entropy bits (and differ from
// entropy.DetectObjects). A key counted zero times — a child-only entry
// decoded from a file, or one decay floored — is not in the key set.
func (t *statsTrie) objectEvidence(keys []*keyStat) entropy.Evidence {
	weights := make([]float64, 0, len(keys))
	for _, e := range keys {
		if e.n > 0 {
			weights = append(weights, float64(e.n))
		}
	}
	return entropy.Evidence{
		KeyEntropy:   stats.Entropy(weights, float64(t.objCount)),
		Similar:      t.objSim.Similar(),
		Records:      t.objCount,
		DistinctKeys: len(weights),
	}
}

// arrayEvidence renders the node's array statistics, matching
// entropy.DetectArrays.
func (a *arrayStats) arrayEvidence() entropy.Evidence {
	counts := a.appendLenCounts(make([]lenCount, 0, len(a.lens.entries)))
	weights := make([]float64, len(counts))
	for i, lc := range counts {
		weights[i] = float64(lc.n)
	}
	return entropy.Evidence{
		KeyEntropy:   stats.Entropy(weights, float64(a.count)),
		Similar:      a.sim.Similar(),
		Records:      a.count,
		DistinctKeys: len(counts),
	}
}

// derive walks the aggregated trie top-down, emitting the same PathStat
// rows the sequential CollectPathStats produces.
func (t *statsTrie) derive(path string, cfg Config, out *[]PathStat) {
	if a := t.arr; a != nil && a.count > 0 {
		ev := a.arrayEvidence()
		decision := entropy.Decide(ev, cfg.Detection)
		if !cfg.DetectArrayTuples {
			decision = entropy.Collection
		}
		*out = append(*out, PathStat{
			Path: path, Kind: jsontype.KindArray, Decision: decision, Evidence: ev,
		})
		if decision == entropy.Collection {
			merged := newStatsTrie()
			for _, e := range a.elems {
				if e != nil {
					merged.combineShared(e)
				}
			}
			if merged.objCount > 0 || merged.arrCount() > 0 {
				merged.derive(arrayElemPath(path), cfg, out)
			}
		} else {
			for i, e := range a.elems {
				if e != nil {
					e.derive(arrayIndexPath(path, i), cfg, out)
				}
			}
		}
	}
	if t.objCount > 0 {
		keys := t.sortedKeys()
		ev := t.objectEvidence(keys)
		decision := entropy.Decide(ev, cfg.Detection)
		if !cfg.DetectObjectCollections {
			decision = entropy.Tuple
		}
		*out = append(*out, PathStat{
			Path: path, Kind: jsontype.KindObject, Decision: decision, Evidence: ev,
		})
		if decision == entropy.Collection {
			// Merge in key order, so the merged node does not depend on
			// the order in which the fold met the keys.
			merged := newStatsTrie()
			for _, e := range keys {
				if e.child != nil {
					merged.combineShared(e.child)
				}
			}
			if merged.objCount > 0 || merged.arrCount() > 0 {
				merged.derive(objectValuePath(path), cfg, out)
			}
		} else {
			// Each child emits rows under its own path, and Stats sorts
			// them, so list order serves.
			for _, e := range t.keys.entries {
				if e.child != nil {
					e.child.derive(childKeyPath(path, e.key), cfg, out)
				}
			}
		}
	}
}
