package core

import (
	"math/bits"
	"slices"
	"sort"

	"jxplain/internal/entity"
	"jxplain/internal/entropy"
	"jxplain/internal/jsontype"
)

// pathTrie is the §6.4 feature walker's view of the record structure: one
// node per distinct absolute path a walk reaches, keyed by (parent node,
// object key or array position), below roots made by root. A node's path
// string, pass-① decision and path hash are computed once, when the node
// is created, so walking a type below a partition point builds no
// strings: a feature occurrence is a child lookup and a bit set in the
// walk's scratch words.
//
// The pipeline builds one trie per Finish over the global decision map
// (pass ② walks its nodes and pass ③ partitions and groups at them); the
// recursive Discover builds one per partition point, rooted at "" over
// that bag's own decisions. A trie is single-goroutine: nodes carry the
// scratch numbering of the partition point being walked.
type pathTrie struct {
	decisions map[string]pathDecision
	stamp     uint32      // numbers the partition point being walked
	features  []*pathNode // its features, by id
	words     []uint64    // the current type's feature set, normalized
	// fieldIDs holds, after featureSets or fieldChildren, the feature id
	// of the child of every field of every object type of the bag, in type
	// then field order; indexFields turns it into ranks and keeps it.
	fieldIDs []int32
	remap    []int32 // indexFields' scratch: feature id -> rank
}

// pathNode is one distinct absolute path.
type pathNode struct {
	path string
	key  string // the object key below the parent, on a keyed child
	dec  pathDecision
	hash uint64 // FNV-1a of path, continued from the parent's

	keys      map[string]*pathNode // object keys
	positions []*pathNode          // tuple-array positions

	objPlan, arrPlan *partitionPlan // pass ② (pipeline only)
	fields           *fieldIndex    // pass ② at an object-tuple node (pipeline only)

	// Feature id within the partition point numbered stamp.
	stamp uint32
	local int
}

// fieldIndex is what pass ② records at an object-tuple node so that no
// later grouping hashes a key: the node's keyed children in key order, and
// for each distinct object type of its bag, the rank of each of its fields
// in that order, at ranks[at[type id]:].
type fieldIndex struct {
	byKey []*pathNode
	at    map[uint64]int32
	ranks []int32
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// root returns a parentless node for an absolute path: the trie's root,
// or a collection's element path, which no feature walk crosses.
func (tr *pathTrie) root(path string) *pathNode {
	return &pathNode{path: path, dec: tr.decisions[path], hash: fnvString(fnvOffset64, path)}
}

// below creates the node for path, which extends parent's path.
func (tr *pathTrie) below(parent *pathNode, path string) *pathNode {
	return &pathNode{path: path, dec: tr.decisions[path], hash: fnvString(parent.hash, path[len(parent.path):])}
}

func (tr *pathTrie) key(n *pathNode, key string) *pathNode {
	c := n.keys[key]
	if c == nil {
		if n.keys == nil {
			n.keys = map[string]*pathNode{}
		}
		c = tr.below(n, childKeyPath(n.path, key))
		c.key = key
		n.keys[key] = c
	}
	return c
}

func (tr *pathTrie) position(n *pathNode, i int) *pathNode {
	for len(n.positions) <= i {
		n.positions = append(n.positions, nil)
	}
	if n.positions[i] == nil {
		n.positions[i] = tr.below(n, arrayIndexPath(n.path, i))
	}
	return n.positions[i]
}

// collection reports whether feature extraction stops at a value of kind
// k on this path. Paths pass ① never saw count as tuples.
func (n *pathNode) collection(k jsontype.Kind) bool {
	switch k {
	case jsontype.KindObject:
		return n.dec.hasObj && n.dec.obj == entropy.Collection
	case jsontype.KindArray:
		return n.dec.hasArr && n.dec.arr == entropy.Collection
	}
	return false
}

// featureSets is the §6.4 input at one partition point: the distinct
// deep-path sets of its bag, each weighted by its record multiplicity,
// with the indices of the distinct types carrying each set. Feature ids
// number paths in first-seen depth-first order over the bag, the order
// featurePaths emits names in, so the sets equal those an entity.Dict
// over featurePaths would build.
type featureSets struct {
	entity.Weighted
	typesBySet [][]int
	features   []*pathNode // by feature id; the trie's, until its next walk
}

// featureSets walks every distinct type of bag below n, leaving the
// feature id of each object field it starts from in fieldIDs. Sets are
// deduplicated by a hash of their words, confirmed with KeySet.Equal.
func (tr *pathTrie) featureSets(n *pathNode, bag *jsontype.Bag) featureSets {
	tr.stamp++
	tr.features = tr.features[:0]
	tr.resetFieldIDs(bag)
	var fs featureSets
	first := make(map[uint64]int, bag.Distinct()) // words hash -> a set with it
	for ti, t := range bag.Types() {
		tr.words = tr.words[:0]
		if t.Kind() == jsontype.KindObject {
			for _, f := range t.Fields() {
				c := tr.key(n, f.Key)
				tr.addFeature(c, f.Type)
				tr.fieldIDs = append(tr.fieldIDs, int32(c.local))
			}
		} else {
			tr.addFeatures(n, t)
		}
		ks := entity.KeySet(tr.words)
		h := hashWords(ks)
		si, ok := first[h]
		if ok && !fs.Sets[si].Equal(ks) {
			si, ok = indexOfSet(fs.Sets, ks) // a 64-bit collision
		}
		if !ok {
			si = len(fs.Sets)
			if _, taken := first[h]; !taken {
				first[h] = si
			}
			fs.Sets = append(fs.Sets, append(entity.KeySet{}, ks...))
			fs.Weights = append(fs.Weights, 0)
			fs.typesBySet = append(fs.typesBySet, nil)
		}
		fs.Weights[si] += bag.Count(ti)
		fs.typesBySet[si] = append(fs.typesBySet[si], ti)
	}
	fs.features = tr.features
	return fs
}

// addFeatures sets the feature bit of every object key and array
// position below n in t, descending through tuples and stopping at
// collections.
func (tr *pathTrie) addFeatures(n *pathNode, t *jsontype.Type) {
	switch t.Kind() {
	case jsontype.KindObject:
		for _, f := range t.Fields() {
			tr.addFeature(tr.key(n, f.Key), f.Type)
		}
	case jsontype.KindArray:
		for i, e := range t.Elems() {
			tr.addFeature(tr.position(n, i), e)
		}
	default:
		// Primitives have no children, hence no child features.
	}
}

func (tr *pathTrie) addFeature(c *pathNode, t *jsontype.Type) {
	tr.number(c)
	w := c.local / 64
	for len(tr.words) <= w {
		tr.words = append(tr.words, 0)
	}
	tr.words[w] |= 1 << (uint(c.local) % 64)
	if !c.collection(t.Kind()) {
		tr.addFeatures(c, t)
	}
}

// number gives c the next feature id of the walk, once.
func (tr *pathTrie) number(c *pathNode) {
	if c.stamp != tr.stamp {
		c.stamp, c.local = tr.stamp, len(tr.features)
		tr.features = append(tr.features, c)
	}
}

// fieldChildren numbers the child of every field of every object type of
// bag below n, leaving fieldIDs as featureSets does, for a node no feature
// walk starts from.
func (tr *pathTrie) fieldChildren(n *pathNode, bag *jsontype.Bag) {
	tr.stamp++
	tr.features = tr.features[:0]
	tr.resetFieldIDs(bag)
	for _, t := range bag.Types() {
		for _, f := range t.Fields() {
			c := tr.key(n, f.Key)
			tr.number(c)
			tr.fieldIDs = append(tr.fieldIDs, int32(c.local))
		}
	}
}

// resetFieldIDs empties fieldIDs, with room for every field of bag.
func (tr *pathTrie) resetFieldIDs(bag *jsontype.Bag) {
	fields := 0
	for _, t := range bag.Types() {
		fields += len(t.Fields())
	}
	tr.fieldIDs = slices.Grow(tr.fieldIDs[:0], fields)
}

// indexFields builds n's field index over bag, its objects, from the
// feature ids fieldIDs holds for their fields, and takes fieldIDs over
// as the index's ranks.
func (tr *pathTrie) indexFields(n *pathNode, bag *jsontype.Bag) {
	ix := &fieldIndex{at: make(map[uint64]int32, bag.Distinct()), ranks: tr.fieldIDs}
	tr.fieldIDs = nil
	remap := slices.Grow(tr.remap[:0], len(tr.features))[:len(tr.features)]
	for i := range remap {
		remap[i] = -1
	}
	for _, id := range ix.ranks {
		if remap[id] < 0 {
			remap[id] = 0
			ix.byKey = append(ix.byKey, tr.features[id])
		}
	}
	sort.Slice(ix.byKey, func(i, j int) bool { return ix.byKey[i].key < ix.byKey[j].key })
	for r, c := range ix.byKey {
		remap[c.local] = int32(r)
	}
	for k, id := range ix.ranks {
		ix.ranks[k] = remap[id]
	}
	k := 0
	for _, t := range bag.Types() {
		ix.at[t.ID()] = int32(k)
		k += len(t.Fields())
	}
	n.fields, tr.remap = ix, remap
}

// fieldGroup is the values one key holds across a bag of tuple objects:
// the key, its child path (and node, where pass ② indexed the parent),
// the bag of values and the number of records holding the key.
type fieldGroup struct {
	key, path string
	node      *pathNode
	values    *jsontype.Bag
	present   int
}

// fieldGrouper groups a bag's fields by the ranks of a field index,
// through slots it reuses from one grouping to the next.
type fieldGrouper struct {
	slots []fieldSlot // by rank
	used  []uint64    // bitset of the ranks holding values
}

// fieldSlot gathers one key's values; values is nil until one lands.
type fieldSlot struct {
	values  *jsontype.Bag
	present int
}

// group returns the field groups of bag, a sub-bag of the objects ix was
// built over, in key order; ok is false when bag holds a type ix has no
// ranks for. complexOnly leaves out primitive values, which pass ② does
// not descend into.
func (g *fieldGrouper) group(ix *fieldIndex, bag *jsontype.Bag, complexOnly bool) (groups []fieldGroup, ok bool) {
	if len(g.slots) < len(ix.byKey) {
		g.slots = make([]fieldSlot, len(ix.byKey))
		g.used = make([]uint64, (len(ix.byKey)+63)/64)
	}
	used := 0
	ok = true
	for ti, t := range bag.Types() {
		at, found := ix.at[t.ID()]
		if !found {
			ok = false
			break
		}
		ranks, n := ix.ranks[at:], bag.Count(ti)
		for j, f := range t.Fields() {
			if complexOnly && f.Type.Kind().Primitive() {
				continue
			}
			r := ranks[j]
			s := &g.slots[r]
			if s.values == nil {
				s.values = &jsontype.Bag{}
				g.used[r/64] |= 1 << (r % 64)
				used++
			}
			s.values.AddN(f.Type, n)
			s.present += n
		}
	}
	if ok {
		groups = make([]fieldGroup, 0, used)
	}
	for w, word := range g.used[:(len(ix.byKey)+63)/64] {
		for ; word != 0; word &= word - 1 {
			r := w*64 + bits.TrailingZeros64(word)
			if ok {
				c := ix.byKey[r]
				s := g.slots[r]
				groups = append(groups, fieldGroup{key: c.key, path: c.path, node: c, values: s.values, present: s.present})
			}
			g.slots[r] = fieldSlot{}
		}
		g.used[w] = 0
	}
	return groups, ok
}

func hashWords(ks entity.KeySet) uint64 {
	h := uint64(len(ks))
	for _, w := range ks {
		h = mix64(h ^ w)
	}
	return h
}

func indexOfSet(sets []entity.KeySet, ks entity.KeySet) (int, bool) {
	for i, s := range sets {
		if s.Equal(ks) {
			return i, true
		}
	}
	return 0, false
}
