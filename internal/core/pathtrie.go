package core

import (
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
// (pass ② walks its nodes and pass ③ partitions at them); the recursive
// Discover builds one per partition point, rooted at "" over that bag's
// own decisions. A trie is single-goroutine: nodes carry the scratch
// numbering of the partition point being walked.
type pathTrie struct {
	decisions map[string]pathDecision
	stamp     uint32      // numbers the partition point being walked
	features  []*pathNode // its features, by id
	words     []uint64    // the current type's feature set, normalized
}

// pathNode is one distinct absolute path.
type pathNode struct {
	path string
	dec  pathDecision
	hash uint64 // FNV-1a of path, continued from the parent's

	keys      map[string]*pathNode // object keys
	positions []*pathNode          // tuple-array positions

	objPlan, arrPlan *partitionPlan // pass ② (pipeline only)

	// Feature id within the partition point numbered stamp.
	stamp uint32
	local int
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

// featureSets walks every distinct type of bag below n. Sets are
// deduplicated by a hash of their words, confirmed with KeySet.Equal.
func (tr *pathTrie) featureSets(n *pathNode, bag *jsontype.Bag) featureSets {
	tr.stamp++
	tr.features = tr.features[:0]
	var fs featureSets
	first := make(map[uint64]int, bag.Distinct()) // words hash -> a set with it
	for ti, t := range bag.Types() {
		tr.words = tr.words[:0]
		tr.addFeatures(n, t)
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
	if c.stamp != tr.stamp {
		c.stamp, c.local = tr.stamp, len(tr.features)
		tr.features = append(tr.features, c)
	}
	w := c.local / 64
	for len(tr.words) <= w {
		tr.words = append(tr.words, 0)
	}
	tr.words[w] |= 1 << (uint(c.local) % 64)
	if !c.collection(t.Kind()) {
		tr.addFeatures(c, t)
	}
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
