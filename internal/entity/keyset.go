// Package entity implements JXPLAIN's multi-entity discovery (Section 6):
// the Bimax bi-clustering order (Algorithm 6), the naive Bimax clustering
// (Algorithm 7), the GreedyMerge coalescing step (Algorithm 8), a k-means
// baseline used in the Table 3 comparison, and the sparse/dense feature-
// vector encodings of §6.4.
//
// Entity discovery operates on key sets: the set of field names (or array
// indices) present in each tuple-like record at one path. Keys are
// interned into integer ids through a Dict, and key sets are stored as
// bitsets over those ids, so the set operations Bimax and GreedyMerge hammer
// (subset, intersect, union, minus) are word-parallel AND/OR/ANDNOT plus
// popcount instead of O(k) sorted-slice walks.
package entity

import "math/bits"

// KeySet is a set of interned key ids stored as a bitset: word w bit b
// holds id w*64+b. The representation is normalized — no trailing zero
// words — so equal sets are equal slices and Canon is well-defined. The
// zero value (nil) is the empty set.
type KeySet []uint64

const wordBits = 64

// NewKeySet returns a KeySet from arbitrary ids (duplicates collapse).
// Negative ids panic.
func NewKeySet(ids ...int) KeySet {
	if len(ids) == 0 {
		return KeySet{}
	}
	max := 0
	for _, id := range ids {
		if id < 0 {
			panic("entity: negative key id")
		}
		if id > max {
			max = id
		}
	}
	s := make(KeySet, max/wordBits+1)
	for _, id := range ids {
		s[id/wordBits] |= 1 << (uint(id) % wordBits)
	}
	return s
}

// KeySetOf interns names into d and returns their KeySet.
func KeySetOf(d *Dict, names ...string) KeySet {
	ids := make([]int, len(names))
	for i, n := range names {
		ids[i] = d.ID(n)
	}
	return NewKeySet(ids...)
}

// trim drops trailing zero words, restoring the normalization invariant.
//
//jx:hotpath
func (s KeySet) trim() KeySet {
	n := len(s)
	for n > 0 && s[n-1] == 0 {
		n--
	}
	return s[:n]
}

// Len returns the set's cardinality.
//
//jx:hotpath
func (s KeySet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s KeySet) Empty() bool { return len(s) == 0 }

// Each calls fn for every id in the set in ascending order.
//
//jx:hotpath
func (s KeySet) Each(fn func(id int)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// IDs returns the set's ids in ascending order.
func (s KeySet) IDs() []int {
	out := make([]int, 0, s.Len())
	s.Each(func(id int) { out = append(out, id) })
	return out
}

// Clone returns an independent copy of the set.
func (s KeySet) Clone() KeySet {
	return append(KeySet(nil), s...)
}

// Contains reports whether id is in the set.
//
//jx:hotpath
func (s KeySet) Contains(id int) bool {
	if id < 0 || id/wordBits >= len(s) {
		return false
	}
	return s[id/wordBits]&(1<<(uint(id)%wordBits)) != 0
}

// SubsetOf reports whether s ⊆ t.
//
//jx:hotpath
func (s KeySet) SubsetOf(t KeySet) bool {
	if len(s) > len(t) {
		return false // normalization: a longer set has a higher id
	}
	for i, w := range s {
		if w&^t[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s ∩ t ≠ ∅.
//
//jx:hotpath
func (s KeySet) Intersects(t KeySet) bool {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	for i := 0; i < n; i++ {
		if s[i]&t[i] != 0 {
			return true
		}
	}
	return false
}

// Union returns s ∪ t as a new set.
//
//jx:hotpath
func (s KeySet) Union(t KeySet) KeySet {
	long, short := s, t
	if len(short) > len(long) {
		long, short = short, long
	}
	out := make(KeySet, len(long))
	copy(out, long)
	for i, w := range short {
		out[i] |= w
	}
	return out
}

// Intersect returns s ∩ t as a new set.
//
//jx:hotpath
func (s KeySet) Intersect(t KeySet) KeySet {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	out := make(KeySet, n)
	for i := 0; i < n; i++ {
		out[i] = s[i] & t[i]
	}
	return out.trim()
}

// Minus returns s − t as a new set.
//
//jx:hotpath
func (s KeySet) Minus(t KeySet) KeySet {
	out := make(KeySet, len(s))
	for i, w := range s {
		if i < len(t) {
			w &^= t[i]
		}
		out[i] = w
	}
	return out.trim()
}

// IntersectCount returns |s ∩ t|.
//
//jx:hotpath
func (s KeySet) IntersectCount(t KeySet) int {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	count := 0
	for i := 0; i < n; i++ {
		count += bits.OnesCount64(s[i] & t[i])
	}
	return count
}

// Equal reports set equality.
//
//jx:hotpath
func (s KeySet) Equal(t KeySet) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Canon returns a canonical string key for map usage: the little-endian
// bytes of the normalized words.
//
//jx:hotpath
func (s KeySet) Canon() string {
	buf := make([]byte, 0, len(s)*8)
	for _, w := range s {
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(w>>(8*i)))
		}
	}
	//jx:lint-ignore hotpathalloc the string conversion IS the product: one allocation per distinct key set, amortized by caller-side memoization
	return string(buf)
}

// Jaccard returns the Jaccard index |s∩t| / |s∪t| (1 for two empty sets).
//
//jx:hotpath
func (s KeySet) Jaccard(t KeySet) float64 {
	inter := s.IntersectCount(t)
	union := s.Len() + t.Len() - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
