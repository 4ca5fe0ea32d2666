package jsontype

import "sort"

// Bag is a multiset of types, the unit of input to every merge operator in
// the paper (ℛ in Algorithms 1-4). The zero value is an empty bag.
//
// Bags deduplicate structurally equal types and track multiplicities, so
// a million identical records cost one tree plus a counter. Insertion
// order of distinct types is preserved, which keeps extraction
// deterministic.
type Bag struct {
	types  []*Type
	counts []int
	// index maps intern id -> position in types. It is nil while the bag
	// holds at most indexAt distinct types, which AddN finds by scanning;
	// the AddN that finds more builds it. So a sub-bag built by
	// AddDistinct hashes no type unless something adds to it later.
	index map[uint64]int
	total int
}

// indexAt is the most distinct types a bag finds by scanning. Most bags
// that grouping builds hold a key's or a position's values, one or two
// distinct types, where a scan beats building and probing a map.
const indexAt = 8

// NewBag returns a bag containing the given types (each with
// multiplicity 1 per occurrence).
func NewBag(types ...*Type) *Bag {
	b := &Bag{}
	for _, t := range types {
		b.Add(t)
	}
	return b
}

// Add inserts one occurrence of t.
//
//jx:hotpath
func (b *Bag) Add(t *Type) { b.AddN(t, 1) }

// AddN inserts n occurrences of t. n must be positive.
//
//jx:hotpath
func (b *Bag) AddN(t *Type, n int) {
	if n <= 0 {
		panic("jsontype: Bag.AddN with non-positive count")
	}
	if b.index == nil && len(b.types) > indexAt {
		b.buildIndex()
	}
	if i, ok := b.find(t); ok {
		b.counts[i] += n
		b.total += n
		return
	}
	b.AddDistinct(t, n)
	if b.index == nil && len(b.types) > indexAt {
		b.buildIndex()
	}
}

// find returns t's position in types: through the index, or by a scan
// while there is none.
//
//jx:hotpath
func (b *Bag) find(t *Type) (int, bool) {
	if b.index != nil {
		i, ok := b.index[t.ID()]
		return i, ok
	}
	for i, u := range b.types {
		if u.ID() == t.ID() {
			return i, true
		}
	}
	return 0, false
}

// buildIndex indexes the distinct types b already holds.
//
//jx:coldpath runs once per bag, when it outgrows indexAt distinct types
func (b *Bag) buildIndex() {
	b.index = make(map[uint64]int, len(b.types))
	for i, t := range b.types {
		b.index[t.ID()] = i
	}
}

// AddDistinct inserts n occurrences of t, which b must not hold yet. It
// builds a sub-bag of a deduplicated bag — each of whose types is
// distinct already — without hashing a type; AddN on the result still
// finds every type AddDistinct put there. n must be positive.
//
//jx:hotpath
func (b *Bag) AddDistinct(t *Type, n int) {
	if n <= 0 {
		panic("jsontype: Bag.AddDistinct with non-positive count")
	}
	if b.index != nil {
		b.index[t.ID()] = len(b.types)
	}
	b.types = append(b.types, t)
	b.counts = append(b.counts, n)
	b.total += n
}

// AddBag inserts every occurrence in other.
func (b *Bag) AddBag(other *Bag) { b.Merge(other) }

// Merge folds every occurrence of other into b, preserving other's
// insertion order for types b has not seen. Merge is the monoid operation
// that makes bags mergeable sketches: chunked ingestion builds one bag per
// chunk and folds them, so memory tracks distinct structure rather than
// record count. other is not modified; sharing *Type values is safe
// because types are immutable.
func (b *Bag) Merge(other *Bag) {
	if other == nil {
		return
	}
	for i, t := range other.types {
		b.AddN(t, other.counts[i])
	}
}

// Len returns the total number of occurrences in the bag.
//
//jx:hotpath
func (b *Bag) Len() int { return b.total }

// Distinct returns the number of distinct types in the bag.
func (b *Bag) Distinct() int { return len(b.types) }

// Types returns the distinct types in insertion order. The returned slice
// must not be mutated.
func (b *Bag) Types() []*Type { return b.types }

// Count returns the multiplicity of the i-th distinct type.
func (b *Bag) Count(i int) int { return b.counts[i] }

// CountOf returns the multiplicity of t (0 if absent). A bag no AddN has
// indexed yet is scanned.
func (b *Bag) CountOf(t *Type) int {
	if i, ok := b.find(t); ok {
		return b.counts[i]
	}
	return 0
}

// Each calls fn for every distinct type with its multiplicity.
func (b *Bag) Each(fn func(t *Type, n int)) {
	for i, t := range b.types {
		fn(t, b.counts[i])
	}
}

// SplitKinds partitions the bag into primitives, arrays and objects,
// the first step of Algorithms 1 and 4. Each part is a sub-bag of b, so
// its types are appended without a second deduplication.
func (b *Bag) SplitKinds() (prims, arrays, objects *Bag) {
	prims, arrays, objects = &Bag{}, &Bag{}, &Bag{}
	for i, t := range b.types {
		switch t.Kind() {
		case KindArray:
			arrays.AddDistinct(t, b.counts[i])
		case KindObject:
			objects.AddDistinct(t, b.counts[i])
		default:
			prims.AddDistinct(t, b.counts[i])
		}
	}
	return prims, arrays, objects
}

// Elements returns a bag of every array element across the bag
// ({τ.k | k ∈ keys(τ), τ ∈ ℛ} for array-kinded ℛ; Algorithm 2).
func (b *Bag) Elements() *Bag {
	out := &Bag{}
	for i, t := range b.types {
		for _, e := range t.Elems() {
			out.AddN(e, b.counts[i])
		}
	}
	return out
}

// FieldValues returns a bag of every object field value across the bag,
// regardless of key (used when objects are merged as collections).
func (b *Bag) FieldValues() *Bag {
	out := &Bag{}
	for i, t := range b.types {
		for _, f := range t.Fields() {
			out.AddN(f.Type, b.counts[i])
		}
	}
	return out
}

// GroupByKey returns, for each key appearing in any object of the bag, the
// bag of types found under that key, plus the number of records containing
// the key. Keys are returned in sorted order for determinism.
func (b *Bag) GroupByKey() (keys []string, groups []*Bag, present []int) {
	at := map[string]int{} // key -> its position in keys, groups and present
	for i, t := range b.types {
		for _, f := range t.Fields() {
			j, ok := at[f.Key]
			if !ok {
				j = len(keys)
				at[f.Key] = j
				keys = append(keys, f.Key)
				groups = append(groups, &Bag{})
				present = append(present, 0)
			}
			groups[j].AddN(f.Type, b.counts[i])
			present[j] += b.counts[i]
		}
	}
	sort.Sort(keyGroups{keys, groups, present})
	return keys, groups, present
}

// keyGroups sorts GroupByKey's three parallel slices by key.
type keyGroups struct {
	keys    []string
	groups  []*Bag
	present []int
}

func (g keyGroups) Len() int           { return len(g.keys) }
func (g keyGroups) Less(i, j int) bool { return g.keys[i] < g.keys[j] }
func (g keyGroups) Swap(i, j int) {
	g.keys[i], g.keys[j] = g.keys[j], g.keys[i]
	g.groups[i], g.groups[j] = g.groups[j], g.groups[i]
	g.present[i], g.present[j] = g.present[j], g.present[i]
}

// GroupByIndex returns, for each array position occurring in any array of
// the bag, the bag of types at that position and the number of arrays long
// enough to have it. The slices are indexed by position 0..maxLen-1.
func (b *Bag) GroupByIndex() (groups []*Bag, present []int) {
	maxLen := 0
	for _, t := range b.types {
		if t.Len() > maxLen {
			maxLen = t.Len()
		}
	}
	groups = make([]*Bag, maxLen)
	present = make([]int, maxLen)
	for i := range groups {
		groups[i] = &Bag{}
	}
	for i, t := range b.types {
		for p, e := range t.Elems() {
			groups[p].AddN(e, b.counts[i])
			present[p] += b.counts[i]
		}
	}
	return groups, present
}
