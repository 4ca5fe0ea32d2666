package jsontype

import "weak"

// Hooks for the tests: the interner's entry count and slabs, and the
// hashes the external tests in package jsontype_test read (they import
// the dataset generators, and so cannot sit inside this package).

// CanonHash is the reservoir's hash of t's canonical form, streamed
// without rendering it.
func CanonHash(t *Type) uint64 { return t.canonHash(fnvOffset) }

// RenderedCanonHash is FNV-1a over the canonical form as appendCanon
// writes it: the bytes CanonHash must hash.
func RenderedCanonHash(t *Type) uint64 { return fnv1a(fnvOffset, t.appendCanon(nil)) }

// HasCachedCanon reports whether t's canonical string has been built.
func HasCachedCanon(t *Type) bool { return t.canon.Load() != nil }

// InternEntries counts the interner's entries, live or not yet dropped.
func InternEntries() int {
	n := 0
	for i := range internShards {
		s := &internShards[i]
		s.mu.Lock()
		n += len(s.m)
		for _, b := range s.more {
			n += len(b)
		}
		s.mu.Unlock()
	}
	return n
}

// SealSlabs makes every height start a new slab for its next type.
func SealSlabs() {
	for i := range slabPools {
		p := &slabPools[i]
		p.mu.Lock()
		p.open = weak.Pointer[slab]{}
		p.mu.Unlock()
	}
}

// SlabOf returns the slab an interned object or array type sits in.
func SlabOf(t *Type) *slab {
	h := hashArray(t.elems)
	if t.kind == KindObject {
		h = hashFields(t.fields)
	}
	s := &internShards[h&(internShardCount-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range append([]entry{s.m[h]}, s.more[h]...) {
		if e.get() == t {
			return e.slab.Value()
		}
	}
	return nil
}
