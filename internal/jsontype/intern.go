package jsontype

import (
	"sync"
	"sync/atomic"
)

// Hash-consing interner. Every complex Type is registered in a sharded
// global table at construction, keyed by a 64-bit structural hash built
// from words by mix. An array's hash mixes its children's ids in order. An
// object's hash is the sum of its fields' hashes, each mixing the key's
// hash and the child's id; the sum does not depend on field order, so the
// scanner adds fields up as it reads them, before sorting. Child ids are
// unique by induction (children are interned before their parent), so the
// hash covers the whole subtree in O(direct children) word operations;
// hash collisions are resolved by a shallow structural scan of the
// bucket, which again only compares keys and child *pointers*.
//
// A key's hash is keyHash of the decoded key. NewObject computes it per
// field; the byte scanner computes it once per distinct raw key and
// caches it beside the decoded string (see keyTable in scan.go), so a
// scanned object and a built object hash — and intern — identically. The
// hash is process-local and only picks buckets: nothing serialized or
// sampled depends on it (the reservoir draws from canonical strings).
//
// Consequences the rest of the system builds on:
//
//   - Equal is pointer identity,
//   - Bag and memo tables key on the dense uint64 id instead of the
//     canonical string,
//   - repeated records allocate no new type nodes — only the first
//     occurrence of each distinct subtree costs a node.
//
// The table is append-only and safe for concurrent use (the ingest worker
// pool decodes in parallel). It grows with the distinct structure observed
// over the process lifetime — the same asymptote as any single retained
// Bag — and is never reset: released types would otherwise be re-interned
// as fresh pointers while stale pointers to the old nodes survive,
// silently breaking pointer equality.
//
// Append-only also means that one list of (key, child) fields always
// interns to the same pointer. Each scanner relies on that to cache the
// types of the object shapes it read last (shape in scan.go): a repeated
// object skips the sort, the duplicate collapse and the shard lock. A
// pooled scanner so keeps up to 256 types alive.

const internShardCount = 64 // power of two; shard = hash & (count-1)

type internShard struct {
	mu sync.Mutex
	m  map[uint64][]*Type // structural hash -> bucket
}

var (
	internShards [internShardCount]internShard
	internNextID atomic.Uint64 // ids 1..4 are the primitive singletons
)

func init() {
	for i := range internShards {
		internShards[i].m = make(map[uint64][]*Type)
	}
	internNextID.Store(4)
}

// newPrimitiveSingleton builds one of the four primitive singletons with a
// fixed id and a pre-cached canonical form. Kinds are 0..3, ids 1..4.
func newPrimitiveSingleton(k Kind, canon string) *Type {
	t := &Type{kind: k, id: uint64(k) + 1}
	t.canon.Store(&canon)
	return t
}

// FNV-1a 64-bit, for key hashes and the reservoir's canonical-string draw.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

//jx:hotpath
func fnv1a[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// fnvByte folds one byte into an FNV-1a state.
func fnvByte(h uint64, c byte) uint64 { return (h ^ uint64(c)) * fnvPrime }

// keyHash is the hash an object key contributes to its field's hash.
//
//jx:hotpath
func keyHash(key string) uint64 { return fnv1a(fnvOffset, key) }

// Seeds of the array and field hashes.
const (
	arraySeed = 0x243f6a8885a308d3
	fieldSeed = 0x13198a2e03707344
)

// mix folds one word into a running hash: an xor, a multiply by an odd
// constant, and an xor-shift that carries the product's high bits down to
// the low ones the shard index reads.
//
//jx:hotpath
func mix(h, w uint64) uint64 {
	h = (h ^ w) * 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

//jx:hotpath
func hashArray(elems []*Type) uint64 {
	h := uint64(arraySeed)
	for _, e := range elems {
		h = mix(h, e.id)
	}
	return h
}

// fieldHash is one object field's term of its object's hash, from the
// key's keyHash kh and the child t.
//
//jx:hotpath
func fieldHash(kh uint64, t *Type) uint64 { return mix(mix(fieldSeed, kh), t.id) }

// hashFields returns an object's hash, the sum of its fields' hashes.
//
//jx:hotpath
func hashFields(fields []Field) uint64 {
	var h uint64
	for _, f := range fields {
		h += fieldHash(keyHash(f.Key), f.Type)
	}
	return h
}

// internArray returns the canonical *Type for the array [elems...]. The
// slice is retained on a miss.
//
//jx:hotpath
func internArray(elems []*Type) *Type { return internArraySlice(elems, false) }

// internArrayScratch is internArray for callers reusing a scratch buffer:
// the slice is copied on a miss and never retained, so the caller may
// overwrite it immediately — this is what keeps the scanner's steady state
// allocation-free once the distinct types have been seen.
//
//jx:hotpath
func internArrayScratch(elems []*Type) *Type { return internArraySlice(elems, true) }

//jx:hotpath
func internArraySlice(elems []*Type, scratch bool) *Type {
	h := hashArray(elems)
	shard := &internShards[h&(internShardCount-1)]
	shard.mu.Lock()
	for _, c := range shard.m[h] {
		if c.kind == KindArray && sameElems(c.elems, elems) {
			shard.mu.Unlock()
			return c
		}
	}
	if scratch {
		elems = append([]*Type(nil), elems...)
	}
	t := &Type{kind: KindArray, elems: elems, id: internNextID.Add(1)}
	shard.m[h] = append(shard.m[h], t)
	shard.mu.Unlock()
	return t
}

// internObject returns the canonical *Type for the key-sorted fields,
// whose hashFields hash is h. With scratch set the slice is copied on a
// miss and never retained (see internArrayScratch); otherwise it is
// retained.
//
//jx:hotpath
func internObject(h uint64, fields []Field, scratch bool) *Type {
	shard := &internShards[h&(internShardCount-1)]
	shard.mu.Lock()
	for _, c := range shard.m[h] {
		if c.kind == KindObject && sameFields(c.fields, fields) {
			shard.mu.Unlock()
			return c
		}
	}
	if scratch {
		fields = append([]Field(nil), fields...)
	}
	t := &Type{kind: KindObject, fields: fields, id: internNextID.Add(1)}
	shard.m[h] = append(shard.m[h], t)
	shard.mu.Unlock()
	return t
}

// sameElems compares two child lists by pointer — sound because children
// are already interned.
//
//jx:hotpath
func sameElems(a, b []*Type) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

//jx:hotpath
func sameFields(a, b []Field) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Type != b[i].Type {
			return false
		}
	}
	return true
}

// InternedTypes reports the number of distinct complex types interned so
// far (primitives excluded) — an observability hook for memory accounting.
func InternedTypes() uint64 { return internNextID.Load() - 4 }
