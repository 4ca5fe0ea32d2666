package jsontype

import (
	"runtime"
	"sync"
	"sync/atomic"
	"weak"
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
// The table is safe for concurrent use (the ingest worker pool decodes in
// parallel), and its entries are weak, as in the standard unique package:
// each entry is a weak.Pointer, so the table keeps no type alive. A type
// that anything can still compare against is strongly reachable, so its
// entry stays live and every build of its structure returns it. Once no
// one holds a type, the collector frees it and its entry reads nil; a
// later build of the same structure misses and makes a fresh type with a
// fresh id, which nothing alive can compare against the old one. Ids are
// never reused, so an id-keyed map (Bag's index, the merge memo's bag
// hash, a partition plan, the reservoir's index, the sketch decoder's
// dedup set) can miss on a re-created type but never hits falsely. The
// table so follows the distinct structure that is still held — a
// retained Bag, the reservoir, the window ring — not all structure ever
// observed, which is what keeps a bounded stream in flat memory.
//
// Dead entries are dropped in place by a per-shard sweep (internShard.add)
// once a GC cycle has completed since the shard's last sweep and the
// shard has taken as many inserts as that sweep kept entries (at least
// 64), so sweeping costs O(1) amortized per insert.
//
// One list of (key, child) fields interns to the same pointer for as long
// as anything holds that pointer. Each scanner relies on that to cache the
// types of the object and array shapes it read last (shape in scan.go): a
// slot holds its type strongly, so the type's entry cannot be dropped
// while the slot holds it, and a repeated shape skips the sort, the
// duplicate collapse and the shard lock. A pooled scanner so keeps up to
// 512 types alive.

const internShardCount = 64 // power of two; shard = hash & (count-1)

type internShard struct {
	mu sync.Mutex
	// m holds one entry per structural hash and more the entries that
	// collide with it, so nearly every entry costs one map slot and no
	// slice of its own.
	m    map[uint64]weak.Pointer[Type]
	more map[uint64][]weak.Pointer[Type]

	inserts int    // entries added since the last sweep
	kept    int    // entries the last sweep kept
	swept   uint64 // gcCycles at the last sweep
}

var (
	internShards [internShardCount]internShard
	internNextID atomic.Uint64 // ids 1..4 are the primitive singletons
)

func init() {
	for i := range internShards {
		internShards[i].m = make(map[uint64]weak.Pointer[Type])
		internShards[i].more = make(map[uint64][]weak.Pointer[Type])
	}
	internNextID.Store(4)
	armGCSentinel()
}

// gcCycles counts the GC cycles that have completed, as seen by a
// sentinel that each cycle collects and whose cleanup re-arms it. A shard
// sweeps only after a cycle, since before one no entry can have died.
var gcCycles atomic.Uint64

// gcSentinel is allocated only to be collected. It holds a pointer so
// that it is not a tiny allocation: tiny objects share a block, which
// stays live while any object in it is, so a cleanup on one might never
// run.
type gcSentinel struct{ _ *gcSentinel }

func armGCSentinel() {
	runtime.AddCleanup(&gcSentinel{}, func(struct{}) {
		gcCycles.Add(1)
		armGCSentinel()
	}, struct{}{})
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
func internArray(elems []*Type) *Type { return internArraySlice(hashArray(elems), elems, false) }

// internArrayScratch is internArray for callers reusing a scratch buffer:
// the slice is copied on a miss and never retained, so the caller may
// overwrite it immediately — this is what keeps the scanner's steady state
// allocation-free once the distinct types have been seen.
//
//jx:hotpath
func internArrayScratch(elems []*Type) *Type { return internArraySlice(hashArray(elems), elems, true) }

// internArraySlice is internArray and internArrayScratch for elems whose
// hashArray hash is h.
//
//jx:hotpath
func internArraySlice(h uint64, elems []*Type, scratch bool) *Type {
	shard := &internShards[h&(internShardCount-1)]
	shard.mu.Lock()
	if c := shard.m[h].Value(); c != nil && c.kind == KindArray && sameElems(c.elems, elems) {
		shard.mu.Unlock()
		return c
	}
	for _, w := range shard.more[h] {
		if c := w.Value(); c != nil && c.kind == KindArray && sameElems(c.elems, elems) {
			shard.mu.Unlock()
			return c
		}
	}
	if scratch {
		elems = append([]*Type(nil), elems...)
	}
	t := shard.add(h, &Type{kind: KindArray, elems: elems})
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
	if c := shard.m[h].Value(); c != nil && c.kind == KindObject && sameFields(c.fields, fields) {
		shard.mu.Unlock()
		return c
	}
	for _, w := range shard.more[h] {
		if c := w.Value(); c != nil && c.kind == KindObject && sameFields(c.fields, fields) {
			shard.mu.Unlock()
			return c
		}
	}
	if scratch {
		fields = append([]Field(nil), fields...)
	}
	t := shard.add(h, &Type{kind: KindObject, fields: fields})
	shard.mu.Unlock()
	return t
}

// add registers t, a type no live entry matches, under hash h: it gives t
// the next id and a weak entry, and sweeps the shard when a GC cycle has
// completed since its last sweep and it has taken at least as many
// inserts as that sweep kept entries. The caller holds s.mu.
//
//jx:coldpath runs once per distinct type
func (s *internShard) add(h uint64, t *Type) *Type {
	t.id = internNextID.Add(1)
	w := weak.Make(t)
	if s.m[h].Value() == nil {
		s.m[h] = w // the hash's first entry, or one whose type died
	} else {
		s.more[h] = append(s.more[h], w)
	}
	s.inserts++
	if s.inserts >= max(64, s.kept) && gcCycles.Load() != s.swept {
		s.sweep()
	}
	return t
}

// sweep drops the entries whose types have been collected, in place. The
// caller holds s.mu.
func (s *internShard) sweep() {
	for h, w := range s.m {
		if w.Value() == nil {
			delete(s.m, h)
		}
	}
	kept := len(s.m)
	for h, b := range s.more {
		live := b[:0]
		for _, w := range b {
			if w.Value() != nil {
				live = append(live, w)
			}
		}
		clear(b[len(live):])
		if len(live) == 0 {
			delete(s.more, h)
		} else {
			s.more[h] = live
		}
		kept += len(live)
	}
	s.inserts, s.kept, s.swept = 0, kept, gcCycles.Load()
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

// InternedTypes reports the number of complex types interned so far
// (primitives excluded), counting every type ever made, including types
// since collected and structures made again after they were: the number
// of intern misses, an observability hook for memory accounting. The
// number alive is at most this.
func InternedTypes() uint64 { return internNextID.Load() - 4 }
