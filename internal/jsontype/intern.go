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
// caches it beside the raw key (see keyTable in scan.go), so a scanned
// object and a built object hash — and intern — identically. The hash is
// process-local and only picks buckets: nothing serialized or sampled
// depends on it (the reservoir draws from canonical strings).
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
// parallel), and its entries are weak, as in the standard unique package,
// but per slab rather than per type. Types are allocated from slabs of
// slabSize, and each type height (a primitive's is 0, a complex type's one
// more than its tallest child's) has a pool that fills one slab at a time
// with the next types of that height; an entry is a weak.Pointer to the
// slab and a slot in it. So weak.Make and an allocation are paid once per
// slab, and the table keeps no slab alive: a pool holds the slab it is
// filling only weakly too. An interior pointer keeps its whole object
// alive, so a slab lives while anything holds any of its types, and its
// entries then stay live and every build of their structures returns the
// same types. Once no one holds any type of a slab, the collector frees
// it, its entries read nil, and its cleanup (dropSlab) removes them; a
// later build of one of its structures misses and makes a fresh type with
// a fresh id, which nothing alive can compare against the old one.
//
// Reclamation is so per slab, not per type: a type that nothing holds
// outlives the last reference to it while a slab-mate is held, and a
// build of its structure in that time returns it. That is sound. Its
// memory, id and children are intact (the slab holds its children too),
// and ids are never reused, so an id-keyed map (Bag's index, the merge
// memo's bag hash, a partition plan, the reservoir's index, the sketch
// decoder's dedup set) can miss on a re-created type but never hits
// falsely.
//
// What a held type keeps alive is bounded by its height, not by the
// stream. Its slab keeps its slab-mates and their children, whose slabs
// are of lower heights and keep their own slab-mates' children, and so on
// down: the chain ends within the type's height. Slabs shared across
// heights would not end it. A dead parent's slab could then keep its
// child's slab, whose other slots keep older children's slabs, back
// through the whole stream whenever records bring novel types below the
// root (TestBoundedHeapFlat's nested case). And since a pool fills its
// slab with the types made next, slab-mates were made close together in
// the stream, and so were their children. The table so follows the
// distinct structure that is still held (a retained Bag, the reservoir,
// the window ring) and a few slabs around each held type per level, not
// all structure ever observed, which is what keeps a bounded stream in
// flat memory.
//
// Only a lookup of an entry's hash reads its weak pointer. A sweep that
// read them all would, during a collection's mark phase, mark every slab
// it read as live (weak.Pointer.Value does), so dead slabs, and with them
// other shards' entries, would outlive the cycle; dropSlab instead runs
// once the slab is gone.
//
// One list of (key, child) fields interns to the same pointer for as long
// as anything holds that pointer. Each scanner relies on that to cache the
// types of the object and array shapes it read last (shape in scan.go): a
// slot holds its type strongly, so the type's slab and entry cannot be
// dropped while the slot holds it, and a repeated shape skips the sort,
// the duplicate collapse and the shard lock. A pooled scanner so keeps up
// to 512 types alive, and their slabs.

const internShardCount = 64 // power of two; shard = hash & (count-1)

// slabSize is the number of types allocated at once. A larger slab pays
// weak.Make and an allocation more rarely, and keeps more unheld slab-mates
// alive beside each held type; 16 was chosen by measuring the churn
// workload's speed and peak RSS together with TestBoundedHeapFlat's heap
// ratio (DESIGN "Hash-consed types").
const slabSize = 16

// slab is the block complex types are allocated from.
type slab [slabSize]Type

// slabHeights is the number of heights whose types share slabs. A type at
// least slabHeights tall, taller than real records are, takes a slab of
// its own, and so is reclaimed alone.
const slabHeights = 32

// slabPool hands out the slots of the slab being filled with the types of
// one height, which it holds only weakly, so it pins nothing.
type slabPool struct {
	mu   sync.Mutex
	open weak.Pointer[slab]
	keys *slabKeys // open's
}

// slabKeys is what a slab's cleanup needs to drop its entries: the slab,
// held weakly, and the hash each slot taken so far is registered under.
// Its pool's lock guards used and hash; a slab of its own has no pool.
type slabKeys struct {
	slab weak.Pointer[slab]
	pool *slabPool
	used int
	hash [slabSize]uint64
}

var slabPools [slabHeights]slabPool

// entry locates an interned type: a slot of a slab, held weakly.
type entry struct {
	slab weak.Pointer[slab]
	slot int
}

// get returns the entry's type, or nil once its slab has been collected
// (and for the zero entry).
//
//jx:hotpath
func (e entry) get() *Type {
	if s := e.slab.Value(); s != nil {
		return &s[e.slot]
	}
	return nil
}

type internShard struct {
	mu sync.Mutex
	// m holds one entry per structural hash and more the entries that
	// collide with it, so nearly every entry costs one map slot and no
	// slice of its own.
	m    map[uint64]entry
	more map[uint64][]entry
}

var (
	internShards [internShardCount]internShard
	internNextID atomic.Uint64 // ids 1..4 are the primitive singletons
)

func init() {
	for i := range internShards {
		internShards[i].m = make(map[uint64]entry)
		internShards[i].more = make(map[uint64][]entry)
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
	if c := shard.m[h].get(); c != nil && c.kind == KindArray && sameElems(c.elems, elems) {
		shard.mu.Unlock()
		return c
	}
	for _, e := range shard.more[h] {
		if c := e.get(); c != nil && c.kind == KindArray && sameElems(c.elems, elems) {
			shard.mu.Unlock()
			return c
		}
	}
	if scratch {
		elems = append([]*Type(nil), elems...)
	}
	t := shard.add(h, KindArray, elems, nil)
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
	if c := shard.m[h].get(); c != nil && c.kind == KindObject && sameFields(c.fields, fields) {
		shard.mu.Unlock()
		return c
	}
	for _, e := range shard.more[h] {
		if c := e.get(); c != nil && c.kind == KindObject && sameFields(c.fields, fields) {
			shard.mu.Unlock()
			return c
		}
	}
	if scratch {
		fields = append([]Field(nil), fields...)
	}
	t := shard.add(h, KindObject, nil, fields)
	shard.mu.Unlock()
	return t
}

// add registers a new type of the given kind and children under hash h,
// where no live entry matches that structure, and returns it. The type
// takes the next slot of the slab its height fills (take) and the next id.
// The caller holds s.mu.
//
//jx:coldpath runs once per distinct type
func (s *internShard) add(h uint64, kind Kind, elems []*Type, fields []Field) *Type {
	height := 0
	for _, c := range elems {
		height = max(height, int(c.height))
	}
	for _, f := range fields {
		height = max(height, int(f.Type.height))
	}
	height = min(height+1, slabHeights)
	t, e := take(height, h)
	t.kind, t.height, t.elems, t.fields = kind, uint8(height), elems, fields
	t.id = internNextID.Add(1)
	if s.m[h].get() == nil {
		s.m[h] = e // the hash's first entry, or one whose slab died
	} else {
		s.more[h] = append(s.more[h], e)
	}
	return t
}

// take returns a free slot for a type of the given height that will be
// registered under hash h, and the entry that locates it: the next slot of
// its height's open slab, which a new slab replaces when it is full or has
// been collected. A type at least slabHeights tall takes a slab of its own.
//
//jx:coldpath runs once per distinct type, and weak.Make once per slab
func take(height int, h uint64) (*Type, entry) {
	if height >= slabHeights {
		sl, k := newSlab(nil)
		k.used, k.hash[0] = 1, h
		return &sl[0], entry{k.slab, 0}
	}
	p := &slabPools[height]
	p.mu.Lock()
	sl := p.open.Value()
	if sl == nil || p.keys.used == slabSize {
		sl, p.keys = newSlab(p)
		p.open = p.keys.slab
	}
	k := p.keys
	e := entry{k.slab, k.used}
	k.hash[k.used] = h
	k.used++
	p.mu.Unlock()
	return &sl[e.slot], e
}

// newSlab makes a slab for pool p (nil for a slab of its own) whose
// cleanup drops its entries once the collector has freed it.
//
//jx:coldpath runs once per slab
func newSlab(p *slabPool) (*slab, *slabKeys) {
	sl := new(slab)
	k := &slabKeys{slab: weak.Make(sl), pool: p}
	runtime.AddCleanup(sl, dropSlab, k)
	return sl, k
}

// dropSlab drops the entries of a collected slab, each from its shard,
// unless an insert has already put a live entry in its place.
func dropSlab(k *slabKeys) {
	if k.pool != nil {
		k.pool.mu.Lock()
	}
	used, hash := k.used, k.hash
	if k.pool != nil {
		k.pool.mu.Unlock()
	}
	for slot, h := range hash[:used] {
		s := &internShards[h&(internShardCount-1)]
		s.mu.Lock()
		s.drop(h, entry{k.slab, slot})
		s.mu.Unlock()
	}
}

// drop removes entry e from hash h's entries, if it is there. The caller
// holds s.mu.
func (s *internShard) drop(h uint64, e entry) {
	if s.m[h] == e {
		delete(s.m, h)
		return
	}
	b := s.more[h]
	for i := range b {
		if b[i] == e {
			last := len(b) - 1
			b[i], b[last] = b[last], entry{}
			if last == 0 {
				delete(s.more, h)
			} else {
				s.more[h] = b[:last]
			}
			return
		}
	}
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
