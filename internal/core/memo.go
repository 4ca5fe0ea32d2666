package core

import (
	"encoding/binary"
	"hash/fnv"

	"jxplain/internal/jsontype"
	"jxplain/internal/schema"
)

// mergeMemo caches pass-③ results across Finish calls on one Accumulator.
// Keys pair the path with an order-independent content hash of the bag
// merged there: interning gives every distinct type a dense uint64 id, so
// the (id, count) multiset identifies a bag exactly (up to 64-bit mixing).
// Sharing cached schema nodes across results is sound because synthesis
// never mutates a schema after construction and schema.Simplify rebuilds
// rather than mutates.
//
// The memo is only valid for one epoch of global decisions: the pass-①
// decision map and the pass-② partition plans together determine how any
// (path, bag) pair synthesizes. validate drops all entries when that
// epoch hash changes (e.g. new records flipped a tuple/collection decision
// or re-clustered a partition point).
type mergeMemo struct {
	epoch uint64
	m     map[memoKey]schema.Schema
}

type memoKey struct {
	path string
	bag  uint64
}

func newMergeMemo() *mergeMemo {
	return &mergeMemo{m: map[memoKey]schema.Schema{}}
}

// validate keeps the cache when the decision epoch is unchanged and resets
// it otherwise.
func (mm *mergeMemo) validate(epoch uint64) {
	if mm.epoch != epoch {
		mm.epoch = epoch
		mm.m = map[memoKey]schema.Schema{}
	}
}

// mix64 is the splitmix64 finalizer — used to whiten per-element hashes
// before the commutative sum that makes bag and epoch hashes
// order-independent.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// bagContentHash folds a bag's (type id, count) pairs into one hash,
// independent of iteration order.
func bagContentHash(bag *jsontype.Bag) uint64 {
	var h uint64 = 0x9E3779B97F4A7C15
	bag.Each(func(t *jsontype.Type, n int) {
		h += mix64(mix64(t.ID()) ^ uint64(n))
	})
	return h
}

// epochHash folds the pass-① decisions and pass-② plans of a decider into
// the memo-invalidation key. Iteration order over the maps is irrelevant:
// each entry is hashed independently and the results summed.
func (d *pipelineDecider) epochHash() uint64 {
	var h uint64
	var buf [16]byte
	for path, dec := range d.decisions {
		e := fnv.New64a()
		e.Write([]byte(path))
		buf[0] = boolByte(dec.hasArr)
		buf[1] = byte(dec.arr)
		buf[2] = boolByte(dec.hasObj)
		buf[3] = byte(dec.obj)
		e.Write(buf[:4])
		h += mix64(e.Sum64())
	}
	for planKey, plan := range d.plans {
		base := fnv.New64a()
		base.Write([]byte(planKey))
		binary.LittleEndian.PutUint64(buf[:8], uint64(plan.n))
		base.Write(buf[:8])
		h += mix64(base.Sum64())
		for canon, cluster := range plan.assign {
			e := fnv.New64a()
			e.Write([]byte(planKey))
			e.Write([]byte{0})
			e.Write([]byte(canon))
			binary.LittleEndian.PutUint64(buf[:8], uint64(cluster))
			e.Write(buf[:8])
			h += mix64(e.Sum64())
		}
	}
	return h
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
