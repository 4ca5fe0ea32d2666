package core

import (
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
//
// Within an epoch the memo keeps only the entries the latest Finish looked
// up or created: a Finish reads the previous one's entries from prev,
// collects its own in cur, and endFinish makes cur the next prev. On a
// live stream most bag hashes change with every snapshot, so older
// entries could never hit again; dropping them keeps the memo
// proportional to distinct structure, not to the number of Finish calls.
type mergeMemo struct {
	epoch     uint64
	prev, cur map[memoKey]schema.Schema
	created   bool // this Finish computed at least one entry
}

type memoKey struct {
	path string
	bag  uint64
}

func newMergeMemo() *mergeMemo {
	return &mergeMemo{cur: map[memoKey]schema.Schema{}}
}

// validate keeps the cache when the decision epoch is unchanged and resets
// it otherwise.
func (mm *mergeMemo) validate(epoch uint64) {
	if mm.epoch != epoch {
		mm.epoch = epoch
		mm.prev = nil
	}
}

// endFinish makes this Finish's entries the ones the next Finish can hit.
// A Finish that created nothing was a hit at the root, over a stream that
// had not changed; it keeps prev, which still holds the entries under that
// root for the next Finish that does change it.
func (mm *mergeMemo) endFinish() {
	if mm.created {
		mm.prev = mm.cur
	}
	mm.cur, mm.created = map[memoKey]schema.Schema{}, false
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
	for path, dec := range d.decisions {
		e := fnvString(fnvOffset64, path)
		for _, b := range [4]byte{boolByte(dec.hasArr), byte(dec.arr), boolByte(dec.hasObj), byte(dec.obj)} {
			e = (e ^ uint64(b)) * fnvPrime64
		}
		h += mix64(e)
	}
	for _, n := range d.nodes {
		for _, plan := range [2]*partitionPlan{n.objPlan, n.arrPlan} {
			if plan != nil {
				h += plan.hash
			}
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
