package jsontype

import (
	"math"
	"sort"
)

// ReservoirBag is a bounded-capacity Bag: a multiset over at most
// `capacity` distinct types, maintained as a weighted reservoir in the
// style of Efraimidis–Spirakis A-ES sampling. Where Bag grows O(distinct)
// forever, a ReservoirBag holds the `capacity` distinct types with the
// strongest priorities and sheds the rest, which is what lets an
// accumulator ingest an unbounded stream at flat memory.
//
// Each distinct type t carries a priority key u_t^(1/w_t), where w_t is
// the multiplicity observed while resident and u_t ∈ (0,1) is a uniform
// derived deterministically from the type's canonical structure and the
// reservoir seed — not from a stateful RNG. Determinism is the point:
// replaying a stream reproduces the identical reservoir (and identical
// schema bytes downstream), and two reservoirs built over shards of a
// stream merge into a state that does not depend on which shard was the
// receiver. Heavier types get keys closer to 1 and so survive eviction
// longer, the "weighted" in weighted reservoir.
//
// Exactness contract (pinned by FuzzReservoirVsExact): while no eviction
// has occurred — capacity ≥ distinct types observed — a ReservoirBag is
// bit-for-bit an exact Bag: same types, same counts, same first-seen
// order. After eviction it is an approximation; Dropped and Evictions
// report how much of the stream fell outside the reservoir.
//
// The zero value is not valid; use NewReservoirBag. Not safe for
// concurrent use.
type ReservoirBag struct {
	capacity int
	seed     int64

	entries []reservoirEntry // slot-addressed; freed slots recycled
	free    []int            // recycled slots
	index   map[uint64]int   // intern id -> slot
	heap    []int            // min-heap of active slots, weakest key at root
	pos     []int            // slot -> heap position
	nextSeq uint64           // admission order, survives slot recycling
	total   int              // retained occurrences
	seen    int64            // occurrences offered, retained or not
	dropped int64            // occurrences lost to rejection or eviction
	evicted int              // eviction count
}

type reservoirEntry struct {
	t       *Type
	count   int
	lnU     float64 // ln u_t, negative, fixed per (structure, seed)
	seq     uint64  // admission order among current residents
	touched bool    // saw an occurrence since the previous Decay
}

// NewReservoirBag returns an empty reservoir holding at most capacity
// distinct types. capacity must be positive.
func NewReservoirBag(capacity int, seed int64) *ReservoirBag {
	if capacity <= 0 {
		panic("jsontype: NewReservoirBag with non-positive capacity")
	}
	return &ReservoirBag{
		capacity: capacity,
		seed:     seed,
		index:    make(map[uint64]int),
	}
}

// reservoirLnU derives the deterministic uniform behind a type's priority:
// an FNV-1a hash of the canonical structure, finalized with a
// splitmix64-style mix of the seed so distinct seeds draw independent
// reservoirs. The canonical form — not the intern id or the structural
// hash — is what makes the draw stable across processes and runs: intern
// ids depend on interning order, which the decode worker pool does not
// pin. The form is hashed as it would be written (canonHash), not
// rendered, so an admitted type gets no cached string and no byte of its
// form is stored.
func (r *ReservoirBag) reservoirLnU(t *Type) float64 {
	h := t.canonHash(fnvOffset)
	h ^= uint64(r.seed)
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	u := (float64(h>>11) + 0.5) / (1 << 53) // strictly inside (0, 1)
	return math.Log(u)
}

// key is the A-ES priority ln(u)/w in log space: negative, with heavier
// or luckier types closer to zero. The weakest resident (most negative
// key) is the eviction candidate.
//
//jx:hotpath
func (r *ReservoirBag) key(slot int) float64 {
	e := &r.entries[slot]
	return e.lnU / float64(e.count)
}

// Add inserts one occurrence of t.
//
//jx:hotpath
func (r *ReservoirBag) Add(t *Type) { r.AddN(t, 1) }

// AddN inserts n occurrences of t. n must be positive. The steady-state
// path — an occurrence of a resident type — is a map probe, a counter
// bump, and a heap repair, with no allocation.
//
//jx:hotpath
func (r *ReservoirBag) AddN(t *Type, n int) {
	if n <= 0 {
		panic("jsontype: ReservoirBag.AddN with non-positive count")
	}
	r.seen += int64(n)
	if slot, ok := r.index[t.ID()]; ok {
		r.entries[slot].count += n
		r.entries[slot].touched = true
		r.total += n
		// The key only strengthened; restore heap order downward.
		r.siftDown(r.pos[slot])
		return
	}
	r.admit(t, n)
}

// admit handles a first occurrence: insert while below capacity,
// otherwise challenge the weakest resident.
//
//jx:coldpath runs once per distinct type reaching the reservoir, not per record
func (r *ReservoirBag) admit(t *Type, n int) {
	lnU := r.reservoirLnU(t)
	if len(r.heap) >= r.capacity {
		weak := r.heap[0]
		// Ties (a 64-bit collision of the underlying uniforms) keep the
		// resident, deterministically.
		if lnU/float64(n) <= r.key(weak) {
			r.dropped += int64(n)
			return
		}
		r.dropped += int64(r.entries[weak].count)
		r.total -= r.entries[weak].count
		r.evicted++
		r.removeSlot(weak)
	}
	slot := r.allocSlot(reservoirEntry{t: t, count: n, lnU: lnU, seq: r.nextSeq, touched: true})
	r.nextSeq++
	r.index[t.ID()] = slot
	r.total += n
	r.heapPush(slot)
}

func (r *ReservoirBag) allocSlot(e reservoirEntry) int {
	if n := len(r.free); n > 0 {
		slot := r.free[n-1]
		r.free = r.free[:n-1]
		r.entries[slot] = e
		return slot
	}
	r.entries = append(r.entries, e)
	r.pos = append(r.pos, -1)
	return len(r.entries) - 1
}

func (r *ReservoirBag) removeSlot(slot int) {
	delete(r.index, r.entries[slot].t.ID())
	r.heapRemove(r.pos[slot])
	r.entries[slot] = reservoirEntry{}
	r.free = append(r.free, slot)
}

// ---- min-heap over active slots, keyed by r.key ----

//jx:hotpath
func (r *ReservoirBag) heapPush(slot int) {
	r.heap = append(r.heap, slot)
	r.pos[slot] = len(r.heap) - 1
	r.siftUp(len(r.heap) - 1)
}

//jx:hotpath
func (r *ReservoirBag) heapRemove(i int) {
	last := len(r.heap) - 1
	r.swap(i, last)
	r.pos[r.heap[last]] = -1
	r.heap = r.heap[:last]
	if i < last {
		r.siftDown(i)
		r.siftUp(i)
	}
}

//jx:hotpath
func (r *ReservoirBag) swap(i, j int) {
	r.heap[i], r.heap[j] = r.heap[j], r.heap[i]
	r.pos[r.heap[i]] = i
	r.pos[r.heap[j]] = j
}

//jx:hotpath
func (r *ReservoirBag) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if r.key(r.heap[i]) >= r.key(r.heap[parent]) {
			return
		}
		r.swap(i, parent)
		i = parent
	}
}

//jx:hotpath
func (r *ReservoirBag) siftDown(i int) {
	for {
		left, right := 2*i+1, 2*i+2
		min := i
		if left < len(r.heap) && r.key(r.heap[left]) < r.key(r.heap[min]) {
			min = left
		}
		if right < len(r.heap) && r.key(r.heap[right]) < r.key(r.heap[min]) {
			min = right
		}
		if min == i {
			return
		}
		r.swap(i, min)
		i = min
	}
}

// ---- merge ----

// Merge folds every retained occurrence of other into r — the bounded
// counterpart of Bag.Merge. The operation is symmetric in the retained
// multiset: entries from both sides are combined (weights of common types
// add, priorities recomputed from combined weights) and the strongest
// `capacity` survive, so a ⊕ b and b ⊕ a retain identical (type, count)
// multisets; only the first-seen presentation order follows the receiver,
// exactly as Bag.Merge orders its union. Both reservoirs must share
// capacity and seed. other is not modified.
func (r *ReservoirBag) Merge(other *ReservoirBag) {
	if other == nil {
		return
	}
	if other.capacity != r.capacity || other.seed != r.seed {
		panic("jsontype: ReservoirBag.Merge with mismatched capacity or seed")
	}
	r.seen += other.seen
	r.dropped += other.dropped
	r.evicted += other.evicted

	// Fold other's entries in its admission order: common types combine
	// counts (key strengthens), novel types run the usual admission
	// challenge — but against the *combined* population, so first gather
	// everything, then select survivors symmetrically.
	merged := r.activeEntries()
	byID := make(map[uint64]int, len(merged)+other.Distinct())
	for i, e := range merged {
		byID[e.t.ID()] = i
	}
	other.each(func(e reservoirEntry) {
		if i, ok := byID[e.t.ID()]; ok {
			merged[i].count += e.count
		} else {
			byID[e.t.ID()] = len(merged)
			merged = append(merged, e)
		}
	})

	if len(merged) > r.capacity {
		drop := weakestEntries(merged, len(merged)-r.capacity)
		kept := merged[:0]
		for i, e := range merged {
			if drop[i] {
				r.dropped += int64(e.count)
				r.evicted++
			} else {
				kept = append(kept, e)
			}
		}
		merged = kept
	}
	r.rebuild(merged)
}

// weakestEntries marks the k weakest entries of the combined population
// by A-ES key, ties broken by canonical structure (never by position, so
// the selection is independent of merge order).
func weakestEntries(entries []reservoirEntry, k int) map[int]bool {
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	keyOf := func(e reservoirEntry) float64 { return e.lnU / float64(e.count) }
	// Partial selection is overkill; a full sort on a cold path keeps the
	// tie-break logic in one place.
	sort.Slice(order, func(a, b int) bool {
		ka, kb := keyOf(entries[order[a]]), keyOf(entries[order[b]])
		if ka != kb {
			return ka < kb
		}
		return entries[order[a]].t.Canon() < entries[order[b]].t.Canon()
	})
	drop := make(map[int]bool, k)
	for _, i := range order[:k] {
		drop[i] = true
	}
	return drop
}

// rebuild resets the reservoir to exactly the given entries, reassigning
// admission order to the slice order.
func (r *ReservoirBag) rebuild(entries []reservoirEntry) {
	r.entries = r.entries[:0]
	r.free = r.free[:0]
	r.heap = r.heap[:0]
	r.pos = r.pos[:0]
	r.index = make(map[uint64]int, len(entries))
	r.nextSeq = 0
	r.total = 0
	for _, e := range entries {
		e.seq = r.nextSeq
		r.nextSeq++
		slot := r.allocSlot(e)
		r.index[e.t.ID()] = slot
		r.total += e.count
		r.heapPush(slot)
	}
}

// ---- decay ----

// Decay multiplies every retained count by factor (0 < factor < 1),
// flooring, and removes types whose count reaches zero — the aging step
// that lets dead types leave the reservoir instead of pinning a slot with
// stale weight. A type that saw an occurrence since the previous Decay is
// never removed: its count floors at 1 and only a full idle interval ages
// it out. Without that floor, a rotation on a stream of mostly-singleton
// types would empty the reservoir wholesale (every count-1 entry flooring
// to zero at once) and synthesis over the snapshot would collapse to the
// bottom schema. Returns the number of types aged out entirely. Decayed
// occurrences are forgotten, not counted as dropped: they were retained
// and have simply expired.
func (r *ReservoirBag) Decay(factor float64) int {
	if !(factor > 0 && factor < 1) {
		panic("jsontype: ReservoirBag.Decay factor must be in (0, 1)")
	}
	aged := 0
	kept := r.activeEntries()
	out := kept[:0]
	for _, e := range kept {
		e.count = int(float64(e.count) * factor)
		if e.touched && e.count == 0 {
			e.count = 1
		}
		if e.count == 0 {
			aged++
			continue
		}
		e.touched = false
		out = append(out, e)
	}
	r.rebuild(out)
	return aged
}

// ---- enumeration (the Bag read contract) ----

// activeEntries returns the live entries in admission (first-seen) order.
func (r *ReservoirBag) activeEntries() []reservoirEntry {
	out := make([]reservoirEntry, 0, len(r.heap))
	for _, slot := range r.heap {
		out = append(out, r.entries[slot])
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

func (r *ReservoirBag) each(fn func(reservoirEntry)) {
	for _, e := range r.activeEntries() {
		fn(e)
	}
}

// Each calls fn for every retained distinct type with its multiplicity,
// in first-seen order — the same enumeration contract as Bag.Each.
func (r *ReservoirBag) Each(fn func(t *Type, n int)) {
	r.each(func(e reservoirEntry) { fn(e.t, e.count) })
}

// Len returns the retained occurrence count.
func (r *ReservoirBag) Len() int { return r.total }

// Distinct returns the number of retained distinct types.
func (r *ReservoirBag) Distinct() int { return len(r.heap) }

// Capacity returns the reservoir's distinct-type bound.
func (r *ReservoirBag) Capacity() int { return r.capacity }

// Seen returns the lifetime occurrence count offered to the reservoir,
// retained or not.
func (r *ReservoirBag) Seen() int64 { return r.seen }

// Dropped returns the occurrences lost to admission rejection or
// eviction.
func (r *ReservoirBag) Dropped() int64 { return r.dropped }

// Evictions returns how many resident types have been evicted.
func (r *ReservoirBag) Evictions() int { return r.evicted }

// Snapshot materializes the retained multiset as an exact Bag in
// first-seen order — the hand-off to passes ② and ③, which consume the
// ordinary Bag contract.
func (r *ReservoirBag) Snapshot() *Bag {
	out := &Bag{}
	r.Each(func(t *Type, n int) { out.AddN(t, n) })
	return out
}
