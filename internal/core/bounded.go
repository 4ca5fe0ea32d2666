package core

import (
	"jxplain/internal/jsontype"
)

// Bounded-stream operation (Config.Bounds): the accumulator swaps its two
// unbounded structures for capped counterparts —
//
//   - the exact union bag becomes a weighted reservoir over distinct
//     record types (jsontype.ReservoirBag), so pass ②/③ synthesis runs
//     over at most ReservoirCapacity types;
//   - the cumulative pass-① sketch becomes a live epoch plus a ring of
//     closed, read-only window tries (sketchRing), so detection
//     statistics cover the recent horizon and trie memory is bounded by
//     the horizon's distinct structure;
//
// with optional exponential decay aging both at every rotation. The
// remaining unbounded term is the global type interner, which is
// append-only by design (pointer identity is the bag's currency); its
// per-type footprint is small and flat-RSS claims are made net of it —
// see DESIGN.md "Unbounded streams" and TestDecayBoundsChurnTrie.

// advance moves the bounded stream's record clock forward by n and
// rotates once when the clock passes the cadence. An add is atomic with
// respect to windows — a burst larger than WindowRecords lands in one
// epoch and closes it, rather than padding the ring with empty windows —
// so windows hold *at least* WindowRecords records. A no-op without
// bounds.
func (a *Accumulator) advance(n int) {
	w := a.cfg.Bounds.WindowRecords
	if w <= 0 {
		return
	}
	a.sinceRotate += n
	if a.sinceRotate >= w {
		a.sinceRotate = 0
		a.rotate()
	}
}

// rotate closes the current epoch: with a ring, the live sketch itself is
// pushed (evicting the oldest window beyond the width) and replaced by a
// fresh epoch; without one, decay ages the live sketch in place. The
// reservoir decays on every rotation when a factor is set.
//
// The fresh epoch's root key list starts at the closed window's root key
// count: a root keyed by session or entity ids meets about as many keys
// in each window as in the last, so its list (and, through reindex, its
// index) is sized once per window instead of grown again from empty.
func (a *Accumulator) rotate() {
	b := a.cfg.Bounds
	if a.ring != nil {
		closed := a.sketch
		a.ring.push(closed)
		a.sketch = NewPathSketch()
		if n := len(closed.root.keys.entries); n > 0 {
			a.sketch.root.keys.reserve(n)
		}
		if a.onWindowClose != nil {
			a.onWindowClose(a.ring.closed-1, closed.Records(), closed)
		}
	} else if b.hasDecay() && a.sketch != nil {
		a.sketch.Decay(b.DecayFactor)
	}
	if b.hasDecay() && a.res != nil {
		a.res.Decay(b.DecayFactor)
	}
}

// OnWindowClose registers a hook called at every ring rotation with the
// window's index (0-based, monotone), its record count, and the closed
// epoch's sketch. The sketch is the ring's own window and is read-only:
// the hook may derive statistics from it (e.g. a windowed drift diff) or
// Marshal it, now or later, but must not Add, Merge or Decay it — the
// accumulator folds it into every rollup until it leaves the ring. Only
// ring-configured accumulators rotate windows.
func (a *Accumulator) OnWindowClose(fn func(index, records int, sketch *PathSketch)) {
	a.onWindowClose = fn
}

// unionBag returns the bag passes ② and ③ synthesize from: the exact
// union bag, or a snapshot of the reservoir's retained types.
func (a *Accumulator) unionBag() *jsontype.Bag {
	if a.res != nil {
		return a.res.Snapshot()
	}
	return a.bag
}

// statsSketch returns the sketch pass ① derives from: the cumulative live
// sketch, or the rollup of the retained ring windows, folded in order,
// plus the live epoch. Rollup never consumes the live epoch (it folds
// through the copying combine), so more records may be added afterwards.
func (a *Accumulator) statsSketch() *PathSketch {
	if a.ring == nil {
		return a.sketch
	}
	return a.ring.rollup(a.sketch)
}

// Reservoir exposes the bounded union's counters (seen, retained,
// dropped, evictions) for observability; nil in exact mode.
func (a *Accumulator) Reservoir() *jsontype.ReservoirBag { return a.res }

// WindowsClosed returns how many windows have rotated into the ring over
// the accumulator's lifetime (0 without a ring).
func (a *Accumulator) WindowsClosed() int {
	if a.ring == nil {
		return 0
	}
	return a.ring.closed
}

// SketchNodes returns the trie node count of the state pass ① would read
// right now — the rollup of the retained windows and the live sketch —
// which is the memory proxy TestDecayBoundsChurnTrie asserts on and the
// bench trace reports as core.sketch_nodes. 0 for sampling configurations
// that keep no sketch.
func (a *Accumulator) SketchNodes() int {
	if a.sketch == nil {
		return 0
	}
	return a.statsSketch().Nodes()
}
