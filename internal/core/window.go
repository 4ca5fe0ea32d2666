package core

// Windowed sketch rings: the pass-① state of an unbounded stream, held as
// a fixed ring of per-window PathSketch epochs instead of one
// ever-growing trie. The live epoch accumulates; every WindowRecords
// records it is closed and pushed into the ring as it stands, evicting
// the oldest window once the ring is full, and a fresh epoch takes its
// place. Deriving statistics folds the retained windows, oldest first,
// and then the live epoch into one fresh sketch through the copying
// combine, so the decisions always reflect the last `width` windows of
// the stream — retired paths fall out of scope when their windows
// expire, and memory is bounded by the distinct structure of the window
// horizon, not of the whole stream.
//
// A closed window stays a trie, read-only from the moment it closes:
// nothing folds into it again, so it can be handed to the window-close
// hook, folded into any number of rollups and adopted by a merge without
// a copy. The ring does not encode its windows because their bytes would
// never leave the process — a bounded Accumulator marshals its reservoir
// snapshot, not its windows — and most windows are evicted before any
// rollup reads them, so an encode at every rotation and a decode at every
// rollup would buy nothing. A window held as a trie takes more memory
// than its encoding; object-only nodes without an array block, and
// windows without list indexes, pay for most of it (DESIGN "Windowed
// sketch ring").

// sketchRing holds the closed windows, oldest first.
type sketchRing struct {
	width   int           // closed windows retained (≥ 1)
	windows []*PathSketch // closed epochs, oldest first; read-only
	closed  int           // lifetime count of closed windows
}

func newSketchRing(width int) *sketchRing {
	return &sketchRing{width: width}
}

// push retires a closed epoch into the ring, evicting the oldest window
// beyond the width. The ring never folds into the sketch again, so it
// drops the sketch's list indexes.
func (g *sketchRing) push(s *PathSketch) {
	s.root.dropIndexes()
	g.windows = append(g.windows, s)
	g.closed++
	if len(g.windows) > g.width {
		copy(g.windows, g.windows[1:])
		g.windows[len(g.windows)-1] = nil
		g.windows = g.windows[:len(g.windows)-1]
	}
}

// rollup folds the retained windows, oldest first, and then the live
// epoch into one fresh sketch. Every fold copies (combineShared), so
// neither the windows nor the live epoch are touched, and the
// accumulator can keep appending to the live epoch afterwards.
func (g *sketchRing) rollup(live *PathSketch) *PathSketch {
	merged := NewPathSketch()
	for _, w := range g.windows {
		merged.root.combineShared(w.root)
		merged.records += w.records
	}
	if live != nil {
		merged.root.combineShared(live.root)
		merged.records += live.records
	}
	return merged
}
