package core

// Windowed sketch rings: the pass-① state of an unbounded stream, held as
// a fixed ring of per-window PathSketch epochs instead of one
// ever-growing trie. The live epoch accumulates; every WindowRecords
// records it is serialized in the sketch wire format and pushed into the
// ring, evicting the oldest window once the ring is full. Deriving
// statistics folds the retained windows, oldest first, through the sketch
// decoder into one fresh sketch (ReducePathSketches), so the decisions
// always reflect the last `width` windows of the stream — retired paths
// fall out of scope when their windows expire, and memory is bounded by
// the distinct structure of the window horizon, not of the whole stream.
//
// Serializing closed windows rather than keeping them as live tries buys
// three things at once: the ring's retained state is a compact flat
// buffer instead of pointer-heavy trie nodes, every window is already a
// snapshot any driver can persist or ship (the PR-6 wire format), and
// per-window drift diffs come free — a closed window decodes to exactly
// the statistics that window observed.

// sketchRing holds the serialized closed windows, oldest first.
type sketchRing struct {
	width   int      // closed windows retained (≥ 1)
	windows [][]byte // serialized epochs, oldest first
	closed  int      // lifetime count of closed windows
}

func newSketchRing(width int) *sketchRing {
	return &sketchRing{width: width}
}

// push retires a serialized epoch into the ring, evicting the oldest
// window beyond the width.
func (g *sketchRing) push(data []byte) {
	g.windows = append(g.windows, data)
	g.closed++
	if len(g.windows) > g.width {
		copy(g.windows, g.windows[1:])
		g.windows[len(g.windows)-1] = nil
		g.windows = g.windows[:len(g.windows)-1]
	}
}

// rollup merges the retained windows and the live epoch into one sketch.
// The closed windows fold in order through the decoder; the live epoch is
// folded in last through combineShared, treating it as immutable so the
// accumulator can keep appending to it afterwards.
func (g *sketchRing) rollup(live *PathSketch) (*PathSketch, error) {
	merged, err := ReducePathSketches(g.windows)
	if err != nil {
		return nil, err
	}
	if live != nil {
		merged.root.combineShared(live.root)
		merged.records += live.records
	}
	return merged, nil
}

// ReducePathSketches folds the serialized sketches, in order, into one
// fresh sketch through the merge-into decoder: each file's counters add
// into the running trie, and nodes are allocated only for structure no
// earlier file carried. Statistics derived from the result are identical
// to decoding each file and merging the sketches sequentially. A corrupt
// input aborts with a *SketchMergeError carrying the failing sketch's
// index.
func ReducePathSketches(files [][]byte) (*PathSketch, error) {
	s := NewPathSketch()
	for i, data := range files {
		if err := mergeSketchFile(data, flagTrie, nil, s); err != nil {
			return nil, &SketchMergeError{Index: i, Err: err}
		}
	}
	return s, nil
}
