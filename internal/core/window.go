package core

import (
	"jxplain/internal/dist"
)

// Windowed sketch rings: the pass-① state of an unbounded stream, held as
// a fixed ring of per-window PathSketch epochs instead of one
// ever-growing trie. The live epoch accumulates; every WindowRecords
// records it is serialized in the sketch wire format and pushed into the
// ring, evicting the oldest window once the ring is full. Deriving
// statistics rolls the retained windows back up with the same balanced
// tree reduction the sharded reduce phase uses (reduce.go), so the
// decisions always reflect the last `width` windows of the stream —
// retired paths fall out of scope when their windows expire, and memory
// is bounded by the distinct structure of the window horizon, not of the
// whole stream.
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
// The closed windows reduce as a balanced tree over one worker per core;
// the live epoch is folded in last through combineShared, treating it as
// immutable so the accumulator can keep appending to it afterwards.
func (g *sketchRing) rollup(live *PathSketch) (*PathSketch, error) {
	merged, err := ReducePathSketches(g.windows, 0)
	if err != nil {
		return nil, err
	}
	if live != nil {
		merged.root.combineShared(live.root)
		merged.records += live.records
	}
	return merged, nil
}

// ReducePathSketches decodes the serialized sketches and merges them as a
// balanced binary tree over at most `workers` goroutines (≤ 0 means one
// per core) — the PathSketch-level counterpart of
// Accumulator.MergeSketches, sharing its adjacent-pair combine (see
// treeCombine in reduce.go). Statistics derived from the result are
// identical to folding the sketches sequentially. A corrupt input aborts
// with a *SketchMergeError carrying the failing sketch's index.
func ReducePathSketches(files [][]byte, workers int) (*PathSketch, error) {
	if workers <= 0 {
		workers = dist.DefaultWorkers()
	}
	if len(files) == 0 {
		return NewPathSketch(), nil
	}
	sketches := make([]*PathSketch, len(files))
	errs := make([]error, len(files))
	dist.ForEach(len(files), workers, func(i int) {
		s, err := UnmarshalPathSketch(files[i])
		if err != nil {
			errs[i] = &SketchMergeError{Index: i, Err: err}
			return
		}
		sketches[i] = s
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return treeCombine(sketches, workers, func(dst, src *PathSketch) {
		dst.Merge(src)
	}), nil
}
