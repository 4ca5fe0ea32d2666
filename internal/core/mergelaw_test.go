package core

import (
	"reflect"
	"testing"

	"jxplain/internal/jsontype"
)

// Property tests for the PathSketch monoid: folding chunk sketches in
// any order or grouping must derive identical pass-① statistics. Merge
// consumes its argument, so each algebraic expression is built from fresh
// sketches.

func lawSketchChunks() [][]*jsontype.Type {
	return [][]*jsontype.Type{
		{
			jsontype.MustFromValue(map[string]any{"id": 1.0, "name": "x"}),
			jsontype.MustFromValue(map[string]any{"id": 2.0, "tags": []any{"a", "b"}}),
		},
		{
			jsontype.MustFromValue(map[string]any{"id": 3.0, "name": nil}),
			jsontype.MustFromValue(map[string]any{"k1": []any{1.0, 2.0}, "k2": []any{3.0}}),
		},
		{
			jsontype.MustFromValue(map[string]any{"k3": []any{4.0, 5.0, 6.0}}),
		},
	}
}

func sketchOf(chunk []*jsontype.Type) *PathSketch {
	s := NewPathSketch()
	for _, t := range chunk {
		s.Add(t)
	}
	return s
}

func requireSameSketch(t *testing.T, x, y *PathSketch) {
	t.Helper()
	if x.Records() != y.Records() {
		t.Fatalf("Records: %d vs %d", x.Records(), y.Records())
	}
	cfg := Default()
	if sx, sy := x.Stats(cfg), y.Stats(cfg); !reflect.DeepEqual(sx, sy) {
		t.Fatalf("Stats diverge:\n%v\nvs\n%v", sx, sy)
	}
}

func TestPathSketchMergeCommutativeProperty(t *testing.T) {
	chunks := lawSketchChunks()

	ab := sketchOf(chunks[0])
	ab.Merge(sketchOf(chunks[1])) // a ⊕ b

	ba := sketchOf(chunks[1])
	ba.Merge(sketchOf(chunks[0])) // b ⊕ a

	requireSameSketch(t, ab, ba)
}

func TestPathSketchMergeAssociativeProperty(t *testing.T) {
	chunks := lawSketchChunks()

	left := sketchOf(chunks[0])
	left.Merge(sketchOf(chunks[1]))
	left.Merge(sketchOf(chunks[2])) // (a ⊕ b) ⊕ c

	bc := sketchOf(chunks[1])
	bc.Merge(sketchOf(chunks[2]))
	right := sketchOf(chunks[0])
	right.Merge(bc) // a ⊕ (b ⊕ c)

	requireSameSketch(t, left, right)
}
