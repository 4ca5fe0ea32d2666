package jsontype

import "testing"

// Property tests for the monoid laws behind the mergeable-sketch pipeline:
// Bag.Merge and SimilarityAccumulator.Combine must be commutative and
// associative so chunked / parallel folds reach the same state regardless
// of fold shape.

func lawTypes() []*Type {
	return []*Type{
		MustFromValue(map[string]any{"id": 1.0, "name": "x"}),
		MustFromValue(map[string]any{"id": 2.0, "tags": []any{"a", "b"}}),
		MustFromValue([]any{1.0, "s", nil}),
		MustFromValue("plain"),
		MustFromValue(map[string]any{"id": nil}),
	}
}

func lawBags() (a, b, c *Bag) {
	ts := lawTypes()
	a = NewBag(ts[0], ts[1], ts[0])
	b = NewBag(ts[1], ts[2], ts[2], ts[3])
	c = NewBag(ts[4], ts[0])
	return
}

// requireSameMultiset asserts x and y contain the same types with the same
// multiplicities (insertion order aside).
func requireSameMultiset(t *testing.T, x, y *Bag) {
	t.Helper()
	if x.Len() != y.Len() || x.Distinct() != y.Distinct() {
		t.Fatalf("multiset mismatch: len %d vs %d, distinct %d vs %d",
			x.Len(), y.Len(), x.Distinct(), y.Distinct())
	}
	for i, ty := range x.Types() {
		if got, want := y.CountOf(ty), x.Count(i); got != want {
			t.Fatalf("multiplicity of %s: %d vs %d", ty, got, want)
		}
	}
}

// requireSameBag asserts x and y agree including insertion order.
func requireSameBag(t *testing.T, x, y *Bag) {
	t.Helper()
	requireSameMultiset(t, x, y)
	for i, ty := range x.Types() {
		if y.Types()[i] != ty {
			t.Fatalf("insertion order diverges at %d: %s vs %s", i, y.Types()[i], ty)
		}
	}
}

func TestBagMergeCommutativeProperty(t *testing.T) {
	a1, b1, _ := lawBags()
	a2, b2, _ := lawBags()
	a1.Merge(b1) // a ⊕ b
	b2.Merge(a2) // b ⊕ a
	requireSameMultiset(t, a1, b2)
}

func TestBagMergeAssociativeProperty(t *testing.T) {
	a1, b1, c1 := lawBags()
	a1.Merge(b1)
	a1.Merge(c1) // (a ⊕ b) ⊕ c

	a2, b2, c2 := lawBags()
	b2.Merge(c2)
	a2.Merge(b2) // a ⊕ (b ⊕ c)

	requireSameBag(t, a1, a2)
}

func lawAccumulators(ts []*Type) []*SimilarityAccumulator {
	accs := make([]*SimilarityAccumulator, 0, len(ts))
	for _, ty := range ts {
		acc := &SimilarityAccumulator{}
		acc.Add(ty)
		accs = append(accs, acc)
	}
	return accs
}

// requireSameAccumulator compares observable state; interning makes Max
// comparison a pointer check.
func requireSameAccumulator(t *testing.T, x, y *SimilarityAccumulator) {
	t.Helper()
	if x.Similar() != y.Similar() {
		t.Fatalf("Similar: %v vs %v", x.Similar(), y.Similar())
	}
	if x.Max() != y.Max() {
		t.Fatalf("Max: %s vs %s", x.Max(), y.Max())
	}
}

func TestSimilarityAccumulatorCombineCommutativeProperty(t *testing.T) {
	// Similar trio (objects with overlapping keys and a null wildcard) and a
	// dissimilar pair (object vs string): the laws must hold on both sides
	// of the latch.
	similar := []*Type{
		MustFromValue(map[string]any{"a": 1.0}),
		MustFromValue(map[string]any{"b": "s"}),
		MustFromValue(map[string]any{"a": nil, "c": true}),
	}
	dissimilar := []*Type{
		MustFromValue(map[string]any{"a": 1.0}),
		MustFromValue("plain"),
	}
	for _, ts := range [][]*Type{similar, dissimilar} {
		x1 := lawAccumulators(ts)
		x2 := lawAccumulators(ts)
		x1[0].Combine(x1[1])
		x2[1].Combine(x2[0])
		requireSameAccumulator(t, x1[0], x2[1])
	}
}

func TestSimilarityAccumulatorCombineAssociativeProperty(t *testing.T) {
	ts := []*Type{
		MustFromValue(map[string]any{"a": 1.0}),
		MustFromValue(map[string]any{"b": "s"}),
		MustFromValue(map[string]any{"a": nil, "c": true}),
	}
	x := lawAccumulators(ts)
	x[0].Combine(x[1])
	x[0].Combine(x[2]) // (x ⊕ y) ⊕ z

	y := lawAccumulators(ts)
	y[1].Combine(y[2])
	y[0].Combine(y[1]) // x ⊕ (y ⊕ z)

	requireSameAccumulator(t, x[0], y[0])
}
