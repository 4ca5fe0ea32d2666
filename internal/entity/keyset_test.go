package entity

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func ks(ids ...int) KeySet { return NewKeySet(ids...) }

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.ID("alpha")
	b := d.ID("beta")
	if a == b {
		t.Error("distinct names must get distinct ids")
	}
	if d.ID("alpha") != a {
		t.Error("repeated name must get the same id")
	}
	if d.Name(a) != "alpha" || d.Name(b) != "beta" {
		t.Error("Name lookup broken")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestNewKeySetDedups(t *testing.T) {
	s := ks(5, 1, 3, 1, 5)
	if !s.Equal(ks(1, 3, 5)) {
		t.Errorf("got %v", s.IDs())
	}
	if s.Len() != 3 {
		t.Errorf("duplicates must collapse: Len = %d", s.Len())
	}
	if ks().Len() != 0 || !ks().Empty() {
		t.Error("empty set")
	}
}

func TestKeySetOfAndNames(t *testing.T) {
	d := NewDict()
	s := KeySetOf(d, "z", "a", "m", "a")
	if s.Len() != 3 {
		t.Fatalf("got %v", s.IDs())
	}
	var names []string
	s.Each(func(id int) { names = append(names, d.Name(id)) })
	if names[0] != "z" || names[1] != "a" || names[2] != "m" {
		t.Errorf("names in id order = %v, want first-use order", names)
	}
}

func TestSetOps(t *testing.T) {
	a := ks(1, 2, 3)
	b := ks(2, 3, 4)
	c := ks(5, 6)
	if !ks(2, 3).SubsetOf(a) || a.SubsetOf(ks(2, 3)) {
		t.Error("SubsetOf broken")
	}
	if !a.SubsetOf(a) {
		t.Error("a ⊆ a")
	}
	if !ks().SubsetOf(a) {
		t.Error("∅ ⊆ a")
	}
	if !ks().SubsetOf(ks()) {
		t.Error("∅ ⊆ ∅")
	}
	if !a.Intersects(b) || a.Intersects(c) {
		t.Error("Intersects broken")
	}
	if a.Intersects(ks()) || ks().Intersects(a) {
		t.Error("nothing intersects the empty set")
	}
	if !a.Union(b).Equal(ks(1, 2, 3, 4)) {
		t.Errorf("Union = %v", a.Union(b).IDs())
	}
	if !a.Minus(b).Equal(ks(1)) {
		t.Errorf("Minus = %v", a.Minus(b).IDs())
	}
	if a.IntersectCount(b) != 2 || a.IntersectCount(c) != 0 {
		t.Error("IntersectCount broken")
	}
	if !a.Contains(2) || a.Contains(9) || a.Contains(-1) {
		t.Error("Contains broken")
	}
}

// TestWideKeySets exercises ids beyond word 0 — the boundary bitsets make
// easy to get wrong.
func TestWideKeySets(t *testing.T) {
	wide := ks(0, 63, 64, 65, 127, 128, 500)
	if wide.Len() != 7 {
		t.Fatalf("Len = %d", wide.Len())
	}
	for _, id := range []int{0, 63, 64, 65, 127, 128, 500} {
		if !wide.Contains(id) {
			t.Errorf("missing id %d", id)
		}
	}
	for _, id := range []int{1, 62, 66, 129, 499, 501, 5000} {
		if wide.Contains(id) {
			t.Errorf("spurious id %d", id)
		}
	}
	got := wide.IDs()
	want := []int{0, 63, 64, 65, 127, 128, 500}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v", got)
		}
	}
	// Cross-word subset and minus.
	if !ks(64, 500).SubsetOf(wide) || ks(64, 501).SubsetOf(wide) {
		t.Error("cross-word SubsetOf broken")
	}
	if !wide.Minus(ks(500)).Equal(ks(0, 63, 64, 65, 127, 128)) {
		t.Error("Minus must trim trailing zero words")
	}
	// A narrow set is never a superset of a wider one.
	if wide.SubsetOf(ks(0, 63)) {
		t.Error("wide ⊄ narrow")
	}
	if !ks(0, 63).SubsetOf(wide) {
		t.Error("narrow ⊆ wide")
	}
}

// TestNormalization: operations whose result drops high ids must trim
// trailing zero words so Equal and Canon stay representation-independent.
func TestNormalization(t *testing.T) {
	a := ks(1, 200)
	dropped := a.Minus(ks(200))
	if !dropped.Equal(ks(1)) {
		t.Errorf("Minus result not normalized: %v words", len(dropped))
	}
	if dropped.Canon() != ks(1).Canon() {
		t.Error("Canon differs between equal sets")
	}
	empty := a.Minus(a)
	if !empty.Empty() || !empty.Equal(ks()) || empty.Canon() != ks().Canon() {
		t.Error("s − s must be the canonical empty set")
	}
}

func TestJaccard(t *testing.T) {
	if got := ks(1, 2).Jaccard(ks(2, 3)); got != 1.0/3 {
		t.Errorf("Jaccard = %v", got)
	}
	if ks().Jaccard(ks()) != 1 {
		t.Error("two empty sets have Jaccard 1")
	}
	if ks(1).Jaccard(ks()) != 0 {
		t.Error("disjoint Jaccard 0")
	}
	if ks(1, 200).Jaccard(ks(1, 200)) != 1 {
		t.Error("identical wide sets have Jaccard 1")
	}
}

func TestCanonDistinguishesSets(t *testing.T) {
	pairs := [][2]KeySet{
		{ks(1, 2), ks(12)},
		{ks(63), ks(64)},
		{ks(64, 1), ks(65)},
		{ks(), ks(0)},
		{ks(1000), ks(1, 1000)},
	}
	for _, p := range pairs {
		if p[0].Canon() == p[1].Canon() {
			t.Errorf("canon collision: %v vs %v", p[0].IDs(), p[1].IDs())
		}
	}
	if ks(3, 900).Canon() != ks(900, 3).Canon() {
		t.Error("canon must be order-insensitive (sets are sets)")
	}
}

func randomKeySet(r *rand.Rand, maxID int) KeySet {
	n := r.Intn(8)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = r.Intn(maxID)
	}
	return NewKeySet(ids...)
}

// refSet is the map-based reference model the bitset is checked against.
func refSet(s KeySet) map[int]bool {
	m := map[int]bool{}
	s.Each(func(id int) { m[id] = true })
	return m
}

// TestSetOpsProperties property-checks the bitset operations against the
// reference model, drawing ids across several words (maxID 200 spans word
// boundaries) so cross-word carries and trailing-word trims are hit.
func TestSetOpsProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		maxID := 8 + r.Intn(200) // sometimes single-word, sometimes several
		a := randomKeySet(r, maxID)
		b := randomKeySet(r, maxID)
		ra, rb := refSet(a), refSet(b)

		// Union/Minus/IntersectCount against the model.
		u := a.Union(b)
		ru := refSet(u)
		if len(ru) != len(ra)+len(rb)-a.IntersectCount(b) {
			return false
		}
		for id := range ra {
			if !u.Contains(id) {
				return false
			}
		}
		for id := range rb {
			if !u.Contains(id) {
				return false
			}
		}
		m := a.Minus(b)
		for id := range refSet(m) {
			if !ra[id] || rb[id] {
				return false
			}
		}
		if m.Len() != a.Len()-a.IntersectCount(b) {
			return false
		}

		// Symmetry: intersect and Jaccard are commutative.
		if a.IntersectCount(b) != b.IntersectCount(a) {
			return false
		}
		if a.Intersects(b) != b.Intersects(a) {
			return false
		}
		if a.Jaccard(b) != b.Jaccard(a) {
			return false
		}

		// Subset is antisymmetric up to equality, and agrees with Union.
		if a.SubsetOf(b) && b.SubsetOf(a) && !a.Equal(b) {
			return false
		}
		if a.SubsetOf(b) != a.Union(b).Equal(b) {
			return false
		}
		// a, b ⊆ a∪b; (a−b) ∩ b = ∅.
		if !a.SubsetOf(u) || !b.SubsetOf(u) {
			return false
		}
		if a.Minus(b).Intersects(b) {
			return false
		}

		// Canon round-trip: equal canon ⇔ equal sets.
		c := randomKeySet(r, maxID)
		return (a.Canon() == c.Canon()) == a.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestClone(t *testing.T) {
	a := ks(1, 64, 130)
	c := a.Clone()
	if !c.Equal(a) {
		t.Fatal("clone differs")
	}
	c[0] = 0 // mutate the copy
	if !a.Contains(1) {
		t.Error("mutating a clone must not affect the original")
	}
}
