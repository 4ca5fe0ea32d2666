package jsontype

import (
	"math/rand"
	"slices"
	"testing"
)

func TestBagAddAndCounts(t *testing.T) {
	b := NewBag(Number, Number, String)
	if b.Len() != 3 {
		t.Errorf("Len = %d, want 3", b.Len())
	}
	if b.Distinct() != 2 {
		t.Errorf("Distinct = %d, want 2", b.Distinct())
	}
	if b.CountOf(Number) != 2 || b.CountOf(String) != 1 || b.CountOf(Bool) != 0 {
		t.Error("CountOf broken")
	}
	b.AddN(Bool, 5)
	if b.Len() != 8 || b.CountOf(Bool) != 5 {
		t.Error("AddN broken")
	}
}

func TestBagAddNPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddN(t, 0) should panic")
		}
	}()
	(&Bag{}).AddN(Number, 0)
}

func TestBagDeduplicatesStructurally(t *testing.T) {
	b := &Bag{}
	b.Add(obj("a", Number, "b", String))
	b.Add(obj("b", String, "a", Number))
	if b.Distinct() != 1 || b.Len() != 2 {
		t.Errorf("structural dedup failed: distinct=%d len=%d", b.Distinct(), b.Len())
	}
}

func TestBagInsertionOrderPreserved(t *testing.T) {
	b := NewBag(String, Number, Bool, Number)
	types := b.Types()
	if types[0] != String || types[1] != Number || types[2] != Bool {
		t.Errorf("insertion order not preserved: %v", types)
	}
	if b.Count(1) != 2 {
		t.Errorf("Count(1) = %d, want 2", b.Count(1))
	}
}

func TestBagAddBagAndEach(t *testing.T) {
	a := NewBag(Number, Number)
	c := NewBag(Number, String)
	a.AddBag(c)
	if a.Len() != 4 || a.CountOf(Number) != 3 || a.CountOf(String) != 1 {
		t.Error("AddBag broken")
	}
	total := 0
	a.Each(func(_ *Type, n int) { total += n })
	if total != 4 {
		t.Errorf("Each total = %d, want 4", total)
	}
}

func TestSplitKinds(t *testing.T) {
	b := NewBag(Number, Null, arr(Number), obj("a", String), arr(String), Bool)
	prims, arrays, objects := b.SplitKinds()
	if prims.Len() != 3 || arrays.Len() != 2 || objects.Len() != 1 {
		t.Errorf("SplitKinds: %d/%d/%d, want 3/2/1", prims.Len(), arrays.Len(), objects.Len())
	}
}

func TestElements(t *testing.T) {
	b := &Bag{}
	b.Add(arr(Number, String))
	b.AddN(arr(Number), 2)
	el := b.Elements()
	if el.Len() != 4 || el.CountOf(Number) != 3 || el.CountOf(String) != 1 {
		t.Errorf("Elements: len=%d num=%d str=%d", el.Len(), el.CountOf(Number), el.CountOf(String))
	}
}

func TestFieldValues(t *testing.T) {
	b := &Bag{}
	b.Add(obj("a", Number, "b", String))
	b.AddN(obj("c", Number), 3)
	fv := b.FieldValues()
	if fv.Len() != 5 || fv.CountOf(Number) != 4 || fv.CountOf(String) != 1 {
		t.Error("FieldValues broken")
	}
}

func TestGroupByKey(t *testing.T) {
	b := &Bag{}
	b.AddN(obj("a", Number, "b", String), 2)
	b.Add(obj("a", Null, "c", Bool))
	keys, groups, present := b.GroupByKey()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("keys = %v", keys)
	}
	if present[0] != 3 || present[1] != 2 || present[2] != 1 {
		t.Errorf("present = %v", present)
	}
	if groups[0].CountOf(Number) != 2 || groups[0].CountOf(Null) != 1 {
		t.Error("group for key a wrong")
	}
}

func TestGroupByIndex(t *testing.T) {
	b := &Bag{}
	b.AddN(arr(Number, Number), 2)
	b.Add(arr(String, Number, Bool))
	groups, present := b.GroupByIndex()
	if len(groups) != 3 {
		t.Fatalf("got %d positions, want 3", len(groups))
	}
	if present[0] != 3 || present[1] != 3 || present[2] != 1 {
		t.Errorf("present = %v", present)
	}
	if groups[0].CountOf(Number) != 2 || groups[0].CountOf(String) != 1 {
		t.Error("group 0 wrong")
	}
	if groups[2].CountOf(Bool) != 1 {
		t.Error("group 2 wrong")
	}
}

func TestGroupByIndexEmpty(t *testing.T) {
	b := NewBag(arr())
	groups, present := b.GroupByIndex()
	if len(groups) != 0 || len(present) != 0 {
		t.Error("empty arrays should produce no positions")
	}
}

// TestSubBagMatchesAddN is a property test of the sub-bag paths: a bag
// started from a SplitKinds part or by AddDistinct, and then driven by a
// random sequence of AddN, Merge, CountOf and Each, must match a bag built
// by AddN alone — types and their order, counts, Len, Distinct and
// CountOf of every type. AddN of a type the sub-bag already holds must
// raise its count, not append a second entry.
func TestSubBagMatchesAddN(t *testing.T) {
	pool := []*Type{Number, String, Bool, Null,
		arr(), arr(Number), arr(String, Number),
		obj("a", Number), obj("a", String), obj("a", Number, "b", Bool), obj("c", arr(Null))}
	r := rand.New(rand.NewSource(7))
	randomBag := func(max int) *Bag {
		b := &Bag{}
		for k := r.Intn(max); k > 0; k-- {
			b.AddN(pool[r.Intn(len(pool))], 1+r.Intn(5))
		}
		return b
	}
	for trial := 0; trial < 500; trial++ {
		parent := randomBag(20)
		var sub *Bag
		model := &Bag{}
		if trial%2 == 0 {
			parts := make([]*Bag, 3)
			parts[0], parts[1], parts[2] = parent.SplitKinds()
			sub = parts[r.Intn(3)]
			sub.Each(func(t *Type, n int) { model.AddN(t, n) })
		} else {
			sub = &Bag{}
			for i, ty := range parent.Types() {
				if r.Intn(2) == 0 {
					sub.AddDistinct(ty, parent.Count(i))
					model.AddN(ty, parent.Count(i))
				}
			}
		}
		checkBagsMatch(t, trial, "start", sub, model, pool)
		for op := 0; op < 8; op++ {
			switch r.Intn(4) {
			case 0:
				ty := pool[r.Intn(len(pool))]
				if sub.Distinct() > 0 && r.Intn(2) == 0 {
					ty = sub.Types()[r.Intn(sub.Distinct())]
				}
				held, distinct, count := sub.CountOf(ty) > 0, sub.Distinct(), sub.CountOf(ty)
				n := 1 + r.Intn(5)
				sub.AddN(ty, n)
				model.AddN(ty, n)
				if held && (sub.Distinct() != distinct || sub.CountOf(ty) != count+n) {
					t.Fatalf("trial %d: AddN of a held type: distinct %d → %d, count %d → %d",
						trial, distinct, sub.Distinct(), count, sub.CountOf(ty))
				}
			case 1:
				other := randomBag(6)
				sub.Merge(other)
				model.Merge(other)
			case 2:
				ty := pool[r.Intn(len(pool))]
				if got, want := sub.CountOf(ty), model.CountOf(ty); got != want {
					t.Fatalf("trial %d: CountOf %d, want %d", trial, got, want)
				}
			case 3:
				var got, want []int
				sub.Each(func(ty *Type, n int) { got = append(got, int(ty.ID()), n) })
				model.Each(func(ty *Type, n int) { want = append(want, int(ty.ID()), n) })
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d: Each %v, want %v", trial, got, want)
				}
			}
			checkBagsMatch(t, trial, "after an op", sub, model, pool)
		}
	}
}

func checkBagsMatch(t *testing.T, trial int, when string, got, want *Bag, pool []*Type) {
	t.Helper()
	if got.Len() != want.Len() || got.Distinct() != want.Distinct() {
		t.Fatalf("trial %d, %s: Len %d Distinct %d, want %d and %d",
			trial, when, got.Len(), got.Distinct(), want.Len(), want.Distinct())
	}
	for i, ty := range want.Types() {
		if got.Types()[i].ID() != ty.ID() || got.Count(i) != want.Count(i) {
			t.Fatalf("trial %d, %s: entry %d is %v ×%d, want %v ×%d",
				trial, when, i, got.Types()[i], got.Count(i), ty, want.Count(i))
		}
	}
	for _, ty := range pool {
		if got.CountOf(ty) != want.CountOf(ty) {
			t.Fatalf("trial %d, %s: CountOf(%v) %d, want %d", trial, when, ty, got.CountOf(ty), want.CountOf(ty))
		}
	}
}
