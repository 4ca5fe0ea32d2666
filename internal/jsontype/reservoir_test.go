package jsontype

import (
	"fmt"
	"reflect"
	"testing"
)

// entriesOf snapshots the retained (canon, count) sequence in first-seen
// order.
func entriesOf(r *ReservoirBag) []string {
	var out []string
	r.Each(func(t *Type, n int) {
		out = append(out, fmt.Sprintf("%s×%d", t.Canon(), n))
	})
	return out
}

// multisetOf snapshots the retained (canon, count) pairs order-blind.
func multisetOf(r *ReservoirBag) map[string]int {
	out := map[string]int{}
	r.Each(func(t *Type, n int) { out[t.Canon()] += n })
	return out
}

func churnType(tb testing.TB, i int) *Type {
	tb.Helper()
	t, err := FromValue(map[string]any{fmt.Sprintf("k%03d", i): 1.0})
	if err != nil {
		tb.Fatalf("churnType: %v", err)
	}
	return t
}

func TestReservoirExactWhileUnderCapacity(t *testing.T) {
	exact := &Bag{}
	res := NewReservoirBag(64, 7)
	for i := 0; i < 32; i++ {
		ty := churnType(t, i%8)
		exact.AddN(ty, 1+i%3)
		res.AddN(ty, 1+i%3)
	}
	if res.Evictions() != 0 || res.Dropped() != 0 {
		t.Fatalf("no eviction expected: evictions=%d dropped=%d", res.Evictions(), res.Dropped())
	}
	if res.Len() != exact.Len() || res.Distinct() != exact.Distinct() {
		t.Fatalf("totals diverge: res (%d, %d) vs exact (%d, %d)",
			res.Len(), res.Distinct(), exact.Len(), exact.Distinct())
	}
	snap := res.Snapshot()
	for i, ty := range exact.Types() {
		if snap.Types()[i] != ty || snap.Count(i) != exact.Count(i) {
			t.Fatalf("entry %d diverges: %s×%d vs %s×%d", i,
				snap.Types()[i].Canon(), snap.Count(i), ty.Canon(), exact.Count(i))
		}
	}
}

func TestReservoirBoundsDistinctTypes(t *testing.T) {
	res := NewReservoirBag(16, 1)
	for i := 0; i < 5000; i++ {
		res.Add(churnType(t, i))
		if res.Distinct() > 16 {
			t.Fatalf("capacity exceeded at i=%d: distinct=%d", i, res.Distinct())
		}
	}
	if res.Seen() != 5000 {
		t.Fatalf("seen=%d, want 5000", res.Seen())
	}
	if got := int64(res.Len()) + res.Dropped(); got != res.Seen() {
		t.Fatalf("conservation violated: retained %d + dropped %d != seen %d",
			res.Len(), res.Dropped(), res.Seen())
	}
}

func TestReservoirWeightProtectsHeavyTypes(t *testing.T) {
	res := NewReservoirBag(8, 42)
	heavy := churnType(t, 9999)
	res.AddN(heavy, 100000)
	for i := 0; i < 2000; i++ {
		res.Add(churnType(t, i))
	}
	if got := res.Snapshot().CountOf(heavy); got != 100000 {
		t.Fatalf("heavy type lost or miscounted: count=%d", got)
	}
}

func TestReservoirDeterministicReplay(t *testing.T) {
	run := func() []string {
		res := NewReservoirBag(32, 3)
		for i := 0; i < 3000; i++ {
			res.AddN(churnType(t, i%700), 1+i%5)
		}
		return entriesOf(res)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n%v\nvs\n%v", a, b)
	}
}

// TestReservoirDrawPinned pins the reservoir's draw across builds: DESIGN
// §9 promises that replaying a stream reproduces the same reservoir, so
// the uniform behind each priority (FNV-1a over the canonical form, the
// seed XOR and the splitmix finalizer) must not change. The expected
// survivors were recorded from an earlier build that hashed Canon().
func TestReservoirDrawPinned(t *testing.T) {
	res := NewReservoirBag(16, 1)
	for i := 0; i < 5000; i++ {
		res.Add(churnType(t, i))
	}
	want := []string{
		"{k284:r}×1", "{k835:r}×1", "{k880:r}×1", "{k1013:r}×1",
		"{k1024:r}×1", "{k1097:r}×1", "{k1118:r}×1", "{k1279:r}×1",
		"{k1991:r}×1", "{k2405:r}×1", "{k2784:r}×1", "{k3333:r}×1",
		"{k3377:r}×1", "{k4464:r}×1", "{k4922:r}×1", "{k4983:r}×1",
	}
	if got := entriesOf(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("reservoir draw changed:\ngot  %v\nwant %v", got, want)
	}
}

func TestReservoirDecayAgesOutDeadTypes(t *testing.T) {
	res := NewReservoirBag(8, 5)
	dead := churnType(t, 1)
	live := churnType(t, 2)
	res.AddN(dead, 3)
	res.AddN(live, 1000)
	for i := 0; i < 3; i++ {
		res.Decay(0.5)
		res.AddN(live, 1000)
	}
	if res.Snapshot().CountOf(dead) != 0 {
		t.Fatalf("dead type still resident after decay: %v", entriesOf(res))
	}
	if res.Snapshot().CountOf(live) == 0 {
		t.Fatal("live type decayed away")
	}
	if res.Distinct() != 1 {
		t.Fatalf("distinct=%d, want 1", res.Distinct())
	}
}

func TestReservoirDecayFreesCapacity(t *testing.T) {
	res := NewReservoirBag(4, 5)
	for i := 0; i < 4; i++ {
		res.Add(churnType(t, i))
	}
	// Freshly-seen singletons survive the first decay at count 1; a full
	// idle interval ages them out.
	if aged := res.Decay(0.5); aged != 0 {
		t.Fatalf("aged=%d, want 0 (touched entries floor at 1)", aged)
	}
	if res.Distinct() != 4 {
		t.Fatalf("distinct=%d, want 4", res.Distinct())
	}
	if aged := res.Decay(0.5); aged != 4 {
		t.Fatalf("aged=%d, want 4 (idle singletons floor to zero)", aged)
	}
	fresh := churnType(t, 100)
	res.AddN(fresh, 2)
	if res.Snapshot().CountOf(fresh) != 2 {
		t.Fatal("freed capacity not reusable")
	}
}

func TestReservoirMergeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on capacity mismatch")
		}
	}()
	NewReservoirBag(4, 1).Merge(NewReservoirBag(8, 1))
}

// ---- merge-law property tests ----
//
// Like Bag.Merge, the reservoir merge is commutative on the retained
// (type, count) multiset — selection compares combined weights and
// seed-deterministic priorities, never arrival sides — while the
// presentation order follows the receiver's first-seen order. The
// associativity test additionally pins full equality (order included) in
// the no-eviction regime, where a ReservoirBag must behave as an exact
// Bag; under eviction, regrouping may lose different occurrences of
// types that are ultimately evicted anyway, which is the documented
// approximation (see DESIGN.md "Unbounded streams").

func lawReservoirChunks(tb testing.TB) [][]*Type {
	var chunks [][]*Type
	for c := 0; c < 3; c++ {
		var chunk []*Type
		for i := 0; i < 12; i++ {
			chunk = append(chunk, churnType(tb, c*7+i))
		}
		chunks = append(chunks, chunk)
	}
	return chunks
}

func reservoirOf(chunk []*Type, capacity int) *ReservoirBag {
	r := NewReservoirBag(capacity, 11)
	for i, t := range chunk {
		r.AddN(t, 1+i%4)
	}
	return r
}

func TestReservoirBagMergeCommutativeProperty(t *testing.T) {
	chunks := lawReservoirChunks(t)
	for _, capacity := range []int{8, 64} { // eviction and no-eviction regimes
		ab := reservoirOf(chunks[0], capacity)
		ab.Merge(reservoirOf(chunks[1], capacity))

		ba := reservoirOf(chunks[1], capacity)
		ba.Merge(reservoirOf(chunks[0], capacity))

		if ma, mb := multisetOf(ab), multisetOf(ba); !reflect.DeepEqual(ma, mb) {
			t.Fatalf("capacity %d: retained multisets diverge:\n%v\nvs\n%v", capacity, ma, mb)
		}
		if ab.Seen() != ba.Seen() || ab.Len() != ba.Len() {
			t.Fatalf("capacity %d: totals diverge", capacity)
		}
	}
}

func TestReservoirBagMergeAssociativeProperty(t *testing.T) {
	chunks := lawReservoirChunks(t)
	const capacity = 64 // ≥ total distinct: exact-Bag regime, order included

	left := reservoirOf(chunks[0], capacity)
	left.Merge(reservoirOf(chunks[1], capacity))
	left.Merge(reservoirOf(chunks[2], capacity)) // (a ⊕ b) ⊕ c

	bc := reservoirOf(chunks[1], capacity)
	bc.Merge(reservoirOf(chunks[2], capacity))
	right := reservoirOf(chunks[0], capacity)
	right.Merge(bc) // a ⊕ (b ⊕ c)

	if ea, eb := entriesOf(left), entriesOf(right); !reflect.DeepEqual(ea, eb) {
		t.Fatalf("groupings diverge:\n%v\nvs\n%v", ea, eb)
	}
}
