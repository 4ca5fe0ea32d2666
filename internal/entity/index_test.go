package entity

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"jxplain/internal/dataset"
)

// randomBag generates sets with clustered structure (a few "families"
// plus noise) so Bimax iterations see real sub/overlap/disjoint mixes,
// including duplicates and occasional empty sets.
func randomBag(r *rand.Rand, n int) []KeySet {
	families := 1 + r.Intn(4)
	sets := make([]KeySet, n)
	for i := range sets {
		if r.Intn(20) == 0 {
			sets[i] = KeySet{} // empty set: subset of everything
			continue
		}
		base := r.Intn(families) * 10
		var ids []int
		for b := 0; b < 10; b++ {
			if r.Intn(2) == 0 {
				ids = append(ids, base+b)
			}
		}
		if r.Intn(4) == 0 {
			ids = append(ids, 100+r.Intn(3)) // shared keys across families
		}
		if r.Intn(6) == 0 {
			ids = append(ids, 64*(1+r.Intn(3))) // cross word boundaries
		}
		sets[i] = NewKeySet(ids...)
	}
	return sets
}

func TestIndexPostings(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		sets := randomBag(r, 1+r.Intn(80))
		ix := NewIndex(sets)
		// Every posting entry's set contains the key; every set's keys
		// reach their posting lists; empties are tracked separately.
		counts := map[int]int{}
		for k, pl := range ix.postings {
			for _, id := range pl {
				if !sets[id].Contains(k) {
					t.Fatalf("posting[%d] holds set %d which lacks key %d", k, id, k)
				}
				counts[int(id)]++
			}
		}
		nEmpty := 0
		for id, s := range sets {
			if s.Empty() {
				nEmpty++
				continue
			}
			if counts[id] != s.Len() {
				t.Fatalf("set %d appears in %d posting lists, has %d keys", id, counts[id], s.Len())
			}
		}
		if len(ix.empties) != nEmpty {
			t.Fatalf("empties = %d, want %d", len(ix.empties), nEmpty)
		}
	}
}

// TestIndexAddGainsMatchesIntersects pins AddGains with a non-nil dst,
// the Bimax round's one question to the index: the first-touch ids are
// exactly the live sets intersecting q, each listed once, and each one's
// gain is its intersection count with q; LiveEmpties lists exactly the
// live empty sets. Several queries run against one index while sets die
// monotonically between them, so the walks compact dead ids out of the
// posting lists they reuse.
func TestIndexAddGainsMatchesIntersects(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		sets := randomBag(r, 1+r.Intn(60))
		ix := NewIndex(sets)
		dead := make([]bool, len(sets))
		live := func(id int32) bool { return !dead[id] }
		gains := make([]int, len(sets))
		for query := 0; query < 4; query++ {
			for i := range dead {
				dead[i] = dead[i] || r.Intn(4) == 0
			}
			q := randomBag(r, 1)[0]
			got := ix.AddGains(q, live, 1, gains, []int32{})
			seen := map[int]bool{}
			for _, id := range got {
				if seen[int(id)] {
					t.Fatalf("candidate %d listed twice (q=%v)", id, q.IDs())
				}
				seen[int(id)] = true
			}
			var empties []int32
			for id, s := range sets {
				if dead[id] {
					if gains[id] != 0 {
						t.Fatalf("dead set %d gained %d (q=%v)", id, gains[id], q.IDs())
					}
					continue
				}
				if seen[id] != s.Intersects(q) {
					t.Fatalf("set %d listed %v, intersects %v (q=%v)", id, seen[id], s.Intersects(q), q.IDs())
				}
				if want := s.IntersectCount(q); gains[id] != want {
					t.Fatalf("gains[%d] = %d, want %d (q=%v)", id, gains[id], want, q.IDs())
				}
				if s.Empty() {
					empties = append(empties, int32(id))
				}
			}
			if got := ix.LiveEmpties(live, nil); !slices.Equal(got, empties) {
				t.Fatalf("live empties %v, want %v", got, empties)
			}
			for _, id := range got {
				gains[id] = 0
			}
		}
	}
}

// clustersEqual compares cluster slices structurally, including order.
func clustersEqual(a, b []Cluster) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Max.Equal(b[i].Max) || len(a[i].Members) != len(b[i].Members) || a[i].Weight != b[i].Weight {
			return false
		}
		for j := range a[i].Members {
			if a[i].Members[j] != b[i].Members[j] {
				return false
			}
		}
	}
	return true
}

// TestBimaxIndexedMatchesRef pins the tentpole invariant: the posting-
// index Bimax loop is a pure reimplementation — order array and emitted
// clusters are identical to the quadratic reference on arbitrary input.
func TestBimaxIndexedMatchesRef(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sets := randomBag(r, r.Intn(200))

		refOrder := sizeDescending(sets)
		var refClusters []Cluster
		bimaxSortRef(sets, refOrder, &refClusters, nil)

		ixOrder := sizeDescending(sets)
		var ixClusters []Cluster
		bimaxSortIndexed(sets, ixOrder, &ixClusters, nil)

		for i := range refOrder {
			if refOrder[i] != ixOrder[i] {
				return false
			}
		}
		return clustersEqual(refClusters, ixClusters)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBimaxIndexedMatchesRefOnWide pins the indexed loop to the reference
// at scale, which the small random inputs above do not reach. The wide
// datasets at 3,000 records dedup to 1,325–2,795 distinct key sets, so a
// round's window span holds many non-candidates between its candidates;
// wide-256 at DefaultN records drawn with seed 1000 is the entity bench's
// seed-1 input, 9,840 distinct key sets. In the stars input every round
// moves every remaining set of its seed's star to the front, so the
// window is packed against the end of its slot buffer again and again. Order, clusters and weights must all
// be identical.
func TestBimaxIndexedMatchesRefOnWide(t *testing.T) {
	type input struct {
		name string
		w    Weighted
	}
	var inputs []input
	for _, g := range dataset.WideRegistry() {
		w, _ := DedupKeySets(topLevelKeySets(g.Generate(3000, 1), NewDict()))
		inputs = append(inputs, input{g.Name, w})
	}
	if !testing.Short() {
		g := dataset.Wide(256)
		w, _ := DedupKeySets(topLevelKeySets(g.Generate(g.DefaultN, 1000), NewDict()))
		inputs = append(inputs, input{g.Name + " at DefaultN", w})
	}
	inputs = append(inputs, input{"stars", starSets(600)})
	for _, in := range inputs {
		w := in.w
		refOrder := sizeDescending(w.Sets)
		var refClusters []Cluster
		bimaxSortRef(w.Sets, refOrder, &refClusters, w.Weights)

		ixOrder := sizeDescending(w.Sets)
		var ixClusters []Cluster
		bimaxSortIndexed(w.Sets, ixOrder, &ixClusters, w.Weights)

		if !slices.Equal(refOrder, ixOrder) {
			t.Errorf("%s: indexed order diverges from the reference over %d distinct sets", in.name, len(w.Sets))
		}
		if !clustersEqual(refClusters, ixClusters) {
			t.Errorf("%s: indexed clusters diverge from the reference over %d distinct sets", in.name, len(w.Sets))
		}
	}
}

// starSets returns n weighted key sets forming two stars: set i > 0 holds
// hub key (i/4)%2 and 1 to 4 keys of its own, so sets of one star share
// only their hub, sets of different stars are disjoint, and the stars
// alternate in size order. Set 0, the largest, holds both hubs. No set is
// a subset of another, so every Bimax round finalizes only its seed: set
// 0's round moves every other set to the front, and from then on each
// round moves the rest of its seed's star to the front, which packs the
// other star's live sets behind them, again and again.
func starSets(n int) Weighted {
	w := Weighted{Sets: make([]KeySet, n), Weights: make([]int, n)}
	next := 2
	own := func(k int) []int {
		var ids []int
		for ; k > 0; k-- {
			ids = append(ids, next)
			next++
		}
		return ids
	}
	w.Sets[0], w.Weights[0] = NewKeySet(append([]int{0, 1}, own(5)...)...), 1
	for i := 1; i < n; i++ {
		w.Sets[i] = NewKeySet(append([]int{(i / 4) % 2}, own(1+i%4)...)...)
		w.Weights[i] = 1 + i%5
	}
	return w
}

// TestGreedyMergeIndexedMatchesRef pins the indexed cover search to the
// rescanning reference across randomized clusterings.
func TestGreedyMergeIndexedMatchesRef(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sets := randomBag(r, r.Intn(150))
		naive := BimaxNaive(sets)

		ref := GreedyMergeRef(naive)
		cs := newCoverState(naive)
		indexed := greedyMerge(naive, cs.findCover)
		return clustersEqual(ref, indexed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFindCoverIndexedMatchesRef drives the two cover searches directly
// with adversarial active masks and repeated calls against the same state
// (exercising posting compaction and scratch reuse).
func TestFindCoverIndexedMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		sets := randomBag(r, 2+r.Intn(60))
		naive := BimaxNaive(sets)
		if len(naive) == 0 {
			continue
		}
		work := make([]Cluster, len(naive))
		copy(work, naive)
		active := make([]bool, len(naive))
		for i := range active {
			active[i] = r.Intn(4) != 0
		}
		cs := newCoverState(naive)
		for q := 0; q < 5; q++ {
			target := work[r.Intn(len(work))].Max
			if r.Intn(3) == 0 {
				target = target.Union(work[r.Intn(len(work))].Max)
			}
			refCover := findCoverRef(work, active, target)
			ixCover := cs.findCover(work, active, target)
			if len(refCover) != len(ixCover) {
				t.Fatalf("cover lengths differ: ref %v indexed %v", refCover, ixCover)
			}
			for i := range refCover {
				if refCover[i] != ixCover[i] {
					t.Fatalf("covers differ: ref %v indexed %v", refCover, ixCover)
				}
			}
			// Deactivate the cover like GreedyMerge would (monotone).
			for _, ci := range refCover {
				active[ci] = false
			}
		}
	}
}

// BenchmarkBimaxNaive times one clustering call: 2,000 random sets, and
// the entity bench's seed-1 input, wide-256 at DefaultN records deduped to
// 9,840 distinct key sets.
func BenchmarkBimaxNaive(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	sets := randomBag(r, 2000)
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BimaxNaiveRef(sets)
		}
	})
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BimaxNaive(sets)
		}
	})
	g := dataset.Wide(256)
	w, _ := DedupKeySets(topLevelKeySets(g.Generate(g.DefaultN, 1000), NewDict()))
	b.Run("wide-256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BimaxNaiveWeighted(w.Sets, w.Weights)
		}
	})
}
