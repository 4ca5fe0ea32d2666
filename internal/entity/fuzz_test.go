package entity

import (
	"slices"
	"sort"
	"testing"
)

// FuzzKeySet model-checks the bitset against a map-of-ids reference: the
// fuzz input is a little program of (op, id) byte pairs mutating two sets,
// and after every step each KeySet observer (Len, Contains, IDs, SubsetOf,
// Intersects, IntersectCount, Equal, Canon, Jaccard) must agree with the
// same question asked of the model, and the normalization invariant (no
// trailing zero words) must survive via a NewKeySet round-trip.
func FuzzKeySet(f *testing.F) {
	f.Add([]byte{0, 3, 1, 66, 2, 0, 3, 0})
	f.Add([]byte{0, 0, 0, 63, 0, 64, 0, 255, 1, 64, 3, 0, 2, 0})
	f.Add([]byte{1, 200, 3, 1, 2, 2})
	f.Fuzz(func(t *testing.T, program []byte) {
		sets := [2]KeySet{NewKeySet(), NewKeySet()}
		models := [2]map[int]bool{{}, {}}
		for i := 0; i+1 < len(program); i += 2 {
			op, id := program[i]%4, int(program[i+1])
			switch op {
			case 0: // rebuild set 0 with id added, exercising NewKeySet
				models[0][id] = true
				sets[0] = NewKeySet(modelIDs(models[0])...)
			case 1: // add id to set 1 through a singleton union
				models[1][id] = true
				sets[1] = sets[1].Union(NewKeySet(id))
			case 2: // set 0 ∪= set 1
				for k := range models[1] {
					models[0][k] = true
				}
				sets[0] = sets[0].Union(sets[1])
			case 3: // set 0 −= set 1
				for k := range models[1] {
					delete(models[0], k)
				}
				sets[0] = sets[0].Minus(sets[1])
			}
			checkAgainstModel(t, sets, models)
		}
	})
}

func modelIDs(m map[int]bool) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func checkAgainstModel(t *testing.T, sets [2]KeySet, models [2]map[int]bool) {
	t.Helper()
	for k := 0; k < 2; k++ {
		s, m := sets[k], models[k]
		if s.Len() != len(m) {
			t.Fatalf("set %d: Len %d, model %d", k, s.Len(), len(m))
		}
		want := modelIDs(m)
		got := s.IDs()
		if len(got) != len(want) {
			t.Fatalf("set %d: IDs %v, model %v", k, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("set %d: IDs %v, model %v", k, got, want)
			}
			if !s.Contains(want[i]) {
				t.Fatalf("set %d: Contains(%d) false, model true", k, want[i])
			}
		}
		if !NewKeySet(got...).Equal(s) {
			t.Fatalf("set %d not normalized: round-trip of %v diverges", k, got)
		}
		if s.Empty() != (len(m) == 0) {
			t.Fatalf("set %d: Empty %v, model size %d", k, s.Empty(), len(m))
		}
	}

	a, b := sets[0], sets[1]
	ma, mb := models[0], models[1]
	inter, union := 0, len(mb)
	subset, equal := true, len(ma) == len(mb)
	for id := range ma {
		if mb[id] {
			inter++
		} else {
			union++
			subset = false
		}
	}
	equal = equal && subset
	if got := a.SubsetOf(b); got != subset {
		t.Fatalf("SubsetOf %v, model %v (%v ⊆ %v)", got, subset, a.IDs(), b.IDs())
	}
	if got := a.Intersects(b); got != (inter > 0) {
		t.Fatalf("Intersects %v, model %v", got, inter > 0)
	}
	if got := a.IntersectCount(b); got != inter {
		t.Fatalf("IntersectCount %d, model %d", got, inter)
	}
	if got := a.Equal(b); got != equal {
		t.Fatalf("Equal %v, model %v", got, equal)
	}
	if got := a.Canon() == b.Canon(); got != equal {
		t.Fatalf("Canon equality %v, Equal %v", got, equal)
	}
	wantJ := 1.0
	if union > 0 {
		wantJ = float64(inter) / float64(union)
	}
	if got := a.Jaccard(b); got != wantJ {
		t.Fatalf("Jaccard %v, model %v", got, wantJ)
	}
}

// FuzzWeightedVsReplicated model-checks the weighted-dedup contract on
// arbitrary key-set bags: the fuzz input is consumed as (setShape, repeat)
// byte pairs — setShape seeds a small key set, repeat its multiplicity —
// and entity discovery over the replicated bag must render byte-identically
// to discovery over its DedupKeySets form, with and without GreedyMerge.
func FuzzWeightedVsReplicated(f *testing.F) {
	f.Add([]byte{3, 2, 7, 1, 3, 4, 0, 2})
	f.Add([]byte{255, 9, 1, 1, 255, 1, 128, 3, 64, 2})
	f.Add([]byte{5, 40, 6, 40, 7, 40}) // crosses indexMinSets
	f.Fuzz(func(t *testing.T, program []byte) {
		var sets []KeySet
		for i := 0; i+1 < len(program) && len(sets) < 300; i += 2 {
			shape, repeat := program[i], int(program[i+1])%8+1
			var ids []int
			for b := 0; b < 8; b++ {
				if shape&(1<<b) != 0 {
					// Spread bits across word boundaries occasionally.
					ids = append(ids, b*(1+int(shape)%17))
				}
			}
			s := NewKeySet(ids...)
			for r := 0; r < repeat; r++ {
				sets = append(sets, s)
			}
		}
		for _, merge := range []bool{false, true} {
			w, toDistinct := DedupKeySets(sets)
			replicated := BimaxNaive(sets)
			if merge {
				replicated = GreedyMerge(replicated)
			}
			weighted := DiscoverEntities(w, merge)
			repl := renderReplicated(replicated, toDistinct)
			wtd := renderWeighted(weighted)
			if repl != wtd {
				t.Fatalf("merge=%v: weighted diverges\nreplicated:\n%s\nweighted:\n%s", merge, repl, wtd)
			}
		}
	})
}

// FuzzBimaxMatchesRef holds the indexed Bimax loop to the quadratic
// reference on arbitrary bags of key sets. The first byte's low bit says
// whether the sets carry weights; the rest is consumed as (setShape,
// repeat) byte pairs as in FuzzWeightedVsReplicated — setShape seeds a
// small key set (empty for 0, ids spread across word boundaries), repeat
// its number of copies and its weight — up to 300 sets. Order, clusters
// and cluster weights must be identical.
func FuzzBimaxMatchesRef(f *testing.F) {
	f.Add([]byte{0, 3, 2, 7, 1, 3, 4, 0, 2})
	f.Add([]byte{1, 255, 9, 1, 1, 255, 1, 128, 3, 64, 2, 0, 1})
	// A star: six sets sharing key 0 and otherwise disjoint, so each
	// round moves every remaining set to the front.
	f.Add([]byte{1, 129, 0, 3, 8, 65, 0, 5, 16, 33, 0, 9, 0})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) == 0 {
			return
		}
		var sets []KeySet
		var weights []int
		for i := 1; i+1 < len(program) && len(sets) < 300; i += 2 {
			shape, repeat := program[i], program[i+1]
			var ids []int
			for b := 0; b < 8; b++ {
				if shape&(1<<b) != 0 {
					ids = append(ids, b*(1+int(shape)%17))
				}
			}
			s := NewKeySet(ids...)
			for r := 0; r < int(repeat)%8+1 && len(sets) < 300; r++ {
				sets = append(sets, s)
				weights = append(weights, 1+int(repeat)/8)
			}
		}
		if program[0]&1 == 0 {
			weights = nil
		}
		refOrder := sizeDescending(sets)
		var refClusters []Cluster
		bimaxSortRef(sets, refOrder, &refClusters, weights)

		ixOrder := sizeDescending(sets)
		var ixClusters []Cluster
		bimaxSortIndexed(sets, ixOrder, &ixClusters, weights)

		if !slices.Equal(refOrder, ixOrder) {
			t.Fatalf("order %v, reference %v", ixOrder, refOrder)
		}
		if !clustersEqual(refClusters, ixClusters) {
			t.Fatalf("clusters %v, reference %v", ixClusters, refClusters)
		}
	})
}
