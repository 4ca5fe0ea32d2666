package entity

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"jxplain/internal/dataset"
)

// renderReplicated canonicalizes a clustering of replicated (one per
// record) key sets: per cluster, the Max, the record count, and the sorted
// distinct-set ids its members map to.
func renderReplicated(clusters []Cluster, toDistinct []int) string {
	var b strings.Builder
	for _, c := range clusters {
		ids := map[int]bool{}
		for _, m := range c.Members {
			ids[toDistinct[m]] = true
		}
		fmt.Fprintf(&b, "%x w=%d m=%v\n", string(c.Max.Canon()), len(c.Members), sortedKeys(ids))
	}
	return b.String()
}

// renderWeighted canonicalizes a clustering of deduplicated key sets in
// the same shape as renderReplicated.
func renderWeighted(clusters []Cluster) string {
	var b strings.Builder
	for _, c := range clusters {
		members := append([]int(nil), c.Members...)
		sort.Ints(members)
		fmt.Fprintf(&b, "%x w=%d m=%v\n", string(c.Max.Canon()), c.Weight, members)
	}
	return b.String()
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// checkWeightedEquivalence runs entity discovery over the replicated sets
// and over their weighted dedup and requires byte-identical canonical
// renderings — same clusters in the same order, with weights standing in
// for member multiplicity.
func checkWeightedEquivalence(t *testing.T, label string, sets []KeySet, merge bool) {
	t.Helper()
	w, toDistinct := DedupKeySets(sets)
	if got := w.Records(); got != len(sets) {
		t.Fatalf("%s: Records() = %d, want %d", label, got, len(sets))
	}

	replicated := BimaxNaive(sets)
	if merge {
		replicated = GreedyMerge(replicated)
	}
	weighted := DiscoverEntities(w, merge)

	repl := renderReplicated(replicated, toDistinct)
	wtd := renderWeighted(weighted)
	if repl != wtd {
		t.Fatalf("%s: weighted discovery diverges from replicated\nreplicated:\n%s\nweighted:\n%s", label, repl, wtd)
	}
}

// topLevelKeySets extracts each map-shaped record's top-level key set,
// interning names in sorted order for determinism.
func topLevelKeySets(records []dataset.Record, d *Dict) []KeySet {
	var sets []KeySet
	for _, rec := range records {
		obj, ok := rec.Value.(map[string]any)
		if !ok {
			continue
		}
		names := make([]string, 0, len(obj))
		for k := range obj {
			names = append(names, k)
		}
		sort.Strings(names)
		sets = append(sets, KeySetOf(d, names...))
	}
	return sets
}

// sameMembership is clustersEqual without the weights: an unweighted
// reference run's Weight counts member sets, not records.
func sameMembership(a, b []Cluster) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Max.Equal(b[i].Max) || !slices.Equal(a[i].Members, b[i].Members) {
			return false
		}
	}
	return true
}

// TestWeightedMatchesReplicatedOnDatasets pins the weighted-dedup contract
// on every registry and wide dataset: entity discovery over distinct
// (set, weight) pairs is byte-equal to discovery over one key set per
// record, with and without GreedyMerge. The merged clustering also
// matches the quadratic reference over the distinct sets, and its weights
// sum to the record count. At 300 records every wide dataset dedups to
// well over indexMinSets distinct sets, so the posting-index path runs.
func TestWeightedMatchesReplicatedOnDatasets(t *testing.T) {
	for _, g := range append(dataset.Registry(), dataset.WideRegistry()...) {
		records := g.Generate(300, 1)
		d := NewDict()
		sets := topLevelKeySets(records, d)
		if len(sets) == 0 {
			t.Fatalf("%s: no map-shaped records", g.Name)
		}
		for _, merge := range []bool{false, true} {
			checkWeightedEquivalence(t, fmt.Sprintf("%s merge=%v", g.Name, merge), sets, merge)
		}

		w, _ := DedupKeySets(sets)
		got := DiscoverEntities(w, true)
		if !sameMembership(got, GreedyMergeRef(BimaxNaiveRef(w.Sets))) {
			t.Errorf("%s: indexed clustering diverges from the quadratic reference over %d distinct sets", g.Name, len(w.Sets))
		}
		total := 0
		for _, c := range got {
			total += c.Weight
		}
		if total != len(sets) {
			t.Errorf("%s: cluster weights sum to %d, want %d records", g.Name, total, len(sets))
		}
	}
}

// TestWeightedMatchesReplicatedRandom crosses the indexMinSets threshold
// with randomized bags so both the reference and indexed clustering paths
// are exercised under dedup.
func TestWeightedMatchesReplicatedRandom(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		sets := randomBag(r, r.Intn(250))
		for _, merge := range []bool{false, true} {
			checkWeightedEquivalence(t, fmt.Sprintf("trial %d merge=%v", trial, merge), sets, merge)
		}
	}
}

func TestDedupKeySets(t *testing.T) {
	a, b, c := ks(1), ks(2, 3), ks(1)
	w, toDistinct := DedupKeySets([]KeySet{a, b, c, b, KeySet{}, a})
	if len(w.Sets) != 3 {
		t.Fatalf("distinct = %d, want 3", len(w.Sets))
	}
	// First-appearance order: {1}, {2,3}, {}.
	if !w.Sets[0].Equal(a) || !w.Sets[1].Equal(b) || !w.Sets[2].Empty() {
		t.Fatalf("sets = %v", w.Sets)
	}
	wantW := []int{3, 2, 1}
	for i, want := range wantW {
		if w.Weights[i] != want {
			t.Fatalf("weights = %v, want %v", w.Weights, wantW)
		}
	}
	wantMap := []int{0, 1, 0, 1, 2, 0}
	for i, want := range wantMap {
		if toDistinct[i] != want {
			t.Fatalf("toDistinct = %v, want %v", toDistinct, wantMap)
		}
	}
	if w.Records() != 6 {
		t.Fatalf("Records() = %d", w.Records())
	}
}

func TestFeatureSetWeighted(t *testing.T) {
	fs := NewFeatureSet(Sparse)
	fs.AddNamesN([]string{"a", "b"}, 5)
	fs.AddNamesN([]string{"a"}, 2)
	fs.AddNames([]string{"a", "b"})
	w := fs.Weighted()
	if len(w.Sets) != 2 || w.Weights[0] != 6 || w.Weights[1] != 2 {
		t.Fatalf("weighted view = %+v", w)
	}
	if fs.Total() != 8 || fs.Distinct() != 2 {
		t.Fatalf("Total=%d Distinct=%d", fs.Total(), fs.Distinct())
	}
}
