package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"jxplain/internal/dataset"
	"jxplain/internal/entity"
	"jxplain/internal/jsontype"
)

// Pass ① has two algorithms: the one-shot bag walk (CollectPathStats,
// subtreeDecisions) and the mergeable trie (PathSketch). The tests here
// pin them to each other, the trie both built whole and built as k
// contiguous parts folded with Merge — the shape of a partitioned job.

func pathStatsEqual(a, b []PathStat) string {
	if len(a) != len(b) {
		return fmt.Sprintf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Path != b[i].Path || a[i].Kind != b[i].Kind || a[i].Decision != b[i].Decision {
			return fmt.Sprintf("row %d: %+v vs %+v", i, a[i], b[i])
		}
		if math.Abs(a[i].Evidence.KeyEntropy-b[i].Evidence.KeyEntropy) > 1e-9 ||
			a[i].Evidence.Similar != b[i].Evidence.Similar ||
			a[i].Evidence.Records != b[i].Evidence.Records ||
			a[i].Evidence.DistinctKeys != b[i].Evidence.DistinctKeys {
			return fmt.Sprintf("row %d evidence: %+v vs %+v", i, a[i].Evidence, b[i].Evidence)
		}
	}
	return ""
}

// checkTrieMatchesWalk compares the trie's statistics, whole and as a
// k-part Merge fold over the record stream, against the walk, and the
// trie's decisions derived at "" against subtreeDecisions.
func checkTrieMatchesWalk(t *testing.T, label string, types []*jsontype.Type, cfg Config, k int) {
	t.Helper()
	bag := bagOf(types)
	walk := CollectPathStats(bag, cfg)

	whole := NewPathSketch()
	for _, typ := range types {
		whole.Add(typ)
	}
	if diff := pathStatsEqual(walk, whole.Stats(cfg)); diff != "" {
		t.Errorf("%s: whole trie diverges from walk: %s", label, diff)
	}

	folded := NewPathSketch()
	for p := 0; p < k; p++ {
		part := NewPathSketch()
		for _, typ := range types[p*len(types)/k : (p+1)*len(types)/k] {
			part.Add(typ)
		}
		folded.Merge(part)
	}
	if diff := pathStatsEqual(walk, folded.Stats(cfg)); diff != "" {
		t.Errorf("%s: %d-part fold diverges from walk: %s", label, k, diff)
	}

	var rel []PathStat
	whole.root.derive("", cfg, &rel)
	if got, want := decisionMap(rel), subtreeDecisions(bag, cfg); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: trie decisions at \"\" diverge from subtreeDecisions:\n%v\n%v", label, got, want)
	}
}

// expand lists every occurrence of the bag's types.
func expand(bag *jsontype.Bag) []*jsontype.Type {
	var types []*jsontype.Type
	bag.Each(func(typ *jsontype.Type, n int) {
		for i := 0; i < n; i++ {
			types = append(types, typ)
		}
	})
	return types
}

func TestParallelPathStatsMatchesSequential(t *testing.T) {
	bag := bagFrom(t,
		`{"ts":7,"event":"login","user":{"name":"bob","geo":[1.1,2.2]}}`,
		`{"ts":8,"event":"serve","files":["a.txt","b.txt"]}`,
		`{"ts":9,"event":"login","user":{"name":"eve","geo":[3.0,4.5]}}`,
	)
	checkTrieMatchesWalk(t, "events", expand(bag), Default(), 3)
}

func TestParallelPathStatsCollectionMerging(t *testing.T) {
	// A collection-like object must produce identical wildcard descent.
	var types []*jsontype.Type
	for i := 0; i < 60; i++ {
		src := fmt.Sprintf(`{"m":{"k%d":{"inner":1},"k%d":{"inner":2}}}`, i%31, (i+9)%31)
		types = append(types, ty(t, src))
	}
	for _, k := range []int{1, 2, 5, 16} {
		checkTrieMatchesWalk(t, fmt.Sprintf("k=%d", k), types, Default(), k)
	}
}

func TestParallelPathStatsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		var types []*jsontype.Type
		n := 5 + r.Intn(60)
		for i := 0; i < n; i++ {
			types = append(types, randomRecord(r))
		}
		checkTrieMatchesWalk(t, fmt.Sprintf("trial %d", trial), types, Default(), 1+r.Intn(7))
	}
}

// randomRecord builds records with mixed tuples, collections, arrays and
// primitives, including conflicting kinds at shared paths.
func randomRecord(r *rand.Rand) *jsontype.Type {
	rec := map[string]any{"id": float64(r.Intn(100))}
	if r.Intn(2) == 0 {
		rec["geo"] = []any{r.Float64(), r.Float64()}
	}
	if r.Intn(3) == 0 {
		m := map[string]any{}
		for i := 0; i < 1+r.Intn(5); i++ {
			m[fmt.Sprintf("key%d", r.Intn(40))] = float64(r.Intn(10))
		}
		rec["counts"] = m
	}
	if r.Intn(3) == 0 {
		tags := make([]any, r.Intn(6))
		for i := range tags {
			tags[i] = "t"
		}
		rec["tags"] = tags
	}
	if r.Intn(4) == 0 {
		rec["mixed"] = []any{1.0, "s", true}[r.Intn(3)]
	}
	if r.Intn(5) == 0 {
		rec["v"] = map[string]any{"a": 1.0}
	} else if r.Intn(5) == 0 {
		rec["v"] = []any{1.0}
	}
	return jsontype.MustFromValue(rec)
}

func TestPathSketchAddBagMatchesWalk(t *testing.T) {
	bag := &jsontype.Bag{}
	bag.AddN(ty(t, `{"a":1,"b":"x"}`), 7)
	bag.AddN(ty(t, `{"a":2}`), 3)
	bag.Add(ty(t, `{"c":[1,2,3]}`))
	s := NewPathSketch()
	s.AddBag(bag)
	if diff := pathStatsEqual(CollectPathStats(bag, Default()), s.Stats(Default())); diff != "" {
		t.Errorf("AddBag diverges from walk: %s", diff)
	}
	checkTrieMatchesWalk(t, "weighted", expand(bag), Default(), 3)
}

func TestBuildFeatureSetDirect(t *testing.T) {
	bag := bagFrom(t,
		`{"a":1,"m":{"k1":1,"k2":2},"geo":[1.0,2.0]}`,
		`{"a":2,"m":{"k3":3},"geo":[3.0,4.0]}`,
		`{"a":3,"m":{"k4":4,"k5":5,"k6":6},"geo":[5.0,6.0]}`,
	)
	pruned := BuildFeatureSet(bag, Default(), true, entity.Sparse)
	raw := BuildFeatureSet(bag, Default(), false, entity.Sparse)
	// With the m collection pruned, all three records share one vector
	// {.a, .m, .geo, .geo[0], .geo[1]}.
	if pruned.Distinct() != 1 {
		t.Errorf("pruned distinct = %d", pruned.Distinct())
	}
	if raw.Distinct() != 3 {
		t.Errorf("raw distinct = %d", raw.Distinct())
	}
	if pruned.MemoryBytes() >= raw.MemoryBytes() {
		t.Error("pruning should reduce memory")
	}
	if pruned.Total() != 3 {
		t.Errorf("total = %d", pruned.Total())
	}
	// Primitive records contribute no vectors.
	primBag := jsontype.NewBag(jsontype.Number, jsontype.String)
	if fs := BuildFeatureSet(primBag, Default(), true, entity.Dense); fs.Total() != 0 {
		t.Error("primitives have no feature vectors")
	}
}

func TestParallelPathStatsEmptyAndPrimitive(t *testing.T) {
	if got := NewPathSketch().Stats(Default()); len(got) != 0 {
		t.Error("no records → no stats")
	}
	prim := []*jsontype.Type{jsontype.Number, jsontype.String}
	s := NewPathSketch()
	for _, typ := range prim {
		s.Add(typ)
	}
	if got := s.Stats(Default()); len(got) != 0 {
		t.Error("primitive-only records have no complex paths")
	}
	checkTrieMatchesWalk(t, "empty", nil, Default(), 2)
	checkTrieMatchesWalk(t, "primitive", prim, Default(), 2)
}

// trieWalkConfigs are the configurations the equivalence suite runs
// under; the detection-disabled ones must agree too.
var trieWalkConfigs = []struct {
	name string
	cfg  Config
}{
	{"default", Default()},
	{"k-reduce", KReduceConfig()},
	{"bimax-naive", BimaxNaiveConfig()},
}

func TestParallelPathStatsOnDatasetShapes(t *testing.T) {
	bag := bagFrom(t,
		`{"a":{"x":1},"b":[[1,2],[3,4]],"c":"s"}`,
		`{"a":{"y":2},"b":[[5,6]],"c":"t"}`,
		`{"a":{"z":3},"b":[],"d":null}`,
	)
	for _, c := range trieWalkConfigs {
		checkTrieMatchesWalk(t, c.name, expand(bag), c.cfg, 4)
	}
}

func TestPathStatsTrieMatchesWalkOnRegistry(t *testing.T) {
	for _, g := range dataset.Registry() {
		types := dataset.Types(g.Generate(300, 1))
		for _, c := range trieWalkConfigs {
			checkTrieMatchesWalk(t, g.Name+"/"+c.name, types, c.cfg, 3)
		}
	}
}
