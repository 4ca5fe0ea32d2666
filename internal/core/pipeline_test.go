package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"jxplain/internal/dataset"
	"jxplain/internal/entropy"
	"jxplain/internal/jsontype"
	"jxplain/internal/schema"
)

func TestPipelineEqualsDiscoverHandcrafted(t *testing.T) {
	bags := []*jsontype.Bag{
		bagFrom(t,
			`{"ts":7,"event":"login","user":{"name":"bob","geo":[1.1,2.2]}}`,
			`{"ts":8,"event":"serve","files":["a.txt","b.txt"]}`,
		),
		bagFrom(t, `1`, `"x"`, `null`, `[1,2,3]`, `{"a":true}`),
		bagFrom(t, `{}`, `{}`, `[]`),
	}
	// A pharma-like bag.
	pharma := &jsontype.Bag{}
	for i := 0; i < 50; i++ {
		pharma.Add(ty(t, fmt.Sprintf(`{"counts":{"D%d":1,"D%d":2}}`, i%29, (i+7)%29)))
	}
	bags = append(bags, pharma)

	for bi, bag := range bags {
		for _, cfg := range []Config{Default(), BimaxNaiveConfig(), KReduceConfig()} {
			rec := Discover(bag, cfg)
			pipe := Pipeline(bag, cfg)
			if !schema.Equal(schema.Simplify(rec), schema.Simplify(pipe)) {
				t.Errorf("bag %d cfg %v: pipeline diverges\nrecursive: %s\npipeline:  %s",
					bi, cfg.Partition, rec, pipe)
			}
		}
	}
}

func TestPipelineEqualsDiscoverRandom(t *testing.T) {
	// Random single-entity-style records (no cross-entity complex-field
	// conflicts, per the documented per-path vs per-bag caveat).
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		bag := &jsontype.Bag{}
		n := 5 + r.Intn(30)
		for i := 0; i < n; i++ {
			rec := map[string]any{"id": float64(i)}
			if r.Intn(2) == 0 {
				rec["tags"] = randStringArray(r)
			}
			if r.Intn(3) == 0 {
				rec["geo"] = []any{1.5, 2.5}
			}
			if r.Intn(2) == 0 {
				rec["meta"] = map[string]any{"a": 1.0, "b": "x"}
			}
			bag.Add(jsontype.MustFromValue(rec))
		}
		recSchema := Discover(bag, Default())
		pipeSchema := Pipeline(bag, Default())
		if !schema.Equal(schema.Simplify(recSchema), schema.Simplify(pipeSchema)) {
			t.Fatalf("trial %d: pipeline diverges\n%s\n%s", trial, recSchema, pipeSchema)
		}
	}
}

func randStringArray(r *rand.Rand) []any {
	n := r.Intn(5)
	out := make([]any, n)
	for i := range out {
		out[i] = "t"
	}
	return out
}

func TestPipelineEmptyBag(t *testing.T) {
	if !schema.IsEmpty(Pipeline(&jsontype.Bag{}, Default())) {
		t.Error("empty bag should give the empty schema")
	}
	if !schema.IsEmpty(PipelineTypes(nil, Default())) {
		t.Error("PipelineTypes(nil) should give the empty schema")
	}
}

func TestCollectPathStats(t *testing.T) {
	bag := bagFrom(t,
		`{"ts":1,"user":{"geo":[1.0,2.0]},"tags":["a"]}`,
		`{"ts":2,"user":{"geo":[3.0,4.0]},"tags":["b","c","d"]}`,
		`{"ts":3,"user":{"geo":[5.0,6.0]},"tags":[]}`,
	)
	stats := CollectPathStats(bag, Default())
	byPath := map[string]PathStat{}
	for _, st := range stats {
		byPath[st.Path+"/"+st.Kind.String()] = st
	}
	if st, ok := byPath["$/object"]; !ok || st.Decision != entropy.Tuple {
		t.Errorf("root should be a tuple: %+v", st)
	}
	if st, ok := byPath["$.user.geo/array"]; !ok || st.Decision != entropy.Tuple {
		t.Errorf("geo should be a tuple: %+v", st)
	}
	if st, ok := byPath["$.tags/array"]; !ok || st.Decision != entropy.Collection {
		t.Errorf("tags should be a collection: %+v", st)
	}
}

func TestCollectPathStatsSorted(t *testing.T) {
	bag := bagFrom(t, `{"b":{"x":1},"a":[1,2,3,4]}`, `{"b":{"x":2},"a":[1]}`)
	stats := CollectPathStats(bag, Default())
	for i := 1; i < len(stats); i++ {
		if stats[i].Path < stats[i-1].Path {
			t.Fatalf("stats not sorted: %q after %q", stats[i].Path, stats[i-1].Path)
		}
	}
}

// dottedKeyBag mixes a collection under the dotted key "a.b" with a tuple
// at the nested path a → b.
func dottedKeyBag(t *testing.T) *jsontype.Bag {
	bag := &jsontype.Bag{}
	for i := 0; i < 30; i++ {
		bag.Add(ty(t, fmt.Sprintf(`{"a.b":{"k%d":1,"k%d":2}}`, i%17, (i+5)%17)))
		bag.Add(ty(t, `{"a":{"b":{"fixed":1,"also":2}}}`))
	}
	return bag
}

func TestPathEscapingNoAliasing(t *testing.T) {
	// {"a.b": 𝕊-collection candidates} and {"a": {"b": …}} must not share
	// decision-map entries.
	bag := dottedKeyBag(t)
	rec := Discover(bag, Default())
	pipe := Pipeline(bag, Default())
	if !schema.Equal(schema.Simplify(rec), schema.Simplify(pipe)) {
		t.Errorf("dotted keys alias paths:\nrecursive: %s\npipeline:  %s", rec, pipe)
	}
	// The dotted-key map is a collection; the nested b is a tuple.
	if !pipe.Accepts(ty(t, `{"a.b":{"brand_new":9}}`)) {
		t.Error("collection under dotted key should generalize")
	}
	if pipe.Accepts(ty(t, `{"a":{"b":{"brand_new":9,"fixed":1,"also":2}}}`)) {
		t.Error("nested tuple must not inherit the collection decision")
	}
}

func TestPipelineMixedKindsAtOnePath(t *testing.T) {
	// A path carrying both arrays and objects exercises the separate
	// per-kind decisions.
	bag := bagFrom(t,
		`{"v":[1,2,3,4,5]}`,
		`{"v":[1]}`,
		`{"v":[2,3]}`,
		`{"v":{"a":1}}`,
		`{"v":{"a":2,"b":3}}`,
	)
	rec := Discover(bag, Default())
	pipe := Pipeline(bag, Default())
	if !schema.Equal(schema.Simplify(rec), schema.Simplify(pipe)) {
		t.Errorf("mixed kinds diverge:\n%s\n%s", rec, pipe)
	}
	if !rec.Accepts(ty(t, `{"v":{"a":9,"b":9}}`)) || !rec.Accepts(ty(t, `{"v":[9,9,9]}`)) {
		t.Error("both kinds should be admitted")
	}
}

// TestDuplicatedRecordsKeepSchema checks that a schema depends on which
// records occur, not on how often: repeating every record 2× or 3×, as
// whole-stream copies or as k copies of each record in a row, leaves each
// algorithm's native schema byte-identical.
func TestDuplicatedRecordsKeepSchema(t *testing.T) {
	algorithms := []struct {
		name string
		run  func([]*jsontype.Type, Config) schema.Schema
	}{{"Pipeline", PipelineTypes}, {"Discover", DiscoverTypes}}
	for _, g := range append(dataset.Registry(), dataset.WideRegistry()...) {
		types := dataset.Types(g.Generate(g.DefaultN/4, 1))
		for _, a := range algorithms {
			want := marshalSchema(t, a.run(types, Default()))
			for k := 2; k <= 3; k++ {
				var copies, inARow []*jsontype.Type
				for c := 0; c < k; c++ {
					copies = append(copies, types...)
				}
				for _, ty := range types {
					for c := 0; c < k; c++ {
						inARow = append(inARow, ty)
					}
				}
				for name, dup := range map[string][]*jsontype.Type{"copies": copies, "in a row": inARow} {
					if got := marshalSchema(t, a.run(dup, Default())); !bytes.Equal(got, want) {
						t.Errorf("%s: %s over %d× %s differs from one copy\ngot:  %s\nwant: %s", g.Name, a.name, k, name, got, want)
					}
				}
			}
		}
	}
}
