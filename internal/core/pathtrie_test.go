package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"jxplain/internal/dataset"
	"jxplain/internal/entity"
	"jxplain/internal/entropy"
	"jxplain/internal/jsontype"
)

// refFeatureSets is the string walk the path trie replaced: featurePaths
// names each type's features, an entity.Dict numbers them, and sets are
// deduplicated by their Canon string.
func refFeatureSets(bag *jsontype.Bag, decide subtreeDecision) (entity.Weighted, *entity.Dict, [][]int) {
	dict := entity.NewDict()
	var w entity.Weighted
	setIndex := map[string]int{}
	var typesBySet [][]int
	for ti, t := range bag.Types() {
		ks := entity.KeySetOf(dict, featurePaths(t, decide, true)...)
		si, ok := setIndex[ks.Canon()]
		if !ok {
			si = len(w.Sets)
			setIndex[ks.Canon()] = si
			w.Sets = append(w.Sets, ks)
			w.Weights = append(w.Weights, 0)
			typesBySet = append(typesBySet, nil)
		}
		w.Weights[si] += bag.Count(ti)
		typesBySet[si] = append(typesBySet[si], ti)
	}
	return w, dict, typesBySet
}

// requireSameFeatureSets checks the trie walk at one partition point, whose
// path is base, against refFeatureSets bit for bit.
func requireSameFeatureSets(t *testing.T, label string, got featureSets, bag *jsontype.Bag, base string, decide subtreeDecision) {
	t.Helper()
	w, dict, typesBySet := refFeatureSets(bag, decide)
	if len(got.features) != dict.Len() {
		t.Fatalf("%s: trie walk numbers %d features, featurePaths %d", label, len(got.features), dict.Len())
	}
	for id, n := range got.features {
		if want := base + dict.Name(id); n.path != want {
			t.Fatalf("%s: feature %d is %q, featurePaths numbers %q", label, id, n.path, want)
		}
	}
	if !reflect.DeepEqual(got.Sets, w.Sets) {
		t.Fatalf("%s: key sets differ\ntrie: %v\nref:  %v", label, got.Sets, w.Sets)
	}
	if !reflect.DeepEqual(got.Weights, w.Weights) {
		t.Fatalf("%s: weights differ: %v vs %v", label, got.Weights, w.Weights)
	}
	if !reflect.DeepEqual(got.typesBySet, typesBySet) {
		t.Fatalf("%s: types by set differ: %v vs %v", label, got.typesBySet, typesBySet)
	}
}

// visitPlanPoints walks bag along d's decisions the way collectPlans does
// and calls visit at every tuple path, with the values of that kind.
func visitPlanPoints(d *pipelineDecider, path string, bag *jsontype.Bag, visit func(path string, k jsontype.Kind, values *jsontype.Bag)) {
	_, arrays, objects := bag.SplitKinds()
	if arrays.Len() > 0 {
		if d.arrayDecision(path, arrays) == entropy.Collection {
			if elems := arrays.Elements(); elems.Len() > 0 {
				visitPlanPoints(d, arrayElemPath(path), elems, visit)
			}
		} else {
			visit(path, jsontype.KindArray, arrays)
			groups, _ := arrays.GroupByIndex()
			for i, g := range groups {
				visitPlanPoints(d, arrayIndexPath(path, i), g, visit)
			}
		}
	}
	if objects.Len() > 0 {
		if d.objectDecision(path, objects) == entropy.Collection {
			if values := objects.FieldValues(); values.Len() > 0 {
				visitPlanPoints(d, objectValuePath(path), values, visit)
			}
		} else {
			visit(path, jsontype.KindObject, objects)
			keys, groups, _ := objects.GroupByKey()
			for i, key := range keys {
				visitPlanPoints(d, childKeyPath(path, key), groups[i], visit)
			}
		}
	}
}

// recordingDecider is the recursive strategy, remembering the bag of
// every partition point it meets.
type recordingDecider struct {
	localDecider
	bags []*jsontype.Bag
}

func (r *recordingDecider) partitionObjects(path string, objects *jsontype.Bag) []*jsontype.Bag {
	r.bags = append(r.bags, objects)
	return r.localDecider.partitionObjects(path, objects)
}

func (r *recordingDecider) partitionArrays(path string, arrays *jsontype.Bag) []*jsontype.Bag {
	r.bags = append(r.bags, arrays)
	return r.localDecider.partitionArrays(path, arrays)
}

// TestFeatureTrieMatchesFeaturePaths pins the path trie's feature walk to
// the string walk it replaced, at every plan pass ② builds and at every
// partition point of the recursive Discover: key sets, weights, the types
// carrying each set and the feature count are bit-identical.
func TestFeatureTrieMatchesFeaturePaths(t *testing.T) {
	type input struct {
		name string
		bag  *jsontype.Bag
	}
	var inputs []input
	for _, g := range append(dataset.Registry(), dataset.WideRegistry()...) {
		n := 400
		if g.Name == "wikidata" {
			n = 150
		}
		if g.DefaultN/4 > n {
			n = g.DefaultN / 4
		}
		inputs = append(inputs, input{g.Name, bagOf(dataset.Types(g.Generate(n, 3)))})
	}
	inputs = append(inputs,
		input{"dotted-keys", dottedKeyBag(t)},
		input{"depth-300", bagFrom(t, strings.Repeat("[", 300)+strings.Repeat("]", 300))},
	)
	cfg := Default()
	for _, in := range inputs {
		decisions := decisionMap(CollectPathStats(in.bag, cfg))
		d := &pipelineDecider{cfg: cfg, decisions: decisions, trie: &pathTrie{decisions: decisions}, nodes: map[string]*pathNode{}}
		d.collectPlans(d.trie.root(RootPath), in.bag)
		plans := 0
		for _, n := range d.nodes {
			for _, p := range []*partitionPlan{n.objPlan, n.arrPlan} {
				if p != nil {
					plans++
				}
			}
		}
		lookup := decisionLookup(decisions)
		points := 0
		visitPlanPoints(d, RootPath, in.bag, func(path string, k jsontype.Kind, values *jsontype.Bag) {
			points++
			n := d.nodes[path]
			if n == nil {
				t.Fatalf("%s: pass ② never walked %s", in.name, path)
			}
			plan := n.objPlan
			if k == jsontype.KindArray {
				plan = n.arrPlan
			}
			if plan == nil {
				t.Fatalf("%s: pass ② built no %v plan at %s", in.name, k, path)
			}
			decide := func(rel string, kind jsontype.Kind) entropy.Decision { return lookup(path+rel, kind) }
			requireSameFeatureSets(t, in.name+" "+path, d.trie.featureSets(n, values), values, path, decide)
		})
		if points != plans {
			t.Fatalf("%s: compared %d partition points, pass ② built %d plans", in.name, points, plans)
		}

		rec := &recordingDecider{localDecider: localDecider{cfg: cfg}}
		(&synthesizer{dec: rec}).merge(RootPath, in.bag)
		for _, b := range rec.bags {
			decisions := subtreeDecisions(b, cfg)
			tr := &pathTrie{decisions: decisions}
			requireSameFeatureSets(t, in.name+" Discover", tr.featureSets(tr.root(""), b), b, "", decisionLookup(decisions))
		}
		if len(rec.bags) == 0 {
			t.Fatalf("%s: Discover met no partition point", in.name)
		}
	}
}

// TestFinishAllocationsQuadraticInDepth pins pass ②'s cost in nesting depth
// by bytes allocated, not wall time. One record [[…]] of depth d has d
// tuple paths, each a partition point over the whole subtree below it:
// building each path string once keeps Finish at O(d²) bytes, so doubling
// the depth may at most about quadruple them. A walk that rebuilds the
// subtree's path strings at every partition point allocates O(d³).
func TestFinishAllocationsQuadraticInDepth(t *testing.T) {
	finishBytes := func(depth int) uint64 {
		acc := NewAccumulator(Default())
		acc.Add(ty(t, strings.Repeat("[", depth)+strings.Repeat("]", depth)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		acc.Finish()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, d := range []int{250, 500} {
		small, large := finishBytes(d), finishBytes(2*d)
		if ratio := float64(large) / float64(small); ratio > 4.5 {
			t.Errorf("Finish allocates %d B at depth %d and %d B at depth %d: %.2f×, want at most 4.5×",
				small, d, large, 2*d, ratio)
		}
	}
}

// requireSameGroups checks a rank grouping against groupByKey's: keys,
// child paths, presence counts, and the value bags' types and counts in
// order, which later feature walks and the memo's bag hashes depend on.
func requireSameGroups(t *testing.T, label string, got, want []fieldGroup) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, GroupByKey has %d", label, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.key != w.key || g.path != w.path || g.present != w.present || g.node == nil || g.node.path != w.path {
			t.Fatalf("%s: group %d is %q at %q (present %d), GroupByKey's %q at %q (present %d)",
				label, i, g.key, g.path, g.present, w.key, w.path, w.present)
		}
		if !reflect.DeepEqual(g.values.Types(), w.values.Types()) {
			t.Fatalf("%s: key %q holds types %v, GroupByKey's %v", label, g.key, g.values.Types(), w.values.Types())
		}
		for ti := range g.values.Types() {
			if g.values.Count(ti) != w.values.Count(ti) {
				t.Fatalf("%s: key %q type %d counts %d, GroupByKey's %d", label, g.key, ti, g.values.Count(ti), w.values.Count(ti))
			}
		}
	}
}

// TestFieldGroupsMatchGroupByKey pins the rank grouping of passes ② and ③
// to Bag.GroupByKey at every object-tuple path pass ② indexed, over the
// path's whole bag and over each entity pass ③ partitions it into. A bag
// holding a type the index never saw is refused and leaves the grouper's
// slots clean for the next grouping.
func TestFieldGroupsMatchGroupByKey(t *testing.T) {
	type input struct {
		name string
		bag  *jsontype.Bag
	}
	var inputs []input
	for _, g := range append(dataset.Registry(), dataset.WideRegistry()...) {
		inputs = append(inputs, input{g.Name, bagOf(dataset.Types(g.Generate(300, 3)))})
	}
	inputs = append(inputs, input{"dotted-keys", dottedKeyBag(t)})
	cfg := Default()
	for _, in := range inputs {
		decisions := decisionMap(CollectPathStats(in.bag, cfg))
		d := &pipelineDecider{cfg: cfg, decisions: decisions, trie: &pathTrie{decisions: decisions}, nodes: map[string]*pathNode{}}
		d.collectPlans(d.trie.root(RootPath), in.bag)
		points := 0
		visitPlanPoints(d, RootPath, in.bag, func(path string, k jsontype.Kind, values *jsontype.Bag) {
			if k != jsontype.KindObject {
				return
			}
			points++
			n := d.nodes[path]
			if n == nil || n.fields == nil {
				t.Fatalf("%s: pass ② did not index %s", in.name, path)
			}
			for pi, part := range append([]*jsontype.Bag{values}, d.partitionObjects(path, values)...) {
				got, ok := d.grouper.group(n.fields, part, false)
				if !ok {
					t.Fatalf("%s %s: part %d refused", in.name, path, pi)
				}
				requireSameGroups(t, fmt.Sprintf("%s %s part %d", in.name, path, pi), got, groupByKey(path, part))
			}
		})
		if points == 0 {
			t.Fatalf("%s: no object-tuple path", in.name)
		}

		root := d.nodes[RootPath]
		_, _, objects := in.bag.SplitKinds()
		foreign := &jsontype.Bag{}
		objects.Each(func(ty *jsontype.Type, n int) { foreign.AddN(ty, n) })
		foreign.Add(ty(t, `{"a key no record holds":[1,2]}`))
		if _, ok := d.grouper.group(root.fields, foreign, false); ok {
			t.Fatalf("%s: a type the index never saw was grouped", in.name)
		}
		got, _ := d.grouper.group(root.fields, objects, false)
		requireSameGroups(t, in.name+" after a refusal", got, groupByKey(RootPath, objects))
	}
}
