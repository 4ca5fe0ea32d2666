package core

import (
	"math/rand"

	"jxplain/internal/entropy"
	"jxplain/internal/jsontype"
	"jxplain/internal/schema"
	"jxplain/internal/stats"
)

// Pipeline runs JXPLAIN as the staged three-pass computation of Figure 3:
//
//	pass ① — the PathSketch trie, folded as records arrive, fixes per
//	         path whether complex values are tuples or collections
//	         (under DetectionSample, CollectPathStats walks a sample);
//	pass ② — a second walk precomputes, per tuple path, a deterministic
//	         strategy assigning each observed key set to an entity;
//	pass ③ — the shared synthesizer replays the walk and assembles the
//	         schema, consulting only the precomputed decisions.
//
// The paper decomposes JXPLAIN this way because the heuristics need global
// visibility, breaking the associative-fold structure that lets K-reduction
// distribute; each individual pass, by contrast, is embarrassingly
// parallel.
//
// Pipeline is the reference JXPLAIN of the experiments. It differs from
// the recursive Discover in one semantic detail: pass ① fixes decisions
// per *path*, so values of one path reached through different entities
// share a decision, while Discover re-evaluates the heuristic per
// entity-restricted bag. On single-root-entity data the two are
// structurally identical (pinned by integration tests); under multi-entity
// roots, borderline nested decisions (e.g. short object arrays whose
// length entropy straddles the threshold within one entity) can flip,
// changing the schema's shape but not its validation of the training data.
func Pipeline(bag *jsontype.Bag, cfg Config) schema.Schema {
	acc := NewAccumulator(cfg)
	acc.AddBag(bag)
	return acc.Finish()
}

// PipelineTypes is Pipeline over a slice of record types.
func PipelineTypes(types []*jsontype.Type, cfg Config) schema.Schema {
	return Pipeline(bagOf(types), cfg)
}

// Accumulator is the streaming form of Pipeline: records arrive in chunks
// (bags, types, or decoded values via the facade), pass-① statistics
// accumulate in a mergeable PathSketch as they do, and Finish runs passes
// ② and ③ over the deduplicated union bag. Memory is proportional to the
// collection's *distinct structure* (distinct record types plus distinct
// paths), never to its record count — the property that lets the pipeline
// ingest unbounded streams.
//
// When Config.DetectionSample is in (0, 1) the incremental sketch is
// skipped and pass ① instead samples the accumulated bag at Finish,
// matching the batch Pipeline draw for draw.
//
// Finish does not consume the accumulator: more records may be added and
// Finish called again, which is the natural shape for periodic schema
// snapshots over a live stream. An Accumulator is not safe for concurrent
// use.
type Accumulator struct {
	cfg    Config
	bag    *jsontype.Bag // exact union; nil when a reservoir bounds it
	sketch *PathSketch   // nil when detection sampling defers pass ① to Finish
	memo   *mergeMemo    // pass-③ subtree cache, kept across Finish calls
	err    error         // first failed sketch merge; poisons later merges and Marshal

	// Bounded-stream state (Config.Bounds; see bounded.go).
	res           *jsontype.ReservoirBag // capped union when ReservoirCapacity > 0
	ring          *sketchRing            // closed sketch windows when WindowCount > 0
	sinceRotate   int                    // records since the last rotation
	onWindowClose func(index, records int, sketch *PathSketch)
}

// NewAccumulator returns an empty accumulator for the configuration.
func NewAccumulator(cfg Config) *Accumulator {
	a := &Accumulator{cfg: cfg, memo: newMergeMemo()}
	if cfg.Bounds.ReservoirCapacity > 0 {
		a.res = jsontype.NewReservoirBag(cfg.Bounds.ReservoirCapacity, cfg.Seed)
	} else {
		a.bag = &jsontype.Bag{}
	}
	if !(cfg.DetectionSample > 0 && cfg.DetectionSample < 1) {
		a.sketch = NewPathSketch()
	}
	if cfg.Bounds.WindowRecords > 0 && cfg.Bounds.WindowCount > 0 && a.sketch != nil {
		a.ring = newSketchRing(cfg.Bounds.WindowCount)
	}
	return a
}

// Add folds one record type into the accumulator.
func (a *Accumulator) Add(t *jsontype.Type) { a.AddN(t, 1) }

// AddN folds n occurrences of one record type into the accumulator.
func (a *Accumulator) AddN(t *jsontype.Type, n int) {
	if a.res != nil {
		a.res.AddN(t, n)
	} else {
		a.bag.AddN(t, n)
	}
	if a.sketch != nil {
		a.sketch.AddN(t, n)
	}
	a.advance(n)
}

// AddBag folds one chunk into the accumulator. The chunk bag is not
// retained and may be reused by the caller.
func (a *Accumulator) AddBag(chunk *jsontype.Bag) {
	n := chunk.Len()
	if a.res != nil {
		chunk.Each(func(t *jsontype.Type, c int) { a.res.AddN(t, c) })
	} else {
		a.bag.Merge(chunk)
	}
	if a.sketch != nil {
		a.sketch.AddBag(chunk)
	}
	a.advance(n)
}

// Merge folds another accumulator's state into a — the reduce step of a
// scale-out run, where map workers each fold a shard into an accumulator
// and ship it (usually through the wire format). The result is
// observationally identical to one accumulator having seen both inputs:
// bags merge, and the sketch either merges trie-to-trie or, when other
// carries no sketch (a sampling configuration on the map side), refolds
// other's deduplicated bag. other must not be used afterwards: its trie
// nodes may be adopted by a.
//
// Bounded accumulators merge too — reservoirs combine through their own
// seed-deterministic batch merge (same capacity and seed required), live
// epochs fold trie-to-trie, and other's closed window tries are adopted,
// without a copy, as a's most recent (shards carry no global window
// order, so any adoption order is an alignment approximation). A bounded
// a folds an unbounded other through the reservoir; the converse
// snapshots other's reservoir.
//
//jx:monoid consuming
func (a *Accumulator) Merge(other *Accumulator) {
	if other == nil {
		return
	}
	switch {
	case a.res == nil && other.res == nil:
		a.bag.Merge(other.bag)
	case a.res != nil && other.res != nil:
		a.res.Merge(other.res)
	case a.res != nil:
		other.bag.Each(func(t *jsontype.Type, n int) { a.res.AddN(t, n) })
	default:
		a.bag.Merge(other.res.Snapshot())
	}
	if a.sketch != nil {
		if other.sketch != nil {
			a.sketch.Merge(other.sketch)
		} else {
			a.sketch.AddBag(other.unionBag())
		}
	}
	if a.ring != nil && other.ring != nil {
		for _, w := range other.ring.windows {
			a.ring.push(w)
		}
	}
}

// Records returns the number of record occurrences accumulated — in
// bounded mode, the lifetime count seen, which decay does not rewind.
func (a *Accumulator) Records() int {
	if a.res != nil {
		return int(a.res.Seen())
	}
	return a.bag.Len()
}

// Distinct returns the number of distinct record types accumulated (in
// bounded mode, currently retained).
func (a *Accumulator) Distinct() int {
	if a.res != nil {
		return a.res.Distinct()
	}
	return a.bag.Distinct()
}

// Stats returns the pass-① path statistics over everything accumulated
// (over the retained window horizon, in bounded mode).
func (a *Accumulator) Stats() []PathStat {
	if a.sketch != nil {
		return a.statsSketch().Stats(a.cfg)
	}
	return CollectPathStats(SampleBag(a.unionBag(), a.cfg.DetectionSample, a.cfg.Seed), a.cfg)
}

// Finish runs passes ② and ③ over the accumulated collection and returns
// the schema (unsimplified, like Pipeline). Subtree results are memoized
// on the accumulator: a later Finish over a grown stream recomputes only
// the subtrees whose bags (or global decisions) actually changed.
func (a *Accumulator) Finish() schema.Schema {
	return synthesize(a.unionBag(), a.Stats(), a.cfg, a.memo)
}

// synthesize runs passes ② and ③ over the full bag, consulting the
// precomputed pass-① statistics and the accumulator's memo.
func synthesize(bag *jsontype.Bag, stats []PathStat, cfg Config, memo *mergeMemo) schema.Schema {
	decisions := decisionMap(stats)
	dec := &pipelineDecider{
		cfg:       cfg,
		decisions: decisions,
		trie:      &pathTrie{decisions: decisions},
		nodes:     map[string]*pathNode{},
	}
	dec.collectPlans(dec.trie.root(RootPath), bag) // pass ②
	// The memo is only sound while the global decisions and plans that
	// shaped its entries still hold; a changed epoch drops the cache.
	memo.validate(dec.epochHash())
	s := &synthesizer{dec: dec, memo: memo}
	out := s.merge(RootPath, bag) // pass ③
	memo.endFinish()
	return out
}

// SampleBag draws a uniform sample of the bag's occurrences: each distinct
// type keeps a Binomial(multiplicity, fraction) share, drawn in O(1) per
// distinct type rather than per occurrence, with at least the guarantee
// that a non-empty bag stays non-empty. Sampling is deterministic for a
// given seed. It is the sampler behind Config.DetectionSample.
func SampleBag(bag *jsontype.Bag, fraction float64, seed int64) *jsontype.Bag {
	r := rand.New(rand.NewSource(seed))
	out := &jsontype.Bag{}
	bag.Each(func(t *jsontype.Type, n int) {
		if kept := stats.Binomial(r, n, fraction); kept > 0 {
			out.AddN(t, kept)
		}
	})
	if out.Len() == 0 && bag.Len() > 0 {
		out.Add(bag.Types()[0])
	}
	return out
}

// pathDecision stores the pass-① outcome for one path, separately for the
// array-kinded and object-kinded values observed there.
type pathDecision struct {
	arr, obj       entropy.Decision
	hasArr, hasObj bool
}

func decisionMap(stats []PathStat) map[string]pathDecision {
	out := map[string]pathDecision{}
	for _, st := range stats {
		d := out[st.Path]
		if st.Kind == jsontype.KindArray {
			d.arr, d.hasArr = st.Decision, true
		} else {
			d.obj, d.hasObj = st.Decision, true
		}
		out[st.Path] = d
	}
	return out
}

// partitionPlan is the pass-② output for one tuple path and kind: the
// entity each distinct type of the path's bag belongs to, keyed by intern
// id. Pass ③ only ever partitions sub-bags of that bag (an entity's
// children are sub-bags of all tuples' children at the same path), so
// every type it meets has an entry. hash digests the key-set → entity
// assignment for the merge memo's epoch; it sums path hashes, not
// dictionary ids or record counts, so it holds while the assignment does.
type partitionPlan struct {
	byType map[uint64]int
	hash   uint64
}

type pipelineDecider struct {
	cfg       Config
	decisions map[string]pathDecision
	trie      *pathTrie
	nodes     map[string]*pathNode // the paths pass ② walked, and pass ③'s fallbacks
}

func (d *pipelineDecider) arrayDecision(path string, arrays *jsontype.Bag) entropy.Decision {
	if dec, ok := d.decisions[path]; ok && dec.hasArr {
		return dec.arr
	}
	// Unreached in normal operation: fall back to the local heuristic.
	return (&localDecider{cfg: d.cfg}).arrayDecision(path, arrays)
}

func (d *pipelineDecider) objectDecision(path string, objects *jsontype.Bag) entropy.Decision {
	if dec, ok := d.decisions[path]; ok && dec.hasObj {
		return dec.obj
	}
	return (&localDecider{cfg: d.cfg}).objectDecision(path, objects)
}

// node returns the trie node of path: the one pass ② walked, or a new
// root. Pass ② roots a collection's element path; pass ③ roots a path
// pass ② did not reach, possible only when pass ① saw a sample or a
// window of the bag.
func (d *pipelineDecider) node(path string) *pathNode {
	n := d.nodes[path]
	if n == nil {
		n = d.trie.root(path)
		d.nodes[path] = n
	}
	return n
}

func (d *pipelineDecider) partitionObjects(path string, objects *jsontype.Bag) []*jsontype.Bag {
	n := d.node(path)
	return d.partitionWithPlan(n, n.objPlan, objects)
}

func (d *pipelineDecider) partitionArrays(path string, arrays *jsontype.Bag) []*jsontype.Bag {
	n := d.node(path)
	return d.partitionWithPlan(n, n.arrPlan, arrays)
}

func (d *pipelineDecider) partitionWithPlan(n *pathNode, plan *partitionPlan, bag *jsontype.Bag) []*jsontype.Bag {
	if plan == nil {
		// SingleEntity and PerKeySet build no plans; under the clustering
		// strategies a path pass ② did not plan is unreached in normal
		// operation.
		return partitionBag(bag, d.trie, n, d.cfg)
	}
	// Each type is its own set for groupByAssignment; the one-element sets
	// share one backing array.
	count := bag.Distinct()
	assignment, ids, typesBySet := make([]int, count), make([]int, count), make([][]int, count)
	for ti, t := range bag.Types() {
		cluster, ok := plan.byType[t.ID()]
		if !ok {
			// Unreached: pass ③'s bag at a path is a sub-bag of pass ②'s.
			return partitionBag(bag, d.trie, n, d.cfg)
		}
		assignment[ti], ids[ti] = cluster, ti
		typesBySet[ti] = ids[ti : ti+1]
	}
	return groupByAssignment(bag, typesBySet, assignment)
}

// collectPlans is pass ②: walk the data along the pass-① decisions and,
// at every tuple path, precompute the key-set → entity assignment.
func (d *pipelineDecider) collectPlans(n *pathNode, bag *jsontype.Bag) {
	d.nodes[n.path] = n
	_, arrays, objects := bag.SplitKinds()
	if arrays.Len() > 0 {
		if d.arrayDecision(n.path, arrays) == entropy.Collection {
			if elems := arrays.Elements(); elems.Len() > 0 {
				d.collectPlans(d.node(arrayElemPath(n.path)), elems)
			}
		} else {
			n.arrPlan = d.buildPlan(n, jsontype.KindArray, arrays)
			groups, _ := arrays.GroupByIndex()
			for i, g := range groups {
				d.collectPlans(d.trie.position(n, i), g)
			}
		}
	}
	if objects.Len() > 0 {
		if d.objectDecision(n.path, objects) == entropy.Collection {
			if values := objects.FieldValues(); values.Len() > 0 {
				d.collectPlans(d.node(objectValuePath(n.path)), values)
			}
		} else {
			n.objPlan = d.buildPlan(n, jsontype.KindObject, objects)
			keys, groups, _ := objects.GroupByKey()
			for i, key := range keys {
				d.collectPlans(d.trie.key(n, key), groups[i])
			}
		}
	}
}

// buildPlan assigns each distinct feature set of bag, the kind-k values
// at n, to an entity. The plan hash sums one entry per set, mixing the
// sum of its paths' hashes with its entity.
func (d *pipelineDecider) buildPlan(n *pathNode, k jsontype.Kind, bag *jsontype.Bag) *partitionPlan {
	if d.cfg.Partition == SingleEntity || d.cfg.Partition == PerKeySet {
		return nil // no plan needed
	}
	fs := d.trie.featureSets(n, bag)
	assignment := assignClusters(fs.Weighted, len(fs.features), d.cfg)
	plan := &partitionPlan{byType: make(map[uint64]int, bag.Distinct())}
	seed := mix64(n.hash ^ uint64(k))
	for si, cluster := range assignment {
		for _, ti := range fs.typesBySet[si] {
			plan.byType[bag.Types()[ti].ID()] = cluster
		}
		var paths uint64
		fs.Sets[si].Each(func(id int) { paths += mix64(fs.features[id].hash) })
		plan.hash += mix64(seed ^ mix64(paths+uint64(cluster)))
	}
	return plan
}
