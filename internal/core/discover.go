package core

import (
	"strconv"
	"strings"

	"jxplain/internal/entity"
	"jxplain/internal/entropy"
	"jxplain/internal/jsontype"
	"jxplain/internal/merge"
	"jxplain/internal/schema"
)

// Discover runs JXPLAIN's merge (Algorithm 4) over a bag of record types
// and returns the discovered schema. This is the recursive ("naive
// implementation", §4.1) strategy: every nested bag is inspected with full
// visibility of the collection, so the global heuristics apply exactly.
func Discover(bag *jsontype.Bag, cfg Config) schema.Schema {
	s := &synthesizer{dec: &localDecider{cfg: cfg}}
	return s.merge(RootPath, bag)
}

// DiscoverTypes is Discover over a slice of record types.
func DiscoverTypes(types []*jsontype.Type, cfg Config) schema.Schema {
	return Discover(bagOf(types), cfg)
}

func bagOf(types []*jsontype.Type) *jsontype.Bag {
	bag := &jsontype.Bag{}
	for _, t := range types {
		bag.Add(t)
	}
	return bag
}

// RootPath is the path string of the root collection.
const RootPath = "$"

// Path-string construction. Paths identify where a bag of values sits in
// the record structure: object keys append ".key", collection elements
// append "[*]" (arrays) or ".{*}" (objects), and tuple-array positions
// append "[i]". Pass ① of the pipeline keys its decisions by these paths,
// so keys containing path-structural characters are escaped — without
// this, the records {"a.b": x} and {"a": {"b": x}} would alias one path.

func childKeyPath(path, key string) string { return path + "." + escapePathKey(key) }
func arrayElemPath(path string) string     { return path + "[*]" }
func objectValuePath(path string) string   { return path + ".{*}" }
func arrayIndexPath(path string, i int) string {
	return path + "[" + strconv.Itoa(i) + "]"
}

func escapePathKey(key string) string {
	if !strings.ContainsAny(key, `.[\{`) {
		return key
	}
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		switch c := key[i]; c {
		case '.', '[', '\\', '{':
			b.WriteByte('\\')
			b.WriteByte(c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// decider answers Algorithm 4's two questions — collection or tuple? and
// how do tuples partition into entities? — for the bag of values observed
// at one path. The recursive strategy computes answers on the spot; the
// staged pipeline precomputes them in passes ① and ②.
type decider interface {
	arrayDecision(path string, arrays *jsontype.Bag) entropy.Decision
	objectDecision(path string, objects *jsontype.Bag) entropy.Decision
	partitionObjects(path string, objects *jsontype.Bag) []*jsontype.Bag
	partitionArrays(path string, arrays *jsontype.Bag) []*jsontype.Bag
}

// synthesizer is the shared schema-construction engine (pass ③): it walks
// bags top-down, consults the decider, and assembles the schema grammar.
// A non-nil memo caches subtree results across Finish calls, keyed by
// (path, bag content hash).
type synthesizer struct {
	dec  decider
	memo *mergeMemo
}

func (s *synthesizer) merge(path string, bag *jsontype.Bag) schema.Schema {
	if s.memo == nil {
		return s.mergeUncached(path, bag)
	}
	key := memoKey{path: path, bag: bagContentHash(bag)}
	out, ok := s.memo.cur[key]
	if !ok {
		out, ok = s.memo.prev[key]
	}
	if !ok {
		out, s.memo.created = s.mergeUncached(path, bag), true
	}
	s.memo.cur[key] = out
	return out
}

func (s *synthesizer) mergeUncached(path string, bag *jsontype.Bag) schema.Schema {
	prims, arrays, objects := bag.SplitKinds()
	alts := merge.Primitives(prims)

	if arrays.Len() > 0 {
		if s.dec.arrayDecision(path, arrays) == entropy.Collection {
			alts = append(alts, s.mergeArrayColl(path, arrays))
		} else {
			for _, part := range s.dec.partitionArrays(path, arrays) {
				alts = append(alts, s.mergeArrayTuple(path, part))
			}
		}
	}
	if objects.Len() > 0 {
		if s.dec.objectDecision(path, objects) == entropy.Collection {
			alts = append(alts, s.mergeObjectColl(path, objects))
		} else {
			for _, part := range s.dec.partitionObjects(path, objects) {
				alts = append(alts, s.mergeObjectTuple(path, part))
			}
		}
	}
	return schema.NewUnion(alts...)
}

// mergeArrayColl is Algorithm 2 with path threading.
func (s *synthesizer) mergeArrayColl(path string, bag *jsontype.Bag) schema.Schema {
	maxLen := 0
	for _, t := range bag.Types() {
		if t.Len() > maxLen {
			maxLen = t.Len()
		}
	}
	elem := schema.Empty()
	if elems := bag.Elements(); elems.Len() > 0 {
		elem = s.merge(arrayElemPath(path), elems)
	}
	return &schema.ArrayCollection{Elem: elem, MaxLen: maxLen}
}

// mergeObjectColl is the object analog of Algorithm 2 with path threading.
func (s *synthesizer) mergeObjectColl(path string, bag *jsontype.Bag) schema.Schema {
	domain := map[string]bool{}
	for _, t := range bag.Types() {
		for _, f := range t.Fields() {
			domain[f.Key] = true
		}
	}
	value := schema.Empty()
	if values := bag.FieldValues(); values.Len() > 0 {
		value = s.merge(objectValuePath(path), values)
	}
	return &schema.ObjectCollection{Value: value, Domain: len(domain)}
}

// mergeObjectTuple is Algorithm 3 with path threading.
func (s *synthesizer) mergeObjectTuple(path string, bag *jsontype.Bag) schema.Schema {
	keys, groups, present := bag.GroupByKey()
	total := bag.Len()
	var required, optional []schema.FieldSchema
	for i, key := range keys {
		f := schema.FieldSchema{Key: key, Schema: s.merge(childKeyPath(path, key), groups[i])}
		if present[i] == total {
			required = append(required, f)
		} else {
			optional = append(optional, f)
		}
	}
	return schema.NewObjectTuple(required, optional)
}

// mergeArrayTuple is the array analog of Algorithm 3 with path threading.
func (s *synthesizer) mergeArrayTuple(path string, bag *jsontype.Bag) schema.Schema {
	groups, _ := bag.GroupByIndex()
	minLen := -1
	for _, t := range bag.Types() {
		if minLen < 0 || t.Len() < minLen {
			minLen = t.Len()
		}
	}
	if minLen < 0 {
		minLen = 0
	}
	elems := make([]schema.Schema, len(groups))
	for i, g := range groups {
		elems[i] = s.merge(arrayIndexPath(path, i), g)
	}
	return &schema.ArrayTuple{Elems: elems, MinLen: minLen}
}

// localDecider answers on the spot from the bag at hand — the recursive
// strategy of §4.1.
type localDecider struct {
	cfg Config
}

func (d *localDecider) arrayDecision(_ string, arrays *jsontype.Bag) entropy.Decision {
	if !d.cfg.DetectArrayTuples {
		return entropy.Collection
	}
	decision, _ := entropy.DetectArrays(arrays, d.cfg.Detection)
	return decision
}

func (d *localDecider) objectDecision(_ string, objects *jsontype.Bag) entropy.Decision {
	if !d.cfg.DetectObjectCollections {
		return entropy.Tuple
	}
	decision, _ := entropy.DetectObjects(objects, d.cfg.Detection)
	return decision
}

func (d *localDecider) partitionObjects(_ string, objects *jsontype.Bag) []*jsontype.Bag {
	return d.partition(objects)
}

func (d *localDecider) partitionArrays(_ string, arrays *jsontype.Bag) []*jsontype.Bag {
	return d.partition(arrays)
}

// partition splits a bag by the §6.4 deep path sets of its types,
// truncated at nested collection boundaries. The recursive strategy
// determines those boundaries with an extra detection walk over the bag —
// the "full second pass" overhead the paper attributes to JXPLAIN — so
// its feature trie is rooted at "" over that walk's decisions.
func (d *localDecider) partition(bag *jsontype.Bag) []*jsontype.Bag {
	tr := &pathTrie{decisions: subtreeDecisions(bag, d.cfg)}
	return partitionBag(bag, tr, tr.root(""), d.cfg)
}

// partitionBag splits a bag of tuple-like types at trie node n into entity
// bags according to the configured strategy. Partitioning operates on the
// distinct feature sets appearing in the bag (Section 6); all types
// sharing a set land in the same entity.
func partitionBag(bag *jsontype.Bag, tr *pathTrie, n *pathNode, cfg Config) []*jsontype.Bag {
	if cfg.Partition == SingleEntity {
		return []*jsontype.Bag{bag}
	}
	fs := tr.featureSets(n, bag)
	return groupByAssignment(bag, fs.typesBySet, assignClusters(fs.Weighted, len(fs.features), cfg))
}

// assignClusters maps each distinct key set, over ids 0..features-1, to a
// cluster id under the configured strategy; PerKeySet gives each set its
// own, in first-seen order. Weights ride along for per-entity statistics;
// no strategy's clustering decisions depend on them (entity discovery is
// multiplicity-blind, §6.4).
func assignClusters(w entity.Weighted, features int, cfg Config) []int {
	assignment := make([]int, len(w.Sets))
	switch cfg.Partition {
	case PerKeySet:
		for i := range assignment {
			assignment[i] = i
		}
	case BimaxNaive, BimaxMerge:
		clusters := entity.DiscoverEntities(w, cfg.Partition == BimaxMerge)
		for ci, c := range clusters {
			for _, m := range c.Members {
				assignment[m] = ci
			}
		}
	case KMeansStrategy:
		k := cfg.KMeansK
		if k <= 0 {
			k = 1
		}
		assignment = entity.KMeans(w.Sets, features, k, cfg.Seed, 100)
	}
	return assignment
}

// groupByAssignment materializes entity bags from a cluster assignment
// over distinct key sets. Every type of bag belongs to one set, so each
// entity bag is a sub-bag of bag and its types are appended without a
// second deduplication.
func groupByAssignment(bag *jsontype.Bag, typesBySet [][]int, assignment []int) []*jsontype.Bag {
	nClusters := 0
	for _, c := range assignment {
		if c+1 > nClusters {
			nClusters = c + 1
		}
	}
	parts := make([]*jsontype.Bag, nClusters)
	for si, cluster := range assignment {
		if parts[cluster] == nil {
			parts[cluster] = &jsontype.Bag{}
		}
		for _, ti := range typesBySet[si] {
			parts[cluster].AddDistinct(bag.Types()[ti], bag.Count(ti))
		}
	}
	out := parts[:0]
	for _, p := range parts {
		if p != nil && p.Len() > 0 {
			out = append(out, p)
		}
	}
	return out
}
