package core

import (
	"jxplain/internal/entity"
	"jxplain/internal/entropy"
	"jxplain/internal/jsontype"
)

// Feature-vector preprocessing (§6.4). Entity discovery partitions a bag
// of tuple-like types by the set of *paths* appearing in each record — not
// just its top-level keys — so entities distinguished only by nested
// structure (e.g. GitHub payloads) still separate. Paths descend through
// tuple-like children; by default they stop at nested-collection
// boundaries (the paper's memory optimization, Figure 5), since paths
// inside a collection (drug names, user ids) are record-unique noise that
// explodes the number of distinct feature vectors.

// subtreeDecision answers tuple/collection for a path relative to the
// partition point ("" is the partition point itself).
type subtreeDecision func(rel string, kind jsontype.Kind) entropy.Decision

// featurePaths returns the feature path set of one type rooted at the
// partition point. The type's own kind decision is known to be Tuple
// (that is why it is being partitioned), so extraction starts at its
// children. When pruneNested is false, paths inside nested collections are
// retained verbatim (concrete keys and indices), reproducing the
// unoptimized preprocessing of Figure 5. Discovery itself walks the path
// trie (pathtrie.go), which numbers the same paths without building their
// strings; this string walk is Figure 5's extractor and the trie walk's
// test reference.
func featurePaths(t *jsontype.Type, decide subtreeDecision, pruneNested bool) []string {
	var out []string
	appendChildFeatures(t, "", decide, pruneNested, &out)
	return out
}

func appendChildFeatures(t *jsontype.Type, rel string, decide subtreeDecision, prune bool, out *[]string) {
	switch t.Kind() {
	case jsontype.KindObject:
		for _, f := range t.Fields() {
			p := childKeyPath(rel, f.Key)
			*out = append(*out, p)
			appendFeatures(f.Type, p, decide, prune, out)
		}
	case jsontype.KindArray:
		for i, e := range t.Elems() {
			p := arrayIndexPath(rel, i)
			*out = append(*out, p)
			appendFeatures(e, p, decide, prune, out)
		}
	default:
		// Primitive kinds have no children, hence no child features.
	}
}

func appendFeatures(t *jsontype.Type, rel string, decide subtreeDecision, prune bool, out *[]string) {
	switch t.Kind() {
	case jsontype.KindObject:
		if decide(rel, jsontype.KindObject) == entropy.Collection {
			if prune {
				return
			}
		}
		appendChildFeatures(t, rel, decide, prune, out)
	case jsontype.KindArray:
		if decide(rel, jsontype.KindArray) == entropy.Collection {
			if prune {
				return
			}
		}
		appendChildFeatures(t, rel, decide, prune, out)
	default:
		// Primitives are leaves: their own path was appended by the
		// parent, and there is nothing below to descend into.
	}
}

// subtreeDecisions runs the pass-① walk with paths relative to the bag's
// root ("" is the bag itself), returning the decision map feature
// extraction needs. This is the extra detection pass the recursive
// strategy pays at every partition point (the pipeline reuses pass ①
// instead).
func subtreeDecisions(bag *jsontype.Bag, cfg Config) map[string]pathDecision {
	var stats []PathStat
	collectStats("", bag, cfg, &stats)
	return decisionMap(stats)
}

// decisionLookup adapts a decision map into a subtreeDecision. Paths
// missing from the map default to Tuple, which only affects values never
// observed during the decision walk.
func decisionLookup(decisions map[string]pathDecision) subtreeDecision {
	return func(rel string, kind jsontype.Kind) entropy.Decision {
		d, ok := decisions[rel]
		if !ok {
			return entropy.Tuple
		}
		if kind == jsontype.KindArray {
			if d.hasArr {
				return d.arr
			}
			return entropy.Tuple
		}
		if d.hasObj {
			return d.obj
		}
		return entropy.Tuple
	}
}

// BuildFeatureSet materializes the root collection's feature vectors into
// an entity.FeatureSet — the §6.4 preprocessing output — using the given
// encoding and pruning flag. Exposed for the Figure 5 memory experiment
// and for external inspection of the partitioning input.
func BuildFeatureSet(bag *jsontype.Bag, cfg Config, pruneNested bool, enc entity.Encoding) *entity.FeatureSet {
	decisions := subtreeDecisions(bag, cfg)
	decide := decisionLookup(decisions)
	fs := entity.NewFeatureSet(enc)
	bag.Each(func(t *jsontype.Type, n int) {
		if t.Kind() != jsontype.KindObject && t.Kind() != jsontype.KindArray {
			return
		}
		paths := featurePaths(t, decide, pruneNested)
		fs.AddNamesN(paths, n)
	})
	return fs
}
