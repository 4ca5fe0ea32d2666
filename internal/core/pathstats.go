package core

import (
	"sort"

	"jxplain/internal/entropy"
	"jxplain/internal/jsontype"
)

// PathStat records the collection-detection evidence for the bag of
// complex-kinded values observed at one path — one row of pass ① (Figure 3)
// and one point of the Figure 4 entropy distribution.
type PathStat struct {
	// Path is the path string ("$", "$.user.geo", "$.files[*]", …).
	Path string
	// Kind is jsontype.KindObject or jsontype.KindArray.
	Kind jsontype.Kind
	// Decision is the heuristic's tuple/collection call at this path.
	Decision entropy.Decision
	// Evidence carries the measured key-space entropy and similarity.
	Evidence entropy.Evidence
}

// CollectPathStats runs pass ① of the staged pipeline: a single top-down
// walk grouping values by path and applying the Section 5 heuristic at
// every complex-kinded path. Descent follows the decisions: below a
// detected collection all elements share one wildcard path; below tuples
// each key (or index) gets its own path. Results are sorted by path.
//
// PathSketch.Stats derives the same rows from a mergeable trie. The two
// are kept side by side on purpose: the trie is what exact streaming,
// windows and the wire format need, while this one-shot walk is cheaper
// for a bag seen once — sampled detection here, and the per-partition
// decisions of the recursive Discover (subtreeDecisions).
func CollectPathStats(bag *jsontype.Bag, cfg Config) []PathStat {
	var out []PathStat
	collectStats(RootPath, bag, cfg, &out)
	sortPathStats(out)
	return out
}

// sortPathStats orders pass-① rows by path, then kind — the order both
// the walk and the trie derivation report.
func sortPathStats(out []PathStat) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return out[i].Kind < out[j].Kind
	})
}

func collectStats(path string, bag *jsontype.Bag, cfg Config, out *[]PathStat) {
	_, arrays, objects := bag.SplitKinds()

	if arrays.Len() > 0 {
		decision, ev := entropy.DetectArrays(arrays, cfg.Detection)
		if !cfg.DetectArrayTuples {
			decision = entropy.Collection
		}
		*out = append(*out, PathStat{Path: path, Kind: jsontype.KindArray, Decision: decision, Evidence: ev})
		if decision == entropy.Collection {
			if elems := arrays.Elements(); elems.Len() > 0 {
				collectStats(arrayElemPath(path), elems, cfg, out)
			}
		} else {
			groups, _ := arrays.GroupByIndex()
			for i, g := range groups {
				collectStats(arrayIndexPath(path, i), g, cfg, out)
			}
		}
	}

	if objects.Len() > 0 {
		decision, ev := entropy.DetectObjects(objects, cfg.Detection)
		if !cfg.DetectObjectCollections {
			decision = entropy.Tuple
		}
		*out = append(*out, PathStat{Path: path, Kind: jsontype.KindObject, Decision: decision, Evidence: ev})
		if decision == entropy.Collection {
			if values := objects.FieldValues(); values.Len() > 0 {
				collectStats(objectValuePath(path), values, cfg, out)
			}
		} else {
			keys, groups, _ := objects.GroupByKey()
			for i, key := range keys {
				collectStats(childKeyPath(path, key), groups[i], cfg, out)
			}
		}
	}
}
