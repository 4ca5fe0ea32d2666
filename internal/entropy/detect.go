// Package entropy implements JXPLAIN's collection-detection heuristic
// (Section 5, Algorithm 5): deciding whether a bag of object-kinded (or
// array-kinded) types encodes tuple-like structures or a nested collection.
//
// The decision combines two signals:
//
//  1. The similar-types constraint (§5.2): all nested values across the bag
//     must be pairwise similar (nulls are wildcards; primitives must match
//     exactly; like-kinded complex values must be similar at shared keys).
//     Any dissimilarity marks the bag as tuples. Subsumption lets a single
//     linear scan check this against a running maximal type.
//  2. Key-space entropy (§5.1): E_K = −Σ_k P_k ln P_k, where P_k is the
//     fraction of objects containing key k. Low entropy (stable keys)
//     marks tuples; high entropy (varying keys) marks collections. For
//     arrays (§5.4), E_K is the entropy of the length distribution.
//
// The paper observes the distribution of E_K in the wild is strongly
// bimodal (Figure 4), so the threshold (1, natural log) is not sensitive.
package entropy

import (
	"sort"

	"jxplain/internal/jsontype"
	"jxplain/internal/stats"
)

// Decision is the outcome of collection detection.
type Decision uint8

// The two interpretations of a bag of complex-kinded types.
const (
	Tuple Decision = iota
	Collection
)

func (d Decision) String() string {
	if d == Collection {
		return "collection"
	}
	return "tuple"
}

// Config parameterizes the heuristic.
type Config struct {
	// Threshold is the key-space entropy (natural log) above which
	// self-similar bags are marked collections. The paper uses 1.
	Threshold float64
	// MinRecords suppresses collection detection for bags with fewer
	// records: with a single observed object there is no key variation
	// signal at all. The paper's formulation implies at least 2.
	MinRecords int
}

// DefaultConfig mirrors the paper's experimental setup.
func DefaultConfig() Config { return Config{Threshold: 1.0, MinRecords: 2} }

// Evidence reports the measurements behind a decision, for diagnostics and
// for the Figure 4 histogram.
type Evidence struct {
	// KeyEntropy is E_K: key-presence entropy for objects, length entropy
	// for arrays (natural log).
	KeyEntropy float64
	// Similar reports whether the similar-types constraint held.
	Similar bool
	// Records is the number of types inspected (with multiplicity).
	Records int
	// DistinctKeys is the number of distinct keys (objects) or distinct
	// lengths (arrays) observed.
	DistinctKeys int
}

// DetectObjects classifies a bag of object-kinded types as Tuple or
// Collection (Algorithm 5). Non-object types in the bag are a programming
// error and panic.
func DetectObjects(bag *jsontype.Bag, cfg Config) (Decision, Evidence) {
	var ev Evidence
	ev.Records = bag.Len()

	var sim jsontype.SimilarityAccumulator
	keyCounts := map[string]int{}
	for i, t := range bag.Types() {
		if t.Kind() != jsontype.KindObject {
			panic("entropy: DetectObjects on non-object type " + t.Kind().String())
		}
		n := bag.Count(i)
		for _, f := range t.Fields() {
			keyCounts[f.Key] += n
			sim.Add(f.Type)
		}
	}
	ev.Similar = sim.Similar()
	ev.DistinctKeys = len(keyCounts)

	// Pin key order before summing: FP addition is not associative, so map
	// iteration order would otherwise leak into the entropy bits (and into
	// any output derived from them).
	keys := make([]string, 0, len(keyCounts))
	for k := range keyCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	weights := make([]float64, 0, len(keys))
	for _, k := range keys {
		weights = append(weights, float64(keyCounts[k]))
	}
	ev.KeyEntropy = stats.Entropy(weights, float64(bag.Len()))

	return decide(ev, cfg, bag.Len()), ev
}

// DetectArrays classifies a bag of array-kinded types as Tuple or
// Collection (§5.4): the similar-types constraint applies to elements, and
// key-space entropy is computed over the distribution of array lengths.
func DetectArrays(bag *jsontype.Bag, cfg Config) (Decision, Evidence) {
	var ev Evidence
	ev.Records = bag.Len()

	var sim jsontype.SimilarityAccumulator
	lengthCounts := map[int]int{}
	for i, t := range bag.Types() {
		if t.Kind() != jsontype.KindArray {
			panic("entropy: DetectArrays on non-array type " + t.Kind().String())
		}
		n := bag.Count(i)
		lengthCounts[t.Len()] += n
		for _, e := range t.Elems() {
			sim.Add(e)
		}
	}
	ev.Similar = sim.Similar()
	ev.DistinctKeys = len(lengthCounts)

	lengths := make([]int, 0, len(lengthCounts))
	for l := range lengthCounts {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	weights := make([]float64, 0, len(lengths))
	for _, l := range lengths {
		weights = append(weights, float64(lengthCounts[l]))
	}
	// Length probabilities form a true distribution (they sum to 1).
	ev.KeyEntropy = stats.Entropy(weights, float64(bag.Len()))

	return decide(ev, cfg, bag.Len()), ev
}

// Decide applies the threshold logic of Algorithm 5 to already-computed
// evidence. Exposed so alternative statistics collectors (e.g. the
// mergeable trie behind core.PathSketch) reach exactly the same decisions
// as DetectObjects / DetectArrays.
func Decide(ev Evidence, cfg Config) Decision {
	return decide(ev, cfg, ev.Records)
}

func decide(ev Evidence, cfg Config, records int) Decision {
	if records < cfg.MinRecords {
		return Tuple
	}
	if !ev.Similar {
		return Tuple
	}
	if ev.KeyEntropy <= cfg.Threshold {
		return Tuple
	}
	return Collection
}
