// Package core implements JXPLAIN itself (Section 4): the ambiguity-aware
// schema discovery algorithm (Algorithm 4) that decides per instance
// whether complex values encode tuples or collections (via the entropy
// heuristics of Section 5) and how many entities a bag of tuples contains
// (via the Bimax machinery of Section 6).
//
// Two execution strategies are provided: Discover runs the
// straightforward recursive algorithm; Pipeline runs the staged three-pass
// decomposition of Figure 3 (① collection detection, ② partition-strategy
// precomputation, ③ synthesis) that the paper uses to parallelize the
// global heuristics. Both schemas accept every training record; they are
// identical only on single-root-entity data (see Pipeline and DESIGN.md
// §7).
package core

import (
	"jxplain/internal/entropy"
)

// PartitionStrategy selects the multi-entity heuristic applied to bags of
// tuple-like types.
type PartitionStrategy uint8

// The available partitioning strategies.
const (
	// SingleEntity merges every tuple into one entity with optional fields
	// (the K-reduction behavior).
	SingleEntity PartitionStrategy = iota
	// PerKeySet makes one entity per distinct key set (no clustering) —
	// the L-reduction end of the spectrum, modulo value-type merging.
	PerKeySet
	// BimaxNaive clusters key sets with Algorithm 7 only.
	BimaxNaive
	// BimaxMerge clusters with Algorithm 7 and coalesces with the
	// GreedyMerge step (Algorithm 8) — the JXPLAIN default.
	BimaxMerge
	// KMeansStrategy clusters with the k-means baseline (requires KMeansK).
	KMeansStrategy
)

func (p PartitionStrategy) String() string {
	switch p {
	case SingleEntity:
		return "single"
	case PerKeySet:
		return "per-keyset"
	case BimaxNaive:
		return "bimax-naive"
	case BimaxMerge:
		return "bimax-merge"
	case KMeansStrategy:
		return "k-means"
	}
	return "invalid"
}

// Config parameterizes discovery.
type Config struct {
	// Detection configures the Section 5 collection-detection heuristic.
	Detection entropy.Config
	// DetectObjectCollections enables object tuple/collection detection;
	// when false every object bag is treated as tuples (the K-reduction
	// assumption).
	DetectObjectCollections bool
	// DetectArrayTuples enables array tuple/collection detection; when
	// false every array bag is treated as a collection (the K-reduction
	// assumption).
	DetectArrayTuples bool
	// Partition selects the multi-entity heuristic for tuple bags.
	Partition PartitionStrategy
	// KMeansK is the cluster count for KMeansStrategy.
	KMeansK int
	// Seed makes randomized strategies (k-means, detection sampling)
	// deterministic.
	Seed int64
	// DetectionSample, when in (0, 1), makes Pipeline compute the pass-①
	// collection decisions from a uniform sample of the records instead of
	// the full collection — the "entropy approximation" that avoids a full
	// extra pass (§7.4 notes the evaluated system did *not* use it and so
	// paid for a complete second pass; §4.2 observes even a 1% sample is
	// usually almost perfect). 0 or ≥1 means exact detection.
	DetectionSample float64
	// Bounds caps the accumulator's state for unbounded streams. The zero
	// value keeps the exact (memory ∝ distinct structure) behavior.
	Bounds Bounds
}

// Bounds configures the sublinear-memory stream mode: a weighted
// reservoir over distinct record types, a ring of closed sketch windows,
// and exponential decay of the retained counters. Any non-zero bound
// trades exactness for a hard cap — see DESIGN.md "Unbounded streams"
// for the tolerance contract. The zero value is fully exact.
type Bounds struct {
	// ReservoirCapacity, when > 0, replaces the exact union bag with a
	// weighted reservoir (Efraimidis–Spirakis priorities, seeded by
	// Config.Seed) retaining at most this many distinct record types;
	// heavier types survive eviction longer. 0 keeps the exact bag.
	ReservoirCapacity int
	// WindowRecords, when > 0, is the stream's rotation cadence: every
	// WindowRecords record occurrences the accumulator closes the current
	// epoch (pushing it into the window ring, or applying decay when no
	// ring is configured). 0 disables rotation, and with it WindowCount
	// and DecayFactor.
	WindowRecords int
	// WindowCount, when > 0, retains that many closed pass-① sketch
	// windows in a ring; statistics are derived from the retained windows
	// plus the live epoch, so decisions track the recent horizon and trie
	// memory is bounded by the horizon's distinct structure. 0 keeps one
	// cumulative sketch.
	WindowCount int
	// DecayFactor, when in (0, 1), multiplies the reservoir counts — and,
	// when no ring is configured, the live sketch's counters — by this
	// factor at every rotation, compacting subtrees that decay to zero.
	DecayFactor float64
}

// bounded reports whether any stream bound is active.
func (b Bounds) bounded() bool { return b.ReservoirCapacity > 0 || b.WindowRecords > 0 }

// hasDecay reports whether rotation applies exponential decay.
func (b Bounds) hasDecay() bool { return b.DecayFactor > 0 && b.DecayFactor < 1 }

// Default returns the full JXPLAIN configuration used in the paper's
// experiments: entropy threshold 1, both detections enabled, Bimax-Merge
// entity discovery.
func Default() Config {
	return Config{
		Detection:               entropy.DefaultConfig(),
		DetectObjectCollections: true,
		DetectArrayTuples:       true,
		Partition:               BimaxMerge,
	}
}

// BimaxNaiveConfig is the "Bimax Naive" system of the experiments: JXPLAIN
// with the naive Bimax clustering (no GreedyMerge).
func BimaxNaiveConfig() Config {
	cfg := Default()
	cfg.Partition = BimaxNaive
	return cfg
}

// KReduceConfig reproduces the K-reduction within the JXPLAIN framework:
// detection disabled (arrays are always collections, objects always
// tuples) and single-entity merging. Discover with this configuration
// produces the same schema as merge.K.
func KReduceConfig() Config {
	return Config{
		Detection:               entropy.DefaultConfig(),
		DetectObjectCollections: false,
		DetectArrayTuples:       false,
		Partition:               SingleEntity,
	}
}
