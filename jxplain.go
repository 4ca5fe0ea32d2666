// Package jxplain is a JSON schema discovery library implementing JXPLAIN
// (Spoth et al., "Reducing Ambiguity in Json Schema Discovery", SIGMOD
// 2021): given a collection of JSON records, it infers a precise,
// high-recall collection-level schema by resolving two ambiguities that
// data-independent extractors (Spark's JSON source, Oracle Data Guides,
// Baazizi et al.'s K-reduction) get wrong:
//
//   - whether a JSON object or array encodes a fixed-shape *tuple* or a
//     variable-key *collection* (decided per path by key-space entropy and
//     a type-similarity constraint, Section 5 of the paper), and
//   - how many distinct *entities* a bag of tuple-like records mixes
//     (recovered by Bimax bi-clustering with greedy set-cover merging,
//     Section 6).
//
// Basic use:
//
//	s, err := jxplain.DiscoverJSON(file, jxplain.DefaultConfig())
//	ok := jxplain.Validate(s, []byte(`{"ts":1,"event":"login"}`))
//	doc, _ := jxplain.ToJSONSchema(s) // json-schema.org export
//
// The facade re-exports the pieces most applications need; the full
// machinery (baselines, staged pipeline, experiment harness, synthetic
// datasets) lives in the internal packages and the cmd/ tools.
package jxplain

import (
	"context"
	"io"
	"math/rand"

	"jxplain/internal/core"
	"jxplain/internal/drift"
	"jxplain/internal/jsontype"
	"jxplain/internal/metrics"
	"jxplain/internal/schema"
)

// Type is the structural type of one JSON value.
type Type = jsontype.Type

// Schema denotes a set of admitted structural types.
type Schema = schema.Schema

// Config parameterizes discovery; zero value is not valid, start from
// DefaultConfig.
type Config = core.Config

// DefaultConfig returns the full JXPLAIN configuration (entropy threshold
// 1, collection detection for objects and arrays, Bimax-Merge entity
// discovery).
func DefaultConfig() Config { return core.Default() }

// KReduceConfig reproduces the K-reduction baseline (arrays are always
// collections, objects always single-entity tuples) — the behavior of
// production systems like Spark's JSON data source.
func KReduceConfig() Config { return core.KReduceConfig() }

// TypeOf parses one JSON document into its structural type.
func TypeOf(doc []byte) (*Type, error) { return jsontype.FromJSON(doc) }

// TypeOfValue derives the structural type of a decoded JSON value
// (as produced by encoding/json: nil, bool, float64, string, []any,
// map[string]any).
func TypeOfValue(v any) (*Type, error) { return jsontype.FromValue(v) }

// Discover infers a schema from structural types using the staged
// three-pass JXPLAIN pipeline and simplifies the result.
func Discover(types []*Type, cfg Config) Schema {
	return schema.Simplify(core.PipelineTypes(types, cfg))
}

// DiscoverJSON reads a stream of JSON documents (JSONL or concatenated)
// and infers their collection schema. It streams: records are decoded in
// bounded chunks and folded into mergeable sketches, so memory tracks the
// stream's distinct structure rather than its record count.
func DiscoverJSON(r io.Reader, cfg Config) (Schema, error) {
	return DiscoverStreamOpts(context.Background(), r, cfg, StreamOptions{})
}

// IterativeDiscover derives a schema from a small seed sample and grows
// the sample with validation failures until the schema covers every
// record (§4.2 of the paper) — the economical way to run JXPLAIN on large
// collections.
func IterativeDiscover(types []*Type, cfg Config, seedFraction float64, maxRounds int, seed int64) (Schema, core.IterativeReport) {
	s, report := core.IterativeDiscover(types, cfg, seedFraction, maxRounds, seed)
	return schema.Simplify(s), report
}

// Validate reports whether a JSON document conforms to the schema.
// Malformed JSON is reported as non-conforming with the error.
func Validate(s Schema, doc []byte) (bool, error) {
	t, err := jsontype.FromJSON(doc)
	if err != nil {
		return false, err
	}
	return s.Accepts(t), nil
}

// ValidateType reports whether a structural type conforms to the schema.
func ValidateType(s Schema, t *Type) bool { return s.Accepts(t) }

// Recall returns the fraction of the given types admitted by the schema.
func Recall(s Schema, types []*Type) float64 { return metrics.Recall(s, types) }

// SchemaEntropy returns the log2 number of structural types the schema
// admits — the paper's precision proxy (lower, with equal recall, means a
// more precise schema).
func SchemaEntropy(s Schema) float64 { return metrics.SchemaEntropy(s) }

// Entities returns the number of tuple nodes (distinct record layouts) in
// the schema — the paper's entity count.
func Entities(s Schema) int { return schema.Entities(s) }

// ToJSONSchema exports the schema as a json-schema.org (draft-07) document.
func ToJSONSchema(s Schema) ([]byte, error) { return schema.MarshalJSONSchema(s) }

// MarshalSchema serializes the schema in the native round-trip encoding.
func MarshalSchema(s Schema) ([]byte, error) { return schema.Marshal(s) }

// UnmarshalSchema parses the native encoding produced by MarshalSchema.
func UnmarshalSchema(data []byte) (Schema, error) { return schema.Unmarshal(data) }

// EditsToFullRecall returns the greedy upper bound on the number of schema
// edits needed for s to accept every given type (§7.5), with the edits.
func EditsToFullRecall(s Schema, types []*Type) (int, []metrics.Edit) {
	return metrics.EditsToFullRecall(s, types)
}

// Bounds caps a stream discoverer's memory over unbounded streams: a
// weighted reservoir over distinct record types, a ring of windowed
// pass-① statistics, and exponential decay of retained counters. Set it
// on Config.Bounds (or via StreamOptions). The zero value is fully exact.
type Bounds = core.Bounds

// WindowDriftMonitor diffs the pass-① statistics of consecutive stream
// windows and reports structural movement (paths added or retired,
// tuple/collection rulings flipped) — the shape-level complement of
// DriftMonitor for bounded streams. See also Discoverer.OnWindowDrift.
type WindowDriftMonitor = drift.WindowMonitor

// WindowDriftEvent describes structural movement at one closed window.
type WindowDriftEvent = drift.WindowEvent

// NewWindowDriftMonitor returns a monitor deriving window statistics
// under cfg.
func NewWindowDriftMonitor(cfg Config) *WindowDriftMonitor {
	return drift.NewWindowMonitor(cfg)
}

// DriftMonitor validates a record stream against a baseline schema in
// windows and raises alerts when the structure of arriving data changes —
// the paper's §1 monitoring scenario.
type DriftMonitor = drift.Monitor

// DriftConfig parameterizes a DriftMonitor.
type DriftConfig = drift.Config

// DriftAlert describes detected structural drift.
type DriftAlert = drift.Alert

// NewDriftMonitor returns a monitor enforcing the baseline schema.
func NewDriftMonitor(baseline Schema, cfg DriftConfig) *DriftMonitor {
	return drift.NewMonitor(baseline, cfg)
}

// DiffSchemas reports the field paths added and removed between two
// schemas (e.g. a stale baseline and a re-learned one).
func DiffSchemas(old, new Schema) []drift.Change { return drift.Diff(old, new) }

// FuseSchemas combines two schemas into one admitting everything either
// admits, without re-reading data — the incremental-maintenance
// counterpart to full rediscovery. Same-key-set entities merge fieldwise;
// distinct entities stay partitioned.
func FuseSchemas(a, b Schema) Schema { return schema.Fuse(a, b) }

// SampleValue draws a random decoded JSON value conforming to the schema
// (placeholder leaf values) — synthetic test data for a discovered
// schema. ok is false when the schema admits no types.
func SampleValue(s Schema, seed int64) (v any, ok bool) {
	return schema.SampleValue(s, rand.New(rand.NewSource(seed)))
}
