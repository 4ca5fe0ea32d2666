package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"jxplain/internal/dataset"
	"jxplain/internal/jsontype"
)

// FuzzSketchDecode pins the wire decoder's totality contract: arbitrary
// bytes — truncated, bit-flipped, or adversarially constructed — must
// yield a *SketchFormatError or *SketchVersionError, never a panic, and
// anything that does decode must survive the operations the reducer will
// perform on it (Stats, Finish, re-marshal). The accumulator entry points
// must also agree on every input: UnmarshalAccumulator and MergeSketch
// into a fresh accumulator succeed or fail together and marshal to the
// same bytes.
func FuzzSketchDecode(f *testing.F) {
	// Real sketch files as seeds: a full accumulator, a bag-only file
	// (sampling map side), and a bare sketch, over structurally rich data.
	cfg := Default()
	g, ok := dataset.ByName("github")
	if !ok {
		f.Fatal("github dataset missing")
	}
	acc := NewAccumulator(cfg)
	for _, r := range g.Generate(40, 1) {
		acc.Add(r.Type)
	}
	if data, err := acc.Marshal(); err == nil {
		f.Add(data)
		// Single-bit corruptions of a valid file make productive seeds.
		for _, i := range []int{4, 5, 6, len(data) / 2, len(data) - 1} {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0x40
			f.Add(bad)
		}
	}
	sampling := cfg
	sampling.DetectionSample = 0.5
	bagOnly := NewAccumulator(sampling)
	bagOnly.Add(jsontype.MustFromValue(map[string]any{"k": []any{1.0, "s", nil}}))
	if data, err := bagOnly.Marshal(); err == nil {
		f.Add(data)
	}
	// A bounded-mode accumulator: the weighted reservoir replaces the
	// exact bag, so its snapshot marshals a bag-only file whose counts
	// passed through eviction — a seed shape the exact accumulators above
	// never produce.
	bounded := cfg
	bounded.Bounds = Bounds{ReservoirCapacity: 4}
	res := NewAccumulator(bounded)
	for _, r := range g.Generate(24, 7) {
		res.Add(r.Type)
	}
	if data, err := res.Marshal(); err == nil {
		f.Add(data)
	}
	s := NewPathSketch()
	s.Add(jsontype.MustFromValue(map[string]any{"a": map[string]any{"b": []any{true}}}))
	if data, err := s.Marshal(); err == nil {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("JXSK"))
	f.Add([]byte{'J', 'X', 'S', 'K', SketchFormatVersion, 0xff})
	// One level past jsontype.MaxDepth: the accumulator file fails in its
	// type table, the bare sketch in its trie. The files at the bound
	// itself decode, and Finish on them takes seconds, too slow for a seed.
	deepSketch, deepAcc := nestedFiles(f, jsontype.MaxDepth+1)
	f.Add(deepSketch)
	f.Add(deepAcc)

	f.Fuzz(func(t *testing.T, data []byte) {
		checkErr := func(err error) {
			if err == nil {
				return
			}
			var ferr *SketchFormatError
			var verr *SketchVersionError
			if !errors.As(err, &ferr) && !errors.As(err, &verr) {
				t.Fatalf("untyped decode error %T: %v", err, err)
			}
		}

		sketch, err := UnmarshalPathSketch(data)
		checkErr(err)
		if err == nil {
			// A decoded sketch must be fully usable.
			sketch.Stats(Default())
			if _, err := sketch.Marshal(); err != nil {
				t.Fatalf("re-marshal of decoded sketch: %v", err)
			}
		}

		acc, err := UnmarshalAccumulator(data, Default())
		checkErr(err)
		merged := NewAccumulator(Default())
		mergeErr := merged.MergeSketch(data)
		checkErr(mergeErr)
		if (err == nil) != (mergeErr == nil) {
			t.Fatalf("UnmarshalAccumulator and MergeSketch disagree: %v vs %v", err, mergeErr)
		}
		if err == nil {
			want, err := acc.Marshal()
			if err != nil {
				t.Fatalf("re-marshal of decoded accumulator: %v", err)
			}
			if got, err := merged.Marshal(); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("UnmarshalAccumulator and MergeSketch marshal differently (%v)", err)
			}
			acc.Stats()
			acc.Finish()
		}
	})
}

// FuzzSketchMerge pins the reduce-side contracts on arbitrary byte pairs:
// MergeSketch never panics (its merge-into decoder yields only the typed
// decode errors), and whenever a pair of files merges cleanly, the
// parallel tree reduce produces byte-identical accumulator state to the
// sequential fold.
func FuzzSketchMerge(f *testing.F) {
	cfg := Default()
	mkSeed := func(name string, n int) []byte {
		g, ok := dataset.ByName(name)
		if !ok {
			f.Fatalf("dataset %s missing", name)
		}
		acc := NewAccumulator(cfg)
		for _, r := range g.Generate(n, 1) {
			acc.Add(r.Type)
		}
		data, err := acc.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	a := mkSeed("github", 30)
	b := mkSeed("yelp-business", 30)
	f.Add(a, b)
	f.Add(b, a)
	// Truncations and single-bit corruptions of valid pairs.
	f.Add(a[:len(a)/2], b)
	f.Add(a, b[:5])
	for _, i := range []int{4, 6, len(a) / 2, len(a) - 1} {
		bad := append([]byte(nil), a...)
		bad[i] ^= 0x40
		f.Add(bad, b)
	}
	f.Add([]byte{}, []byte("JXSK"))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkErr := func(err error) {
			if err == nil {
				return
			}
			var ferr *SketchFormatError
			var verr *SketchVersionError
			if !errors.As(err, &ferr) && !errors.As(err, &verr) {
				t.Fatalf("untyped merge error %T: %v", err, err)
			}
		}

		seq := NewAccumulator(cfg)
		errA := seq.MergeSketch(a)
		checkErr(errA)
		if errA != nil {
			return // the accumulator is poisoned by contract; stop here
		}
		errB := seq.MergeSketch(b)
		checkErr(errB)
		if errB != nil {
			return
		}

		seqBytes, err := seq.Marshal()
		if err != nil {
			t.Fatalf("re-marshal of merged accumulator: %v", err)
		}
		tree, err := ReduceSketches([][]byte{a, b}, cfg, 2)
		if err != nil {
			t.Fatalf("tree reduce rejects files the sequential fold accepted: %v", err)
		}
		treeBytes, err := tree.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(treeBytes, seqBytes) {
			t.Fatal("tree merge diverges from sequential merge bytes")
		}
	})
}

// FuzzReservoirVsExact pins the bounded accumulator's exact-regime
// contract against the exact Bag oracle: for any record stream, a
// reservoir whose capacity covers every distinct type (and no window or
// decay bound) must be indistinguishable from the exact accumulator —
// identical totals and byte-identical schema. The input is a JSONL
// stream; unparseable lines are skipped, so the fuzzer explores record
// multisets, duplicates, and orderings rather than JSON syntax (the
// decoders have their own fuzz targets).
func FuzzReservoirVsExact(f *testing.F) {
	f.Add([]byte("{\"a\":1}\n{\"b\":\"x\"}\n{\"a\":1}"))
	f.Add([]byte("[1,2,3]\n[\"s\"]\n{\"nested\":{\"k\":[true,null]}}"))
	f.Add([]byte("1\n\"s\"\nnull\ntrue\n{\"a\":{\"b\":{\"c\":1}}}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var types []*jsontype.Type
		for _, line := range bytes.Split(data, []byte("\n")) {
			var v any
			if json.Unmarshal(line, &v) != nil {
				continue
			}
			ty, err := jsontype.FromValue(v)
			if err != nil {
				continue
			}
			types = append(types, ty)
		}
		if len(types) == 0 {
			return
		}
		cfg := Default()
		cfg.Bounds.ReservoirCapacity = len(types) // ≥ distinct by construction
		exact := NewAccumulator(Default())
		bounded := NewAccumulator(cfg)
		for _, ty := range types {
			exact.Add(ty)
			bounded.Add(ty)
		}
		if bounded.Records() != exact.Records() || bounded.Distinct() != exact.Distinct() {
			t.Fatalf("totals diverge: bounded (%d, %d) vs exact (%d, %d)",
				bounded.Records(), bounded.Distinct(), exact.Records(), exact.Distinct())
		}
		if r := bounded.Reservoir(); r.Evictions() != 0 || r.Dropped() != 0 {
			t.Fatalf("eviction in the covered regime: evictions=%d dropped=%d",
				r.Evictions(), r.Dropped())
		}
		eb, bb := schemaBytes(t, exact.Finish()), schemaBytes(t, bounded.Finish())
		if !bytes.Equal(eb, bb) {
			t.Fatal("covered reservoir diverges from exact Bag schema bytes")
		}
	})
}
