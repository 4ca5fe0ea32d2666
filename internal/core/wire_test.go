package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"jxplain/internal/dataset"
	"jxplain/internal/jsontype"
	"jxplain/internal/schema"
)

// wireSampleAccumulator folds a slice of the named dataset into a fresh
// accumulator.
func wireSampleAccumulator(t *testing.T, name string, n int, cfg Config) *Accumulator {
	t.Helper()
	g, ok := dataset.ByName(name)
	if !ok {
		t.Fatalf("no dataset %q", name)
	}
	acc := NewAccumulator(cfg)
	for _, r := range g.Generate(n, 1) {
		acc.Add(r.Type)
	}
	return acc
}

func schemaBytes(t *testing.T, s schema.Schema) []byte {
	t.Helper()
	data, err := schema.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPathSketchWireRoundTrip pins the tentpole property on every dataset:
// Unmarshal(Marshal(s)) is observationally equal to s — identical Stats —
// and stays equal as more records fold into both.
func TestPathSketchWireRoundTrip(t *testing.T) {
	for _, g := range dataset.Registry() {
		records := g.Generate(120, 1)
		s := NewPathSketch()
		for _, r := range records[:100] {
			s.Add(r.Type)
		}
		data, err := s.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		got, err := UnmarshalPathSketch(data)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		requireSameSketch(t, s, got)

		// The decoded sketch must keep folding exactly like the original.
		for _, r := range records[100:] {
			s.Add(r.Type)
			got.Add(r.Type)
		}
		requireSameSketch(t, s, got)

		// And marshal canonically: same state, same bytes.
		re, err := got.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if !bytes.Equal(re, mustMarshalSketch(t, s)) {
			t.Errorf("%s: re-marshal of decoded sketch diverges", g.Name)
		}
	}
}

// TestSketchNodesOnlyForObjectsAndArrays pins the trie's shape: a node
// per object or array path and none for a primitive, whose occurrences
// its parent already counts. A 1,000-record churn window holds the root,
// the service tuple's object and array paths (service, flags, limits) and
// three per session key (the session object, geo and tags). On every
// generator the node count survives the wire, both decoded and merged
// into an empty accumulator.
func TestSketchNodesOnlyForObjectsAndArrays(t *testing.T) {
	window := NewPathSketch()
	for i := 0; i < 1000; i++ {
		window.Add(churnRec(t, i))
	}
	if got, want := window.Nodes(), 1+3+3*1000; got != want {
		t.Errorf("churn window: %d trie nodes, want %d", got, want)
	}
	for _, g := range append(dataset.Registry(), dataset.WideRegistry()...) {
		s := NewPathSketch()
		acc := NewAccumulator(Default())
		for _, r := range g.Generate(200, 1) {
			s.Add(r.Type)
			acc.Add(r.Type)
		}
		decoded, err := UnmarshalPathSketch(mustMarshalSketch(t, s))
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if decoded.Nodes() != s.Nodes() {
			t.Errorf("%s: decoded sketch has %d nodes, want %d", g.Name, decoded.Nodes(), s.Nodes())
		}
		data, err := acc.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		merged := NewAccumulator(Default())
		if err := merged.MergeSketch(data); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if merged.SketchNodes() != acc.SketchNodes() {
			t.Errorf("%s: merged sketch has %d nodes, want %d", g.Name, merged.SketchNodes(), acc.SketchNodes())
		}
	}
}

// TestSketchDecodesEmptyPrimitiveNodes pins the compatibility of files
// written when primitive values still had trie nodes: each such node is an
// empty node on the wire. Both decoders must drop them, leaving the trie
// (and the bytes it re-marshals to) that folding the records gives today.
func TestSketchDecodesEmptyPrimitiveNodes(t *testing.T) {
	// Accumulator.Marshal of {"a":1,"b":[1,{"c":true},"x"]} and
	// {"a":"s","b":[null]}, written with a node for each of a, b[0],
	// b[1].c and b[2].
	old, err := hex.DecodeString("4a58534b01034b0703016101620163541e05050101630204030305040502016103016206040101050201610401620842050207010901533e0202010300000000000000020202000200000000000100020201010301020003000000000101040000000000000001010200010200000000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	acc := NewAccumulator(Default())
	for _, doc := range []string{`{"a":1,"b":[1,{"c":true},"x"]}`, `{"a":"s","b":[null]}`} {
		acc.Add(ty(t, doc))
	}
	want, err := acc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalAccumulator(old, Default())
	if err != nil {
		t.Fatal(err)
	}
	merged := NewAccumulator(Default())
	if err := merged.MergeSketch(old); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Accumulator{"decoded": decoded, "merged": merged} {
		// The root, b and b[1].
		if n := got.SketchNodes(); n != 3 {
			t.Errorf("%s: %d trie nodes, want 3", name, n)
		}
		if !reflect.DeepEqual(got.Stats(), acc.Stats()) {
			t.Errorf("%s: stats diverge from a fresh fold", name)
		}
		data, err := got.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s: re-marshal diverges from a fresh fold", name)
		}
	}
}

func mustMarshalSketch(t *testing.T, s *PathSketch) []byte {
	t.Helper()
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAccumulatorWireRoundTrip checks the full accumulator round trip on
// every dataset: the resumed accumulator synthesizes a byte-identical
// schema and reports identical stats.
func TestAccumulatorWireRoundTrip(t *testing.T) {
	cfg := Default()
	for _, g := range dataset.Registry() {
		acc := NewAccumulator(cfg)
		for _, r := range g.Generate(150, 1) {
			acc.Add(r.Type)
		}
		data, err := acc.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		got, err := UnmarshalAccumulator(data, cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if got.Records() != acc.Records() || got.Distinct() != acc.Distinct() {
			t.Fatalf("%s: counts diverge: %d/%d vs %d/%d",
				g.Name, got.Records(), got.Distinct(), acc.Records(), acc.Distinct())
		}
		if !reflect.DeepEqual(got.Stats(), acc.Stats()) {
			t.Fatalf("%s: stats diverge after round trip", g.Name)
		}
		want := schemaBytes(t, acc.Finish())
		if have := schemaBytes(t, got.Finish()); !bytes.Equal(have, want) {
			t.Errorf("%s: schema diverges after round trip\ngot:  %s\nwant: %s", g.Name, have, want)
		}
	}
}

// TestAccumulatorWireSamplingConfigs covers the sketch-absent corners: a
// sampling map side writes no trie (reducer refolds the bag), and a
// sampling reduce side ignores a present trie — both matching what an
// in-process accumulator with that configuration would hold.
func TestAccumulatorWireSamplingConfigs(t *testing.T) {
	sampling := Default()
	sampling.DetectionSample = 0.5

	// Map side sampled: no trie section on the wire.
	mapAcc := wireSampleAccumulator(t, "github", 100, sampling)
	data, err := mapAcc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	full, err := UnmarshalAccumulator(data, Default())
	if err != nil {
		t.Fatal(err)
	}
	ref := NewAccumulator(Default())
	ref.AddBag(mapAcc.bag)
	if !reflect.DeepEqual(full.Stats(), ref.Stats()) {
		t.Error("bag-only sketch file: rebuilt sketch diverges from refold")
	}

	// Reduce side sampled: trie present on the wire but unused.
	fullAcc := wireSampleAccumulator(t, "github", 100, Default())
	data, err = fullAcc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := UnmarshalAccumulator(data, sampling)
	if err != nil {
		t.Fatal(err)
	}
	refSampled := NewAccumulator(sampling)
	refSampled.AddBag(fullAcc.bag)
	if !reflect.DeepEqual(sampled.Stats(), refSampled.Stats()) {
		t.Error("sampling config: decoded accumulator diverges from refold")
	}
}

// TestAccumulatorMergeSketchEquivalence pins the reduce step: merging a
// *serialized* accumulator is equivalent to merging the in-memory one.
func TestAccumulatorMergeSketchEquivalence(t *testing.T) {
	cfg := Default()
	g, _ := dataset.ByName("yelp-business")
	records := g.Generate(200, 1)

	mkAcc := func(lo, hi int) *Accumulator {
		a := NewAccumulator(cfg)
		for _, r := range records[lo:hi] {
			a.Add(r.Type)
		}
		return a
	}

	viaWire := mkAcc(0, 80)
	shard := mkAcc(80, 200)
	data, err := shard.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := viaWire.MergeSketch(data); err != nil {
		t.Fatal(err)
	}

	inMemory := mkAcc(0, 80)
	inMemory.Merge(mkAcc(80, 200))

	single := mkAcc(0, 200)

	for _, pair := range []struct {
		name string
		acc  *Accumulator
	}{{"in-memory merge", inMemory}, {"single fold", single}} {
		if !reflect.DeepEqual(viaWire.Stats(), pair.acc.Stats()) {
			t.Errorf("stats diverge: serialized merge vs %s", pair.name)
		}
		if !bytes.Equal(schemaBytes(t, viaWire.Finish()), schemaBytes(t, pair.acc.Finish())) {
			t.Errorf("schema diverges: serialized merge vs %s", pair.name)
		}
	}
}

// lawAccumulators builds three fresh shard accumulators for the merge-law
// property tests.
func lawAccumulators(cfg Config) [3]*Accumulator {
	chunks := lawSketchChunks()
	var out [3]*Accumulator
	for i, chunk := range chunks {
		out[i] = NewAccumulator(cfg)
		for _, ty := range chunk {
			out[i].Add(ty)
		}
	}
	return out
}

// requireSameAccumulator checks observational equality up to bag
// *presentation order*: record/distinct counts, the per-type multiset,
// and the pass-① statistics. Schema bytes are deliberately not compared
// here — union alternates follow bag insertion order, so two merge orders
// produce the same schema as a set but may present alternates differently
// (which is why the scale-out reducer merges shards in stream order; see
// requireSameAccumulatorSchema for the order-preserving cases).
func requireSameAccumulator(t *testing.T, x, y *Accumulator) {
	t.Helper()
	if x.Records() != y.Records() || x.Distinct() != y.Distinct() {
		t.Fatalf("counts diverge: %d/%d vs %d/%d", x.Records(), x.Distinct(), y.Records(), y.Distinct())
	}
	x.bag.Each(func(ty *jsontype.Type, n int) {
		if y.bag.CountOf(ty) != n {
			t.Fatalf("multiset diverges at %s: %d vs %d", ty.Canon(), n, y.bag.CountOf(ty))
		}
	})
	if !reflect.DeepEqual(x.Stats(), y.Stats()) {
		t.Fatalf("stats diverge:\n%v\nvs\n%v", x.Stats(), y.Stats())
	}
}

// requireSameAccumulatorSchema additionally pins schema bytes, for merge
// orders that preserve the bag's first-seen order.
func requireSameAccumulatorSchema(t *testing.T, x, y *Accumulator) {
	t.Helper()
	requireSameAccumulator(t, x, y)
	if sx, sy := schemaBytes(t, x.Finish()), schemaBytes(t, y.Finish()); !bytes.Equal(sx, sy) {
		t.Fatalf("schemas diverge:\n%s\nvs\n%s", sx, sy)
	}
}

func TestAccumulatorMergeCommutativeProperty(t *testing.T) {
	cfg := Default()
	a := lawAccumulators(cfg)
	b := lawAccumulators(cfg)

	a[0].Merge(a[1]) // a ⊕ b
	b[1].Merge(b[0]) // b ⊕ a

	requireSameAccumulator(t, a[0], b[1])
}

func TestAccumulatorMergeAssociativeProperty(t *testing.T) {
	cfg := Default()
	l := lawAccumulators(cfg)
	r := lawAccumulators(cfg)

	l[0].Merge(l[1])
	l[0].Merge(l[2]) // (a ⊕ b) ⊕ c

	r[1].Merge(r[2])
	r[0].Merge(r[1]) // a ⊕ (b ⊕ c)

	// Both groupings preserve first-seen order, so even schema bytes agree.
	requireSameAccumulatorSchema(t, l[0], r[0])
}

// TestAccumulatorMergeSerializedCommutativeProperty re-proves the merge
// laws with every operand shipped through the wire format — the algebra
// the scale-out reducer actually relies on: reduce order across sketch
// files must not matter.
func TestAccumulatorMergeSerializedCommutativeProperty(t *testing.T) {
	cfg := Default()
	shards := lawAccumulators(cfg)
	var files [3][]byte
	for i, acc := range shards {
		data, err := acc.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}

	reduce := func(order ...int) *Accumulator {
		acc := NewAccumulator(cfg)
		for _, i := range order {
			if err := acc.MergeSketch(files[i]); err != nil {
				t.Fatal(err)
			}
		}
		return acc
	}

	want := reduce(0, 1, 2)
	for _, order := range [][]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		requireSameAccumulator(t, want, reduce(order...))
	}
}

func TestAccumulatorMergeSerializedAssociativeProperty(t *testing.T) {
	cfg := Default()
	shards := lawAccumulators(cfg)
	var files [3][]byte
	for i, acc := range shards {
		data, err := acc.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}

	// (a ⊕ b) ⊕ c, with the intermediate itself crossing the wire.
	left := NewAccumulator(cfg)
	if err := left.MergeSketch(files[0]); err != nil {
		t.Fatal(err)
	}
	if err := left.MergeSketch(files[1]); err != nil {
		t.Fatal(err)
	}
	leftData, err := left.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	outer := NewAccumulator(cfg)
	if err := outer.MergeSketch(leftData); err != nil {
		t.Fatal(err)
	}
	if err := outer.MergeSketch(files[2]); err != nil {
		t.Fatal(err)
	}

	// a ⊕ (b ⊕ c), likewise.
	bc := NewAccumulator(cfg)
	if err := bc.MergeSketch(files[1]); err != nil {
		t.Fatal(err)
	}
	if err := bc.MergeSketch(files[2]); err != nil {
		t.Fatal(err)
	}
	bcData, err := bc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	right := NewAccumulator(cfg)
	if err := right.MergeSketch(files[0]); err != nil {
		t.Fatal(err)
	}
	if err := right.MergeSketch(bcData); err != nil {
		t.Fatal(err)
	}

	requireSameAccumulatorSchema(t, outer, right)
}

// TestSketchWireVersionRejected pins the compatibility contract: any
// unknown version byte yields a typed *SketchVersionError, for both entry
// points.
func TestSketchWireVersionRejected(t *testing.T) {
	acc := wireSampleAccumulator(t, "github", 20, Default())
	data, err := acc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []byte{0, SketchFormatVersion + 1, 255} {
		bad := append([]byte(nil), data...)
		bad[4] = version
		var verr *SketchVersionError
		if _, err := UnmarshalAccumulator(bad, Default()); !errors.As(err, &verr) {
			t.Fatalf("version %d: got %v, want *SketchVersionError", version, err)
		} else if verr.Got != version || verr.Want != SketchFormatVersion {
			t.Fatalf("version %d: error carries %d/%d", version, verr.Got, verr.Want)
		}
		if _, err := UnmarshalPathSketch(bad); !errors.As(err, &verr) {
			t.Fatalf("version %d (sketch): got %v, want *SketchVersionError", version, err)
		}
	}
}

// TestSketchWireRejectsCorrupt feeds the decoder the corruption classes it
// must reject with a *SketchFormatError and never a panic: truncation at
// every prefix, trailing garbage, bad magic, unknown flags, and missing
// required sections.
func TestSketchWireRejectsCorrupt(t *testing.T) {
	acc := wireSampleAccumulator(t, "twitter", 30, Default())
	data, err := acc.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	decode := func(input []byte) error {
		_, err := UnmarshalAccumulator(input, Default())
		return err
	}

	for i := 0; i < len(data); i++ {
		if err := decode(data[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	if err := decode(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}

	badMagic := append([]byte(nil), data...)
	badMagic[0] = 'X'
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": badMagic,
	}
	unknownFlags := append([]byte(nil), data...)
	unknownFlags[5] |= 0x80
	cases["unknown flags"] = unknownFlags

	for name, input := range cases {
		err := decode(input)
		var ferr *SketchFormatError
		if !errors.As(err, &ferr) {
			t.Errorf("%s: got %v, want *SketchFormatError", name, err)
		}
	}

	// A bare sketch file has no bag: UnmarshalAccumulator must refuse it,
	// and UnmarshalPathSketch must refuse a bag-only file.
	s := NewPathSketch()
	s.Add(jsontype.MustFromValue(map[string]any{"a": 1.0}))
	sketchOnly, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var ferr *SketchFormatError
	if _, err := UnmarshalAccumulator(sketchOnly, Default()); !errors.As(err, &ferr) {
		t.Errorf("bag-less file: got %v, want *SketchFormatError", err)
	}
	sampling := Default()
	sampling.DetectionSample = 0.5
	bagOnlyAcc := NewAccumulator(sampling)
	bagOnlyAcc.Add(jsontype.MustFromValue(map[string]any{"a": 1.0}))
	bagOnly, err := bagOnlyAcc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalPathSketch(bagOnly); !errors.As(err, &ferr) {
		t.Errorf("trie-less file: got %v, want *SketchFormatError", err)
	}
}

// TestSketchKeySetReserveBounded pins mergeNode's guard on sizing a key
// list from a decoded key set: each key's presence count takes an input
// byte at least, so a bitset naming more keys than bytes remain must not
// size the list. The file is a bare sketch whose root carries an all-ones
// bitset of 1,024 words — 65,536 key ids — and three bytes after it:
// decoding fails with a *SketchFormatError and allocates at most 64 B per
// input byte. The guard lets a list take 32 B per remaining byte; sizing
// this one would take 256 B per input byte.
func TestSketchKeySetReserveBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const words = 1024
	trie := binary.AppendUvarint(nil, 1) // record count
	trie = binary.AppendUvarint(trie, 1) // the root's object count
	trie = binary.AppendUvarint(trie, words)
	for i := 0; i < words; i++ {
		trie = binary.LittleEndian.AppendUint64(trie, ^uint64(0))
	}
	trie = append(trie, 1, 1, 1)
	data := append([]byte(sketchMagic), SketchFormatVersion, flagTrie)
	for _, sec := range []struct {
		tag  byte
		body []byte
	}{
		{secKeys, binary.AppendUvarint(nil, 0)},
		{secType, jsontype.NewTypeEncoder().Append(nil)},
		{secTrie, trie},
	} {
		data = append(data, sec.tag)
		data = binary.AppendUvarint(data, uint64(len(sec.body)))
		data = append(data, sec.body...)
	}

	var ferr *SketchFormatError
	if _, err := UnmarshalPathSketch(data); !errors.As(err, &ferr) {
		t.Fatalf("got %v, want *SketchFormatError", err)
	}
	const runs, maxPerByte = 20, 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		UnmarshalPathSketch(data)
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(data))
	t.Logf("decoding a %d-byte file allocates %.2f B per input byte", len(data), perByte)
	if perByte > maxPerByte {
		t.Errorf("decoding allocates %.1f B per input byte, want at most %d", perByte, maxPerByte)
	}
}

// nestedFiles returns a bare sketch file and an accumulator file, each
// holding one record [[…[null]…]] nested levels deep.
func nestedFiles(tb testing.TB, levels int) (sketchFile, accFile []byte) {
	tb.Helper()
	rec := jsontype.Null
	for i := 0; i < levels; i++ {
		rec = jsontype.NewArray([]*jsontype.Type{rec})
	}
	s := NewPathSketch()
	s.Add(rec)
	acc := NewAccumulator(Default())
	acc.Add(rec)
	sketchFile, err := s.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	if accFile, err = acc.Marshal(); err != nil {
		tb.Fatal(err)
	}
	return sketchFile, accFile
}

// TestSketchDepthBound holds sketch files to the scanner's nesting bound.
// A record nested jsontype.MaxDepth levels round-trips through every
// decode entry point. One level more is a *SketchFormatError: in the type
// table for an accumulator file, whose bag holds the record itself, and in
// the trie for a bare sketch file, whose table holds only the record's
// elements.
func TestSketchDepthBound(t *testing.T) {
	sketchFile, accFile := nestedFiles(t, jsontype.MaxDepth)
	s, err := UnmarshalPathSketch(sketchFile)
	if err != nil {
		t.Fatalf("UnmarshalPathSketch at depth %d: %v", jsontype.MaxDepth, err)
	}
	if !bytes.Equal(mustMarshalSketch(t, s), sketchFile) {
		t.Error("UnmarshalPathSketch: re-marshal diverges")
	}
	decoded, err := UnmarshalAccumulator(accFile, Default())
	if err != nil {
		t.Fatalf("UnmarshalAccumulator at depth %d: %v", jsontype.MaxDepth, err)
	}
	merged := NewAccumulator(Default())
	if err := merged.MergeSketch(accFile); err != nil {
		t.Fatalf("MergeSketch at depth %d: %v", jsontype.MaxDepth, err)
	}
	for name, acc := range map[string]*Accumulator{"UnmarshalAccumulator": decoded, "MergeSketch": merged} {
		if data, err := acc.Marshal(); err != nil || !bytes.Equal(data, accFile) {
			t.Errorf("%s: re-marshal diverges (%v)", name, err)
		}
	}

	sketchFile, accFile = nestedFiles(t, jsontype.MaxDepth+1)
	requireTooDeep := func(name string, err error, where string) {
		t.Helper()
		var ferr *SketchFormatError
		if !errors.As(err, &ferr) || !strings.Contains(ferr.Msg, where) {
			t.Errorf("%s at depth %d: got %v, want a *SketchFormatError naming %q",
				name, jsontype.MaxDepth+1, err, where)
		}
	}
	_, err = UnmarshalPathSketch(sketchFile)
	requireTooDeep("UnmarshalPathSketch", err, "trie nests deeper")
	_, err = UnmarshalAccumulator(accFile, Default())
	requireTooDeep("UnmarshalAccumulator", err, "type table entry")
	requireTooDeep("MergeSketch", NewAccumulator(Default()).MergeSketch(accFile), "type table entry")
}

// TestFailedMergePoisonsAccumulator pins the merge error contract: after a
// failed MergeSketch or MergeSketches, the accumulator answers every later
// merge and Marshal with the error that poisoned it, so its partial state
// can never be shipped as a valid file.
func TestFailedMergePoisonsAccumulator(t *testing.T) {
	cfg := Default()
	valid, err := wireSampleAccumulator(t, "github", 100, cfg).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// cutInside truncates valid halfway through the body of section tag.
	cutInside := func(tag byte) []byte {
		pos := len(sketchMagic) + 2
		for valid[pos] != tag {
			n, w := binary.Uvarint(valid[pos+1:])
			pos += 1 + w + int(n)
		}
		n, w := binary.Uvarint(valid[pos+1:])
		return valid[:pos+1+w+int(n)/2]
	}
	garbage := []byte("garbage")
	for _, tc := range []struct {
		name string
		fail func(*Accumulator) error
	}{
		{"cut in bag", func(a *Accumulator) error { return a.MergeSketch(cutInside(secBag)) }},
		{"cut in trie", func(a *Accumulator) error { return a.MergeSketch(cutInside(secTrie)) }},
		{"MergeSketches sequential", func(a *Accumulator) error { return a.MergeSketches([][]byte{valid, garbage}, 1) }},
		{"MergeSketches tree", func(a *Accumulator) error { return a.MergeSketches([][]byte{valid, garbage, valid}, 2) }},
	} {
		acc := wireSampleAccumulator(t, "github", 50, cfg)
		first := tc.fail(acc)
		var ferr *SketchFormatError
		if !errors.As(first, &ferr) {
			t.Fatalf("%s: got %v, want a *SketchFormatError", tc.name, first)
		}
		if err := acc.MergeSketch(valid); err != first {
			t.Errorf("%s: later MergeSketch returned %v, want the poisoning error", tc.name, err)
		}
		if err := acc.MergeSketches([][]byte{valid, valid}, 2); err != first {
			t.Errorf("%s: later MergeSketches returned %v, want the poisoning error", tc.name, err)
		}
		if data, err := acc.Marshal(); err != first || data != nil {
			t.Errorf("%s: Marshal returned %d bytes and %v, want the poisoning error", tc.name, len(data), err)
		}
	}
}

// TestStatsDoesNotMutateSketch is the regression test for the wildcard-
// merge aliasing bug: derive used to build its merged collection nodes
// with the adopting combine, so the first Stats call could splice live
// child maps into scratch nodes and later folds corrupted the sketch.
// Stats must be repeatable and must leave the serialized form untouched.
func TestStatsDoesNotMutateSketch(t *testing.T) {
	for _, g := range dataset.Registry() {
		s := NewPathSketch()
		for _, r := range g.Generate(100, 1) {
			s.Add(r.Type)
		}
		cfg := Default()
		before := mustMarshalSketch(t, s)
		first := s.Stats(cfg)
		second := s.Stats(cfg)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("%s: Stats not repeatable", g.Name)
		}
		if !bytes.Equal(before, mustMarshalSketch(t, s)) {
			t.Fatalf("%s: Stats mutated the sketch's serialized state", g.Name)
		}
	}
}
