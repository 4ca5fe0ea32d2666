package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"jxplain/internal/dataset"
	"jxplain/internal/entropy"
	"jxplain/internal/jsontype"
)

func windowRec(tb testing.TB, i int) *jsontype.Type {
	tb.Helper()
	t, err := jsontype.FromValue(map[string]any{fmt.Sprintf("w%03d", i): 1.0})
	if err != nil {
		tb.Fatalf("windowRec: %v", err)
	}
	return t
}

func boundsConfig(b Bounds) Config {
	cfg := Default()
	cfg.Bounds = b
	return cfg
}

// In the no-eviction, no-window regime a bounded accumulator must be an
// exact accumulator: same schema bytes, same totals.
func TestBoundedAccumulatorExactRegime(t *testing.T) {
	exact := NewAccumulator(Default())
	bounded := NewAccumulator(boundsConfig(Bounds{ReservoirCapacity: 64}))
	for i := 0; i < 200; i++ {
		ty := windowRec(t, i%20)
		exact.AddN(ty, 1+i%3)
		bounded.AddN(ty, 1+i%3)
	}
	if bounded.Records() != exact.Records() || bounded.Distinct() != exact.Distinct() {
		t.Fatalf("totals diverge: bounded (%d, %d) vs exact (%d, %d)",
			bounded.Records(), bounded.Distinct(), exact.Records(), exact.Distinct())
	}
	if !bytes.Equal(schemaBytes(t, bounded.Finish()), schemaBytes(t, exact.Finish())) {
		t.Fatal("schema bytes diverge in the exact regime")
	}
}

// A window ring retains only the recent horizon: paths seen exclusively
// in expired windows drop out of the derived statistics.
func TestWindowRingForgetsRetiredPaths(t *testing.T) {
	acc := NewAccumulator(boundsConfig(Bounds{WindowRecords: 100, WindowCount: 2}))
	old := jsontype.MustFromValue(map[string]any{"retired": map[string]any{"x": 1.0}})
	fresh := jsontype.MustFromValue(map[string]any{"live": map[string]any{"y": "s"}})
	for i := 0; i < 100; i++ {
		acc.Add(old)
	}
	for i := 0; i < 400; i++ {
		acc.Add(fresh)
	}

	if got := acc.WindowsClosed(); got != 5 {
		t.Fatalf("windows closed = %d, want 5", got)
	}
	// Ring of 2 + empty live epoch: the horizon is the last 200 records,
	// all of them fresh.
	if got := acc.statsSketch().Records(); got != 200 {
		t.Fatalf("horizon records = %d, want 200", got)
	}
	for _, st := range acc.Stats() {
		if strings.Contains(st.Path, "retired") {
			t.Fatalf("retired path still in stats: %s", st.Path)
		}
	}
}

func TestWindowCloseHookObservesEveryRotation(t *testing.T) {
	acc := NewAccumulator(boundsConfig(Bounds{WindowRecords: 10, WindowCount: 3}))
	var indices, records []int
	acc.OnWindowClose(func(index, n int, sketch *PathSketch) {
		indices = append(indices, index)
		records = append(records, n)
		if sketch.Records() != n {
			t.Fatalf("window %d: sketch records %d != reported %d", index, sketch.Records(), n)
		}
	})
	for i := 0; i < 45; i++ {
		acc.Add(windowRec(t, i%4))
	}
	if len(indices) != 4 {
		t.Fatalf("hook fired %d times, want 4: %v", len(indices), indices)
	}
	for i, idx := range indices {
		if idx != i || records[i] != 10 {
			t.Fatalf("rotation %d: index=%d records=%d", i, idx, records[i])
		}
	}
}

// Deriving stats from the ring must not consume the live epoch: repeated
// Stats calls interleaved with adds keep working and see the additions.
func TestRingStatsDoNotConsumeLive(t *testing.T) {
	acc := NewAccumulator(boundsConfig(Bounds{WindowRecords: 100, WindowCount: 2}))
	for i := 0; i < 150; i++ {
		acc.Add(windowRec(t, i%7))
	}
	if len(acc.Stats()) == 0 {
		t.Fatal("no stats from ring rollup")
	}
	before := acc.statsSketch().Records()
	for i := 0; i < 30; i++ {
		acc.Add(windowRec(t, i%7))
	}
	after := acc.statsSketch().Records()
	if after != before+30 {
		t.Fatalf("live epoch lost adds across rollup: %d -> %d", before, after)
	}
	if len(acc.Stats()) == 0 {
		t.Fatal("no stats after second rollup")
	}
}

func TestPathSketchDecayCompacts(t *testing.T) {
	s := NewPathSketch()
	heavy := jsontype.MustFromValue(map[string]any{"heavy": map[string]any{"deep": []any{1.0}}})
	light := jsontype.MustFromValue(map[string]any{"light": map[string]any{"deep": []any{"s"}}})
	s.AddN(heavy, 1000)
	s.AddN(light, 1)
	full := s.Nodes()
	s.Decay(0.5)
	if s.Records() != 500 {
		t.Fatalf("records = %d, want 500", s.Records())
	}
	if got := s.Nodes(); got >= full {
		t.Fatalf("decay reclaimed nothing: %d -> %d nodes", full, got)
	}
	for _, st := range s.Stats(Default()) {
		if strings.Contains(st.Path, "light") {
			t.Fatalf("decayed-out path survives: %s", st.Path)
		}
	}
	// Decaying everything to zero compacts down to the bare root.
	for i := 0; i < 20; i++ {
		s.Decay(0.5)
	}
	if got := s.Nodes(); got != 1 {
		t.Fatalf("fully decayed sketch holds %d nodes, want 1", got)
	}
}

// Decay unlinks a decayed-out array position wherever it sits, not only
// at the end of the element list: a dead node before a live one would
// count in Nodes() yet vanish on the wire, which writes it as an empty
// node.
func TestPathSketchDecayDropsInnerElems(t *testing.T) {
	s := NewPathSketch()
	s.AddN(ty(t, `{"a":[{"x":1},{"y":1}]}`), 4)
	for round := 0; round < 6; round++ {
		s.AddN(ty(t, `{"a":[1,{"y":1}]}`), 8)
		s.Decay(0.5)
	}
	// The root, a and a[1]; every counter of a[0] has decayed to zero.
	if got := s.Nodes(); got != 3 {
		t.Errorf("decayed sketch holds %d nodes, want 3", got)
	}
	decoded, err := UnmarshalPathSketch(mustMarshalSketch(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Nodes() != s.Nodes() {
		t.Errorf("decoded sketch holds %d nodes, the decayed one %d", decoded.Nodes(), s.Nodes())
	}
	if !reflect.DeepEqual(decoded.Stats(Default()), s.Stats(Default())) {
		t.Error("decoded stats diverge from the decayed sketch")
	}
}

// churnRec is record i of a churn stream: a stable "service" tuple beside
// a never-repeating session key whose value is structurally constant, so
// distinct root types and trie keys grow with the stream while the deep
// subtrees intern once.
func churnRec(t *testing.T, i int) *jsontype.Type {
	t.Helper()
	return ty(t, fmt.Sprintf(
		`{"service":{"region":"eu-1","build":%d,"flags":[true,false],"limits":{"cpu":1.5,"mem":4.0}},`+
			`"sess_%08d":{"hits":%d,"geo":[%d.0,2.0],"tags":{"env":"prod"}}}`,
		i%7, i, i%100, i%90))
}

// A bounded accumulator keeps a churn stream's state flat: its peak trie
// over the 10th 200-record horizon is at most 1.5× its peak over the
// first, the reservoir never exceeds capacity, and the exact trie, which
// keeps every session key, ends at least 4× the bounded peak.
func TestDecayBoundsChurnTrie(t *testing.T) {
	const (
		horizon    = 200
		flatFactor = 1.5
		growFactor = 4
	)
	for _, tc := range []struct {
		name   string
		bounds Bounds
	}{
		// Rotation cadence without a ring: decay ages the live trie in
		// place, so singleton keys floor out within a couple of cadences.
		{"decay", Bounds{ReservoirCapacity: 32, WindowRecords: horizon / 2, DecayFactor: 0.5}},
		// A ring of 4 windows spans the horizon; decay ages the reservoir.
		{"ring", Bounds{ReservoirCapacity: 64, WindowRecords: horizon / 4, WindowCount: 4, DecayFactor: 0.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			acc := NewAccumulator(boundsConfig(tc.bounds))
			exact := NewAccumulator(Default())
			var first, last int // peak bounded nodes over the 1st and 10th horizon
			for i := 1; i <= 10*horizon; i++ {
				typ := churnRec(t, i)
				acc.Add(typ)
				exact.Add(typ)
				if d := acc.Reservoir().Distinct(); d > tc.bounds.ReservoirCapacity {
					t.Fatalf("reservoir over capacity at record %d: %d > %d", i, d, tc.bounds.ReservoirCapacity)
				}
				if i <= horizon {
					first = max(first, acc.SketchNodes())
				} else if i > 9*horizon {
					last = max(last, acc.SketchNodes())
				}
			}
			unbounded := exact.SketchNodes()
			t.Logf("bounded peak %d → %d nodes, exact %d", first, last, unbounded)
			if ratio := float64(last) / float64(first); ratio > flatFactor {
				t.Errorf("bounded trie grew %.2f× from the 1st to the 10th horizon (%d → %d nodes; ceiling %.1f×)",
					ratio, first, last, flatFactor)
			}
			if unbounded < growFactor*last {
				t.Errorf("exact trie (%d nodes) should be ≥%d× the bounded peak (%d)", unbounded, growFactor, last)
			}
			if len(schemaBytes(t, acc.Finish())) == 0 {
				t.Fatal("bounded Finish returned empty schema")
			}
		})
	}
}

// Over every generator, bounded pass-① decisions agree with exact ones on
// the paths both runs derive. The ring cadence makes the horizon span
// half the stream, so decisions come from recent windows only.
func TestBoundedDecisionAgreementOnRegistry(t *testing.T) {
	const floor = 0.80
	type pathKey struct {
		path string
		kind jsontype.Kind
	}
	decisions := func(acc *Accumulator) map[pathKey]entropy.Decision {
		m := map[pathKey]entropy.Decision{}
		for _, st := range acc.Stats() {
			m[pathKey{st.Path, st.Kind}] = st.Decision
		}
		return m
	}
	var sum float64
	reg := dataset.Registry()
	for _, g := range reg {
		types := dataset.Types(g.Generate(max(20, g.DefaultN/20), 1))
		exact := NewAccumulator(Default())
		bounded := NewAccumulator(boundsConfig(Bounds{
			ReservoirCapacity: 64,
			WindowRecords:     max(1, len(types)/(2*4)),
			WindowCount:       4,
			DecayFactor:       0.5,
		}))
		for _, typ := range types {
			exact.Add(typ)
			bounded.Add(typ)
		}
		want, got := decisions(exact), decisions(bounded)
		shared, agree := 0, 0
		for k, d := range want {
			if bd, ok := got[k]; ok {
				shared++
				if bd == d {
					agree++
				}
			}
		}
		agreement := 1.0
		if shared > 0 {
			agreement = float64(agree) / float64(shared)
		}
		t.Logf("%s: %d/%d shared paths agree (%.3f)", g.Name, agree, shared, agreement)
		sum += agreement
	}
	if mean := sum / float64(len(reg)); mean < floor {
		t.Errorf("mean bounded-vs-exact decision agreement %.3f below %.2f", mean, floor)
	}
}

// ReducePathSketches must reproduce the sequential fold of the decoded
// sketches.
func TestReducePathSketchesMatchesSequential(t *testing.T) {
	chunks := lawSketchChunks()
	var files [][]byte
	seq := NewPathSketch()
	for _, chunk := range chunks {
		s := sketchOf(chunk)
		data, err := s.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
		seq.Merge(sketchOf(chunk))
	}
	got, err := ReducePathSketches(files)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSketch(t, got, seq)
}

func TestReducePathSketchesEmptyAndCorrupt(t *testing.T) {
	empty, err := ReducePathSketches(nil)
	if err != nil || empty.Records() != 0 {
		t.Fatalf("empty reduce: %v, records=%d", err, empty.Records())
	}
	good, err := sketchOf(lawSketchChunks()[0]).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReducePathSketches([][]byte{good, good, []byte("garbage")})
	var merr *SketchMergeError
	if !errors.As(err, &merr) || merr.Index != 2 {
		t.Fatalf("want *SketchMergeError{Index: 2}, got %v", err)
	}
}

// raceEnabled is set under the race detector (race_test.go), which makes
// sync.Pool drop a random share of the values put back, so allocation
// counts mean nothing there.
var raceEnabled bool

// TestReducePathSketchesAllocsNoWorseThanDecodingEach pins the ring
// rollup's cost: folding four 1,000-record churn windows into one sketch
// allocates no more than decoding each window on its own, because a node
// the windows share is allocated once and never copied.
func TestReducePathSketchesAllocsNoWorseThanDecodingEach(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled decoders at random under -race")
	}
	files := make([][]byte, 4)
	for w := range files {
		s := NewPathSketch()
		for i := w * 1000; i < (w+1)*1000; i++ {
			s.Add(churnRec(t, i))
		}
		files[w] = mustMarshalSketch(t, s)
	}
	reduce := testing.AllocsPerRun(5, func() {
		if _, err := ReducePathSketches(files); err != nil {
			t.Fatal(err)
		}
	})
	each := testing.AllocsPerRun(5, func() {
		for _, data := range files {
			if _, err := UnmarshalPathSketch(data); err != nil {
				t.Fatal(err)
			}
		}
	})
	if reduce > each {
		t.Errorf("ReducePathSketches allocates more than decoding each window: %.0f vs %.0f allocs/op", reduce, each)
	}
}

// A bounded accumulator round-trips through the wire format as its
// snapshot: the retained types survive, and the decoded side keeps
// operating under the same bounds.
func TestBoundedAccumulatorWireSnapshot(t *testing.T) {
	cfg := boundsConfig(Bounds{ReservoirCapacity: 16, WindowRecords: 50, WindowCount: 2})
	acc := NewAccumulator(cfg)
	for i := 0; i < 400; i++ {
		acc.Add(windowRec(t, i%40))
	}
	data, err := acc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalAccumulator(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if back.Distinct() != acc.Distinct() {
		t.Fatalf("distinct diverges after round trip: %d vs %d", back.Distinct(), acc.Distinct())
	}
	if len(schemaBytes(t, back.Finish())) == 0 {
		t.Fatal("decoded bounded accumulator cannot synthesize")
	}
	// And a bounded reducer folds unbounded map outputs within its cap.
	mapSide := NewAccumulator(Default())
	for i := 0; i < 100; i++ {
		mapSide.Add(windowRec(t, 100+i))
	}
	shard, err := mapSide.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	red, err := ReduceSketches([][]byte{shard, data}, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := red.Distinct(); d > 16 {
		t.Fatalf("bounded reducer over capacity: %d", d)
	}
}
