package core

import (
	"bytes"
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

// raceEnabled is set under the race detector (race_test.go), which makes
// sync.Pool drop a random share of the values put back, so allocation
// counts mean nothing there.
var raceEnabled bool

// TestRollupAllocsNoWorseThanDecodingEach pins the ring rollup's cost:
// folding four 1,000-record churn windows into one sketch allocates no
// more than decoding each window's bytes on its own, because a node the
// windows share is allocated once and never copied.
func TestRollupAllocsNoWorseThanDecodingEach(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled decoders at random under -race")
	}
	ring := newSketchRing(4)
	files := make([][]byte, 4)
	for w := range files {
		s := NewPathSketch()
		for i := w * 1000; i < (w+1)*1000; i++ {
			s.Add(churnRec(t, i))
		}
		files[w] = mustMarshalSketch(t, s)
		ring.push(s)
	}
	rollup := testing.AllocsPerRun(5, func() { ring.rollup(nil) })
	each := testing.AllocsPerRun(5, func() {
		for _, data := range files {
			if _, err := UnmarshalPathSketch(data); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("rollup of four churn windows: %.0f allocs/op; decoding each: %.0f", rollup, each)
	if rollup > each {
		t.Errorf("rollup allocates more than decoding each window: %.0f vs %.0f allocs/op", rollup, each)
	}
}

// windowFiles records the encoding of every window an accumulator closes,
// the form the ring once kept them in.
func windowFiles(t *testing.T, acc *Accumulator) *[][]byte {
	files := new([][]byte)
	acc.OnWindowClose(func(_, _ int, s *PathSketch) {
		*files = append(*files, mustMarshalSketch(t, s))
	})
	return files
}

// serializedRollup is the rollup computed from encoded windows: the last
// width files decoded in order and merged, then each live epoch folded in
// through its own encoding, so no live sketch is consumed.
func serializedRollup(t *testing.T, files [][]byte, width int, live ...*PathSketch) *PathSketch {
	t.Helper()
	merged := NewPathSketch()
	for _, data := range files[max(0, len(files)-width):] {
		s, err := UnmarshalPathSketch(data)
		if err != nil {
			t.Fatal(err)
		}
		merged.Merge(s)
	}
	for _, s := range live {
		copied, err := UnmarshalPathSketch(mustMarshalSketch(t, s))
		if err != nil {
			t.Fatal(err)
		}
		merged.Merge(copied)
	}
	return merged
}

// requireRollupMatches checks that the accumulator's rollup carries the
// statistics, record count and encoding of the reference.
func requireRollupMatches(t *testing.T, acc *Accumulator, want *PathSketch) {
	t.Helper()
	got := acc.statsSketch()
	if got.Records() != want.Records() {
		t.Fatalf("rollup records %d, reference %d", got.Records(), want.Records())
	}
	if !reflect.DeepEqual(acc.Stats(), want.Stats(acc.cfg)) {
		t.Fatal("rollup stats diverge from the decoded windows")
	}
	if !bytes.Equal(mustMarshalSketch(t, got), mustMarshalSketch(t, want)) {
		t.Fatal("rollup encodes differently from the decoded windows")
	}
}

// TestRingMatchesSerializedWindows pins the ring of window tries against
// the encoded windows it replaced: under bounds that rotate, Stats equals
// decoding the last WindowCount closed windows in order, merging them and
// folding in the live epoch — on the churn shape and every generator, and
// after two bounded accumulators merge, where the ring adopts the other's
// windows as its most recent.
func TestRingMatchesSerializedWindows(t *testing.T) {
	type stream struct {
		name   string
		window int
		types  []*jsontype.Type
	}
	var churn []*jsontype.Type
	for i := 0; i < 9000; i++ {
		churn = append(churn, churnRec(t, i))
	}
	streams := []stream{{"churn", 1000, churn}, {"churn-100", 100, churn[:1500]}}
	for _, g := range dataset.Registry() {
		streams = append(streams, stream{g.Name, 150, dataset.Types(g.Generate(1000, 1))})
	}
	for _, st := range streams {
		t.Run(st.name, func(t *testing.T) {
			cfg := boundsConfig(Bounds{
				ReservoirCapacity: 64,
				WindowRecords:     st.window,
				WindowCount:       4,
				DecayFactor:       0.5,
			})
			// Chunks of a third of a window, so rotation also runs
			// through AddBag.
			feed := func(acc *Accumulator, types []*jsontype.Type) {
				chunk := &jsontype.Bag{}
				for i, typ := range types {
					chunk.Add(typ)
					if chunk.Len() == max(1, st.window/3) || i == len(types)-1 {
						acc.AddBag(chunk)
						chunk = &jsontype.Bag{}
					}
				}
			}

			acc := NewAccumulator(cfg)
			files := windowFiles(t, acc)
			feed(acc, st.types)
			if len(*files) <= cfg.Bounds.WindowCount {
				t.Fatalf("%d windows closed; the ring never evicted", len(*files))
			}
			requireRollupMatches(t, acc, serializedRollup(t, *files, cfg.Bounds.WindowCount, acc.sketch))

			half := len(st.types) / 2
			a, b := NewAccumulator(cfg), NewAccumulator(cfg)
			filesA, filesB := windowFiles(t, a), windowFiles(t, b)
			feed(a, st.types[:half])
			feed(b, st.types[half:])
			want := serializedRollup(t, append(*filesA, *filesB...), cfg.Bounds.WindowCount, a.sketch, b.sketch)
			a.Merge(b)
			requireRollupMatches(t, a, want)
		})
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
