package jxplain

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"jxplain/internal/core"
	"jxplain/internal/dataset"
	"jxplain/internal/jsontype"
	"jxplain/internal/schema"
)

// TestGoldenSchemaEquivalence pins discovery output, byte for byte, to
// golden schemas captured from the pre-interning implementation (PR 1) on
// every synthetic dataset generator — the proof that the hash-consed /
// bitset hot path is a pure restructuring, not a new algorithm.
// The goldens in testdata/golden are a frozen artifact of the old code and
// are deliberately not regenerated by this implementation.
func TestGoldenSchemaEquivalence(t *testing.T) {
	for _, g := range dataset.Registry() {
		records := g.Generate(300, 1)
		types := dataset.Types(records)
		want, err := os.ReadFile("testdata/golden/" + g.Name + ".schema.json")
		if err != nil {
			t.Fatal(err)
		}
		got, err := MarshalSchema(Discover(types, DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("%s: schema diverges from PR-1 golden\ngot:  %s\nwant: %s", g.Name, got, want)
		}
	}
}

// raceEnabled is set under the race detector (race_test.go), which makes
// sync.Pool drop a random share of the values put back, so allocation
// counts mean nothing there.
var raceEnabled bool

// TestScanSteadyStateAllocFree pins DESIGN.md's claim that scanning a
// record whose type is already interned performs zero heap allocations:
// after one warm-up pass over 500 records of each generator, scanning all
// of them again must not allocate. It stands in for the hot-path
// allocation analyzers on the scanner, key table and interner.
func TestScanSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scanners at random under -race")
	}
	for _, name := range []string{"github", "nyt", "twitter", "wikidata"} {
		g, ok := dataset.ByName(name)
		if !ok {
			t.Fatalf("unknown dataset %s", name)
		}
		records := g.Generate(500, 1)
		docs := make([][]byte, len(records))
		for i, r := range records {
			doc, err := json.Marshal(r.Value)
			if err != nil {
				t.Fatal(err)
			}
			docs[i] = doc
		}
		var scanErr error
		scan := func() {
			for _, doc := range docs {
				if _, err := jsontype.FromJSON(doc); err != nil {
					scanErr = err
				}
			}
		}
		scan()
		allocs := testing.AllocsPerRun(20, scan)
		if scanErr != nil {
			t.Fatalf("%s: %v", name, scanErr)
		}
		if allocs != 0 {
			t.Errorf("%s: %.2f allocations per warm pass over %d records, want 0", name, allocs, len(docs))
		}
	}
}

// TestAddSteadyStateAllocFree is the add half of the same claim: once
// every path of a record set has its trie node and every type its bag
// entry, folding the records again allocates nothing — neither as one bag
// through Accumulator.AddBag nor record by record through PathSketch.AddN.
// It stands in for the hot-path allocation analyzers on pass ①'s fold.
func TestAddSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	bag := &jsontype.Bag{}
	var types []*jsontype.Type
	for _, name := range []string{"github", "nyt", "twitter", "wikidata"} {
		g, ok := dataset.ByName(name)
		if !ok {
			t.Fatalf("unknown dataset %s", name)
		}
		for _, r := range g.Generate(500, 1) {
			bag.Add(r.Type)
			types = append(types, r.Type)
		}
	}

	acc := core.NewAccumulator(core.Default())
	acc.AddBag(bag)
	if allocs := testing.AllocsPerRun(20, func() { acc.AddBag(bag) }); allocs != 0 {
		t.Errorf("Accumulator.AddBag: %.2f allocations per warm fold of %d distinct types, want 0", allocs, bag.Distinct())
	}

	sketch := core.NewPathSketch()
	add := func() {
		for _, ty := range types {
			sketch.AddN(ty, 1)
		}
	}
	add()
	if allocs := testing.AllocsPerRun(20, add); allocs != 0 {
		t.Errorf("PathSketch.AddN: %.2f allocations per warm pass over %d records, want 0", allocs, len(types))
	}
}

// churnWindowTypes returns the record types of a 1,000-record window of a
// churn stream: a stable service tuple beside a never-repeating session
// key, the shape bounded mode folds and encodes at every window close.
func churnWindowTypes(t *testing.T) []*jsontype.Type {
	t.Helper()
	types := make([]*jsontype.Type, 1000)
	for i := range types {
		ty, err := jsontype.FromJSON(fmt.Appendf(nil,
			`{"service":{"region":"eu-%d","build":%d,"flags":[true,false],"limits":{"cpu":1.5,"mem":4.0}},`+
				`"sess_%08x":{"hits":%d,"geo":[%d.0,2.0],"tags":{"env":"prod"}}}`,
			i%3, i%7, i, i%1000, i%90))
		if err != nil {
			t.Fatal(err)
		}
		types[i] = ty
	}
	return types
}

// churnWindow folds churnWindowTypes into a fresh sketch.
func churnWindow(t *testing.T) *core.PathSketch {
	t.Helper()
	window := core.NewPathSketch()
	for _, ty := range churnWindowTypes(t) {
		window.Add(ty)
	}
	return window
}

// TestSketchMarshalAllocatesOnlyOutput pins the window encoder's steady
// state: once the pooled encoder is warm, PathSketch.Marshal allocates
// only the slice it returns — on every generator and on a 1,000-record
// window of a churn stream, the shape bounded mode encodes at every
// window close.
func TestSketchMarshalAllocatesOnlyOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled encoders at random under -race")
	}
	check := func(name string, s *core.PathSketch) {
		t.Helper()
		var marshalErr error
		marshal := func() {
			if _, err := s.Marshal(); err != nil {
				marshalErr = err
			}
		}
		marshal()
		allocs := testing.AllocsPerRun(20, marshal)
		if marshalErr != nil {
			t.Fatalf("%s: %v", name, marshalErr)
		}
		if allocs != 1 {
			t.Errorf("%s: %.2f allocations per warm Marshal of %d nodes, want 1", name, allocs, s.Nodes())
		}
	}
	for _, g := range dataset.Registry() {
		s := core.NewPathSketch()
		for _, r := range g.Generate(300, 1) {
			s.Add(r.Type)
		}
		check(g.Name, s)
	}
	check("churn window", churnWindow(t))
}

// TestSketchColdFoldAllocations pins the fold bounded mode repeats at
// every window: folding a 1,000-record churn window into a fresh sketch,
// where every record brings a session key and three trie nodes the sketch
// has not seen, allocates at most 9 objects per record.
func TestSketchColdFoldAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const maxPerRecord = 9
	types := churnWindowTypes(t)
	fold := func() {
		s := core.NewPathSketch()
		for _, ty := range types {
			s.Add(ty)
		}
	}
	perRecord := testing.AllocsPerRun(10, fold) / float64(len(types))
	t.Logf("cold fold of a churn window: %.2f allocations per record", perRecord)
	if perRecord > maxPerRecord {
		t.Errorf("cold fold of a churn window: %.2f allocations per record, want at most %d", perRecord, maxPerRecord)
	}
}

// TestSketchBytesPinned pins the sketch encoder's output byte for byte:
// PathSketch.Marshal and Accumulator.Marshal on every generator and on
// wide-64, and a churn window before and after decay, must hash to the
// SHA-256 recorded when the test was written. Equal statistics encode to
// equal bytes however the trie holds them; a change here is a change of
// the wire format.
func TestSketchBytesPinned(t *testing.T) {
	want := map[string]string{
		"nyt sketch":                "4d4216e3cf3df298370a4506fc2f0d8d6233dc5b3231f3994fca047993b8d6c7",
		"nyt accumulator":           "2712fd8253595c5ed18984aca66391f303fe7fc31186e1c1fc660792834a65b5",
		"synapse sketch":            "8d1ee6d927c5b79d849a47aa04184cdaf96c749d0ab41a36aa22d55accc3f9ab",
		"synapse accumulator":       "d13a0fdc118a9fb5d6761d2423dc6fc345847c78a593b10e2d5d686fb472ebfd",
		"twitter sketch":            "5e13cd04754a52221fc83e9e3b6dc4584af0a945b5f6e0f6d68b4f0ffe1e1189",
		"twitter accumulator":       "9f703033d10c52a469c89c9ba8dffcc23d856736804045ee5476be2f3cd44b1b",
		"github sketch":             "8ed798c3089af9a1988446a9be57f0d6ac5817bd23520ebdbc10522236ec1459",
		"github accumulator":        "fd06c173d0491c055e1eed84a2b2ac5be15e7168897ea1865c555fe529a7fd7b",
		"pharma sketch":             "e749c5fc12479a9a21bc328c81918d7f691d55cce679f44bb3419a0e6745ddb1",
		"pharma accumulator":        "35f25465d9647dad765ebc092fba218ab2b14a47b5d0aa799694512800e22187",
		"wikidata sketch":           "a111d7fa1848816720bd1183b14b8d0fba21a3fda616f7051852b1186946ae6e",
		"wikidata accumulator":      "54929386445c05cf801dc82122bc14f9dd1615bdca00aae3a7213cd09cdfca7a",
		"yelp-business sketch":      "a07555e1c33bb60f475936066f0bc405865ff1261ad5f259c7e3fa93169e5666",
		"yelp-business accumulator": "ed9611675d2338d3da86e435b31c2d19b81091537c22e861b2b86f5f96a21f5f",
		"yelp-checkin sketch":       "e5df13636cf716a30b8c1632408e379e55608793ee08d12919fd5e2bb4448628",
		"yelp-checkin accumulator":  "16cc175dc031885a756214bde6471394fe7a35d8aef9f5034b6a21be3022e670",
		"yelp-photos sketch":        "cb8a59cf0e5fd8d5edf3def95fa32140c31fcdbcf01391a0dad50e11bbce39a6",
		"yelp-photos accumulator":   "94cd0610c637cab659dc2f6170e0693d0d12cc9bb2392ccc2ddfc3f3b336c0fe",
		"yelp-review sketch":        "93cf57888ce6570641c4274b36fb500728bc0d9f88ed32434957f51b13909530",
		"yelp-review accumulator":   "b8417fee5feb2cd352ddafa25d111d1b7a3a645f271206bb90ebdd587f1b7e27",
		"yelp-tip sketch":           "51738c11f0161b5a0d5530162f06acf1df434547527cc29b3e83b6f54dc38765",
		"yelp-tip accumulator":      "c6749604b8056322f1eb44a0bed6f7510a9edb49b6c6f2ff040438e9674d40e8",
		"yelp-user sketch":          "8ac615961f688ce16628d64a0581464eec854491ef26c267a56d68422e3729ec",
		"yelp-user accumulator":     "53afa79ecf750c0f48673b364d4e09d4882eb9239393bab77899998eddd7038b",
		"yelp-merged sketch":        "4281c4cafd19626eab73f71dfda075267a73b2726d1af57a4b7181f487d6a5f8",
		"yelp-merged accumulator":   "9a9b1776333aaef8e68db0748fd9cbc49c060811d0b85bb217bc2b663440db37",
		"wide-64 sketch":            "388690b7cd36f0e4707dc37d0e13e180acf4572ed2a06bdcdac4d0eeaea05b3a",
		"wide-64 accumulator":       "9a0a6d362e2fa4f2d3b4ea74ae60087f5a1e106864dc68b39d9fed2f451a2672",
		"churn window":              "e035a20f3c99e8d42b24199d55c8838ecc3974def1218d94566aeb2905b10771",
		"churn window decayed":      "9ed0e10ea39ca68ec45a70cd46e01a82e7f99ea1adc26e9bf47d238438ffbdeb",
	}
	type file struct {
		name string
		data []byte
	}
	var files []file
	marshal := func(name string, m interface{ Marshal() ([]byte, error) }) {
		t.Helper()
		data, err := m.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		files = append(files, file{name, data})
	}
	wide, ok := dataset.ByName("wide-64")
	if !ok {
		t.Fatal("no dataset wide-64")
	}
	for _, g := range append(dataset.Registry(), wide) {
		s := core.NewPathSketch()
		acc := core.NewAccumulator(core.Default())
		for _, r := range g.Generate(300, 1) {
			s.Add(r.Type)
			acc.Add(r.Type)
		}
		marshal(g.Name+" sketch", s)
		marshal(g.Name+" accumulator", acc)
	}
	window := churnWindow(t)
	marshal("churn window", window)
	window.Decay(0.5)
	marshal("churn window decayed", window)
	for _, f := range files {
		sum := sha256.Sum256(f.data)
		if got := hex.EncodeToString(sum[:]); got != want[f.name] {
			t.Errorf("%s: %d bytes hash to %s, want %s", f.name, len(f.data), got, want[f.name])
		}
	}
}

// TestWideSchemaBytesPinned pins the schema bytes at the entity bench's
// scale. The goldens run 300 records through the recursive Discover, where
// the indexed Bimax loop clusters at most a few hundred key sets; here
// Pipeline plus Simplify clusters the wide generators' root at DefaultN
// records (wide-256: 12,800 records, 9,840 distinct key sets), drawn with
// seed 1000 as the bench draws its seed-1 input, so a change to the
// clustering at scale changes a hash.
func TestWideSchemaBytesPinned(t *testing.T) {
	want := map[string]string{
		"wide-16":  "dc8407a1adde4164d6cac211e85cc42099178978722e484542e5da9fa9324e39",
		"wide-64":  "5270df5a61021b5bbe5626412b9034d5aaaaf9a79a60e82ce0fb917bfe8a74ff",
		"wide-256": "f76b7dd006003bb38c2549f4d4ad5de44552fce0ee1cf74fd4dd16de64ba808d",
	}
	cfg := core.Default()
	cfg.Seed = 1
	for _, n := range []int{16, 64, 256} {
		g := dataset.Wide(n)
		types := dataset.Types(g.Generate(g.DefaultN, 1000))
		data, err := schema.Marshal(schema.Simplify(core.PipelineTypes(types, cfg)))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want[g.Name] {
			t.Errorf("%s: %d schema bytes hash to %s, want %s", g.Name, len(data), got, want[g.Name])
		}
	}
}

// TestConcurrentDiscoveryDeterminism runs many discoveries concurrently
// and checks they all agree with a lone run — the -race exercise for the
// shared type interner and its mutex.
func TestConcurrentDiscoveryDeterminism(t *testing.T) {
	for _, g := range dataset.Registry()[:4] {
		records := g.Generate(200, 1)
		types := dataset.Types(records)

		want, err := MarshalSchema(Discover(types, DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}

		const goroutines = 8
		results := make([][]byte, goroutines)
		errs := make([]error, goroutines)
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = MarshalSchema(Discover(types, DefaultConfig()))
			}(i)
		}
		wg.Wait()
		for i := 0; i < goroutines; i++ {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !bytes.Equal(results[i], want) {
				t.Errorf("%s: concurrent discovery %d diverges from a lone run", g.Name, i)
			}
		}
	}
}

// oddKeyRecords is a small corpus whose object keys hold path-structural
// characters (".", "[", "\", "{", and keys that read as wildcard path
// steps), JSON-escaped characters (quote, "<", ">", "&", control
// characters, U+2028/U+2029), non-ASCII text and a raw invalid UTF-8
// byte. It holds the aliasing pair {"a.b": …} / {"a": {"b": …}} in one
// record and across records, three root entities, optional fields, tuple
// arrays of objects and an object collection over odd keys.
func oddKeyRecords() []string {
	var out []string
	for i := 0; i < 60; i++ {
		var rec string
		switch i % 3 {
		case 0:
			rec = fmt.Sprintf(`{"a.b":%d,"a":{"b":"s"},"x[0]":[1,"two"],"{brace}":{"a.b":true,"a":{"b":null}},"q\"uote":"v"`, i)
			if i%2 == 0 {
				rec += `,"lt<gt>":"opt"`
			}
		case 1:
			rec = fmt.Sprintf(`{"a":{"b":%d},"amp&":"x","ctl\u0001\n\t":[{"[*]":1,"{*}":2},{"[*]":3}],"ls\u2028ps\u2029":null,"":0`, i)
			if i%2 == 0 {
				rec += `,"a.b":{"c.d":[true]}`
			}
		default:
			rec = fmt.Sprintf(`{"back\\slash":true,".":1,"raw`+"\xff"+`byte":"z","é":1,"counts":{"k.%d":%d,"k[%d]":%d,"k\\%d":%d,"{*}%d":%d}`, i, i, i, i, i, i, i, i)
			if i%2 == 0 {
				rec += `,"</script>":[1,2,3]`
			}
		}
		out = append(out, rec+"}")
	}
	return out
}

// TestOddKeySchemaBytesPinned pins the native schema bytes of
// oddKeyRecords through Pipeline + Simplify and through the recursive
// Discover to SHA-256 hashes. The generators behind the goldens use no
// such keys, so this is what holds the key escaping of path strings and of
// the native writer, and the grouping of fields by key, to their bytes.
func TestOddKeySchemaBytesPinned(t *testing.T) {
	want := map[string]string{
		"pipeline": "d056cae674c6b44c9f781dd3f9ca0afae24bce39104f5a24789204397bfdd546",
		"discover": "d056cae674c6b44c9f781dd3f9ca0afae24bce39104f5a24789204397bfdd546",
	}
	var types []*jsontype.Type
	for _, rec := range oddKeyRecords() {
		ty, err := jsontype.FromJSON([]byte(rec))
		if err != nil {
			t.Fatalf("%s: %v", rec, err)
		}
		types = append(types, ty)
	}
	cfg := core.Default()
	for name, s := range map[string]schema.Schema{
		"pipeline": schema.Simplify(core.PipelineTypes(types, cfg)),
		"discover": schema.Simplify(core.DiscoverTypes(types, cfg)),
	} {
		data, err := schema.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: %d schema bytes hash to %s, want %s\n%s", name, len(data), got, want[name], s)
		}
	}
}
