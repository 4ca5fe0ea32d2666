package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"jxplain/internal/dataset"
)

// hashStats writes every row of stats into h: path, kind, decision, the
// entropy's exact bits, the similar-types verdict, records and distinct
// keys.
func hashStats(h hash.Hash, stats []PathStat) {
	for _, st := range stats {
		ev := st.Evidence
		fmt.Fprintf(h, "%s\x00%d\x00%d\x00%016x\x00%t\x00%d\x00%d\n",
			st.Path, st.Kind, st.Decision, math.Float64bits(ev.KeyEntropy),
			ev.Similar, ev.Records, ev.DistinctKeys)
	}
}

// TestStatsPinned pins pass ①'s derived statistics bit for bit, the
// entropies included: pathStatsEqual compares entropies only to within
// 1e-9, so a change in the order derive sums key or length counts would
// pass every other test. It hashes Stats over 1,000 records of every
// generator and wide-64 in exact mode, and, for a churn stream under the
// bench's bounds (capacity 64, window 1,000, ring 4, decay 0.5), the
// closed window's Stats at every window close and the rollup's at the
// end. The hashes were recorded before derive sorted each node once.
func TestStatsPinned(t *testing.T) {
	want := map[string]string{
		"nyt":           "f35ec7669662f7d91f98b15c3fd74cdce8401351a9cefb081dfd837f0d61fed5",
		"synapse":       "5f0a988882c56a1bd55828b802fa1d4dcba65ecf6723ce9f4d041f0209abcb0e",
		"twitter":       "b645c5077e887af0493037b2e3170e9b81b08b54659833f4f5d1de3227986994",
		"github":        "a3acd456e356a7e70a696e882f968e7966eda819591397a5d4bbe51ba2cd725c",
		"pharma":        "8bbf8f9eb05ab61f6926f91658cefe526eca757cd988284bae7c91bd616c610a",
		"wikidata":      "dda0198ec6bd461bf4e9845b98707d9c231ede0499f136e8ea1840e13da931f6",
		"yelp-business": "6a635bf3c14756ab111414d8450ae9b8bde6cb8e96bedc642cd9d976d7e73c95",
		"yelp-checkin":  "63ea22f6456cb8ebd20678515b383c68c738a9279a68bf9c22a6af2efd6d49d3",
		"yelp-photos":   "5c1e9bef4c83a4feb7e74d1ff9b1c4add443b34c2ed92bdcd9d95af6f0934950",
		"yelp-review":   "4ee0c2b7065ce12ec74306d9b01b1017025af48019ca56d6e3d1974b10160943",
		"yelp-tip":      "eb1b1e1e6a7573bd00106a16873bee8e87a31420b66f29818db8beef9a47387b",
		"yelp-user":     "13a95c22f834048d8a7dc26e2ab29691c5e637eaa0e92d609dbb12e339727f72",
		"yelp-merged":   "3e57191dd840f58aa068b88292ca7d1363b42b6dc59df981c1acbf70bd3d61ff",
		"wide-64":       "0c3d18bb7859deac74107db6d04ce16dd2c533de429877b3ac8666dd567bc314",
		"churn windows": "4b5e8d581dbe8e34a64306fc67b559b044b836dc83b4ccb80fe1ae03acf0eba7",
		"churn rollup":  "20610c60a287bec69ca42e137d50c2be071e1ee16b296c07df1417864ec41d69",
	}
	sum := func(name string, h hash.Hash) {
		t.Helper()
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s: stats hash to %s, want %s", name, got, want[name])
		}
	}

	wide, ok := dataset.ByName("wide-64")
	if !ok {
		t.Fatal("no dataset wide-64")
	}
	for _, g := range append(dataset.Registry(), wide) {
		acc := NewAccumulator(Default())
		for _, typ := range dataset.Types(g.Generate(1000, 1)) {
			acc.Add(typ)
		}
		h := sha256.New()
		hashStats(h, acc.Stats())
		sum(g.Name, h)
	}

	acc := NewAccumulator(boundsConfig(Bounds{
		ReservoirCapacity: 64,
		WindowRecords:     1000,
		WindowCount:       4,
		DecayFactor:       0.5,
	}))
	windows := sha256.New()
	closed := 0
	acc.OnWindowClose(func(index, records int, s *PathSketch) {
		fmt.Fprintf(windows, "window %d: %d records\n", index, records)
		hashStats(windows, s.Stats(acc.cfg))
		closed++
	})
	for i := 0; i < 16500; i++ {
		acc.Add(churnRec(t, i))
	}
	if closed != 16 {
		t.Fatalf("%d windows closed, want 16", closed)
	}
	sum("churn windows", windows)
	rollup := sha256.New()
	hashStats(rollup, acc.Stats())
	sum("churn rollup", rollup)
}
