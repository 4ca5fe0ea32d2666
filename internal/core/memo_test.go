package core

import (
	"bytes"
	"testing"

	"jxplain/internal/dataset"
	"jxplain/internal/jsontype"
	"jxplain/internal/schema"
)

func marshalSchema(t *testing.T, s schema.Schema) []byte {
	t.Helper()
	b, err := schema.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func memoLen(acc *Accumulator) int { return len(acc.memo.prev) + len(acc.memo.cur) }

// TestIncrementalFinishMatchesFresh pins the merge memo across Finish
// calls on one accumulator. Every snapshot prints the same bytes as a
// fresh accumulator over the same records. Re-adding records keeps the
// decision epoch, because the pass-② plan hash depends on neither the key
// dictionary nor record counts. On a steady stream, whose snapshots
// change every bag hash but no decision, the memo holds no more entries
// than the first Finish created, not the entries of every Finish.
func TestIncrementalFinishMatchesFresh(t *testing.T) {
	cfg := Default()
	for _, g := range append(dataset.Registry(), dataset.Wide(64)) {
		records := g.Generate(600, 1)
		a := bagOf(dataset.Types(records[:300]))
		b := bagOf(dataset.Types(records[300:]))

		acc := NewAccumulator(cfg)
		var added []*jsontype.Bag
		for step, chunk := range []*jsontype.Bag{a, a, b} {
			acc.AddBag(chunk)
			added = append(added, chunk)
			got := marshalSchema(t, acc.Finish())
			fresh := NewAccumulator(cfg)
			for _, c := range added {
				fresh.AddBag(c)
			}
			if want := marshalSchema(t, fresh.Finish()); !bytes.Equal(got, want) {
				t.Errorf("%s: Finish %d differs from a fresh accumulator\ngot:  %s\nwant: %s", g.Name, step+1, got, want)
			}
		}

		steady := NewAccumulator(cfg)
		var limit int
		var epoch uint64
		for i := 1; i <= 20; i++ {
			steady.AddBag(a)
			steady.Finish()
			if i == 1 {
				limit, epoch = memoLen(steady), steady.memo.epoch
				continue
			}
			if steady.memo.epoch != epoch {
				t.Fatalf("%s: adding chunk A %d times changed the decision epoch", g.Name, i)
			}
			if got := memoLen(steady); got > limit {
				t.Fatalf("%s: after %d Finish calls the memo holds %d entries, the first Finish created %d", g.Name, i, got, limit)
			}
		}
		// A Finish over an unchanged stream hits at the root and keeps the
		// entries under it for the next change.
		before := memoLen(steady)
		steady.Finish()
		if got := memoLen(steady); got != before {
			t.Errorf("%s: a Finish over an unchanged stream left %d memo entries, want %d", g.Name, got, before)
		}
	}
}
