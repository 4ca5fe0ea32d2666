package jsontype

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestConcurrentIntern races 8 goroutines over the same set of novel
// array and object shapes, each starting at a different offset so first
// interns (misses) and repeat lookups (hits) interleave on every shard.
// Half the goroutines build the shapes with NewObject and NewArray, which
// retain their slices; half scan the same shapes from JSON text, which
// copies the scanner's stacks on a miss. Every goroutine must get the
// identical *Type for each shape, each distinct shape must get its own
// id, and the interner must grow by exactly the number of distinct
// shapes. Run under -race it also checks the shard locking.
func TestConcurrentIntern(t *testing.T) {
	const (
		goroutines = 8
		shapes     = 512 // 3 distinct complex types each, spread over all shards
	)
	// build interns shape i: inner = {k: r, tag: s}, list = [inner, n],
	// outer = {k: list, w: inner}, where k embeds the interner's size at
	// the start so that every run (-count=N) interns fresh shapes.
	before := InternedTypes()
	build := func(i int, scan bool) ([3]*Type, error) {
		key := "ci" + strconv.FormatUint(before, 10) + "." + strconv.Itoa(i)
		if scan {
			inner := `{"` + key + `":1,"tag":"x"}`
			outer, err := FromJSON([]byte(`{"` + key + `":[` + inner + `,null],"w":` + inner + `}`))
			if err != nil {
				return [3]*Type{}, err
			}
			list := outer.Field(key)
			return [3]*Type{list.Elem(0), list, outer}, nil
		}
		inner := NewObject([]Field{{Key: key, Type: Number}, {Key: "tag", Type: String}})
		list := NewArray([]*Type{inner, Null})
		outer := NewObject([]Field{{Key: key, Type: list}, {Key: "w", Type: inner}})
		return [3]*Type{inner, list, outer}, nil
	}

	got := make([][][3]*Type, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([][3]*Type, shapes)
			for k := 0; k < shapes; k++ {
				i := (k + g*shapes/goroutines) % shapes
				var err error
				if out[i], err = build(i, g%2 == 1); err != nil {
					t.Error(err)
					return
				}
			}
			got[g] = out
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	ids := map[uint64]string{}
	for i := 0; i < shapes; i++ {
		want := got[0][i]
		for g := 1; g < goroutines; g++ {
			if got[g][i] != want {
				t.Fatalf("shape %d: goroutine %d got a different *Type than goroutine 0", i, g)
			}
		}
		for _, typ := range want {
			canon := typ.Canon()
			if prev, dup := ids[typ.ID()]; dup {
				t.Fatalf("id %d shared by %s and %s", typ.ID(), prev, canon)
			}
			ids[typ.ID()] = canon
		}
	}
	if grew := InternedTypes() - before; grew != 3*shapes {
		t.Errorf("interner grew by %d types, want %d", grew, 3*shapes)
	}
}

// TestInternReclaims checks the interner's weak entries: types nothing
// holds are dropped from their shards after two collections and a sweep,
// a type held across them keeps its pointer and its id, and a dropped
// structure built twice again yields one fresh pointer with a fresh id.
func TestInternReclaims(t *testing.T) {
	const n = 1000
	prefix := "reclaim" + strconv.FormatUint(InternedTypes(), 10) + "."
	build := func(i int) *Type {
		return NewObject([]Field{{Key: prefix + strconv.Itoa(i), Type: Number}})
	}
	// Collections happen only where the test asks for them, so no shard
	// sweeps on its own while entries are counted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	SweepInterner()
	before := InternEntries()
	held := build(0)
	heldID := held.ID()
	fresh := make([]*Type, n+1)
	ids := make([]uint64, n+1)
	for i := 1; i <= n; i++ {
		fresh[i] = build(i)
		ids[i] = fresh[i].ID()
	}
	if got := InternEntries() - before; got != n+1 {
		t.Fatalf("interning %d fresh types added %d entries", n+1, got)
	}
	fresh = nil

	cycles := GCCycles()
	runtime.GC()
	runtime.GC()
	// The GC counter's sentinel is collected at each cycle, and its cleanup
	// runs on its own goroutine soon after.
	for i := 0; i < 1000 && GCCycles() == cycles; i++ {
		time.Sleep(time.Millisecond)
	}
	if GCCycles() == cycles {
		t.Error("the GC cycle counter did not advance across two collections")
	}
	SweepInterner()
	if after := InternEntries(); after > before+1 {
		t.Errorf("%d entries after the sweep, want at most %d: the %d dropped types are still in the table",
			after, before+1, n)
	}
	if again := build(0); again != held || again.ID() != heldID {
		t.Errorf("held type came back as a different type (id %d, want %d)", again.ID(), heldID)
	}
	a, b := build(1), build(1)
	if a != b {
		t.Error("two builds of a dropped structure gave two pointers")
	}
	if a.ID() == ids[1] {
		t.Errorf("a dropped structure built again kept its old id %d", a.ID())
	}
	runtime.KeepAlive(held)
}
