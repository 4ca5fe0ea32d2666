package jsontype

import (
	"strconv"
	"sync"
	"testing"
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
