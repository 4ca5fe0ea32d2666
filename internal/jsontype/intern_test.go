package jsontype

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// raceEnabled is set under the race detector (race_test.go), which makes
// sync.Pool drop a random share of the values put back, so allocation
// counts mean nothing there.
var raceEnabled bool

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

// TestInternReclaims checks the interner's weak entries, which are held
// per slab. With every height's open slab sealed first, so that the
// test's types share slabs only with each other, two collections must
// leave no entry of a type nothing holds, except those of the held type's
// slab-mates, of which there are at most slabSize-1. The held type keeps
// its pointer and its id, and so does an unheld slab-mate of it: a build
// returns it as it stands, which is sound, since its memory, id and
// children are intact. A structure whose slab died, built twice, yields
// one fresh pointer with a fresh id.
func TestInternReclaims(t *testing.T) {
	const n = 1000
	prefix := "reclaim" + strconv.FormatUint(InternedTypes(), 10) + "."
	fields := func(i int) []Field { return []Field{{Key: prefix + strconv.Itoa(i), Type: Number}} }
	build := func(i int) *Type { return NewObject(fields(i)) }
	// entries counts the entries, live or not yet dropped, under the hash
	// of structure i.
	entries := func(i int) int {
		h := hashFields(fields(i))
		s := &internShards[h&(internShardCount-1)]
		s.mu.Lock()
		defer s.mu.Unlock()
		n := len(s.more[h])
		if _, ok := s.m[h]; ok {
			n++
		}
		return n
	}
	// Collections happen only where the test asks for them, so no slab
	// is freed while entries are counted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	SealSlabs()
	before := InternEntries()
	held := build(0)
	heldID, heldSlab := held.ID(), SlabOf(held)
	fresh := make([]*Type, n+1)
	ids := make([]uint64, n+1)
	addrs := make([]uintptr, n+1)
	mates := map[int]bool{}
	for i := 1; i <= n; i++ {
		fresh[i] = build(i)
		ids[i], addrs[i] = fresh[i].ID(), uintptr(unsafe.Pointer(fresh[i]))
		if SlabOf(fresh[i]) == heldSlab {
			mates[i] = true
		}
		if got := entries(i); got != 1 {
			t.Fatalf("fresh type %d has %d entries", i, got)
		}
	}
	// The held type opened its height's slab, and the fresh types, all of
	// its height, fill it.
	if len(mates) == 0 || len(mates) > slabSize-1 {
		t.Fatalf("the held type has %d slab-mates, want 1 to %d", len(mates), slabSize-1)
	}
	fresh = nil

	runtime.GC()
	runtime.GC()
	// A freed slab's cleanup, which drops its entries, runs on its own
	// goroutine soon after the collection.
	dropped := func() bool {
		for i := 1; i <= n; i++ {
			if !mates[i] && entries(i) != 0 {
				return false
			}
		}
		return true
	}
	for i := 0; i < 1000 && !dropped(); i++ {
		time.Sleep(time.Millisecond)
	}
	for i := 1; i <= n; i++ {
		want := 0
		if mates[i] {
			want = 1
		}
		if got := entries(i); got != want {
			t.Fatalf("fresh type %d has %d entries after two collections, want %d (a slab-mate of the held type: %v)",
				i, got, want, mates[i])
		}
	}
	if after := InternEntries(); after > before+1+len(mates) {
		t.Errorf("%d entries after two collections, want at most %d: the %d dropped types are still in the table",
			after, before+1+len(mates), n-len(mates))
	}
	if again := build(0); again != held || again.ID() != heldID {
		t.Errorf("held type came back as a different type (id %d, want %d)", again.ID(), heldID)
	}
	dead := 1
	for mates[dead] {
		dead++
	}
	for i := range mates {
		if m := build(i); uintptr(unsafe.Pointer(m)) != addrs[i] || m.ID() != ids[i] {
			t.Errorf("unheld slab-mate %d came back as a different type (id %d, want %d)", i, m.ID(), ids[i])
		}
	}
	a, b := build(dead), build(dead)
	if a != b {
		t.Error("two builds of a dropped structure gave two pointers")
	}
	if a.ID() == ids[dead] {
		t.Errorf("a dropped structure built again kept its old id %d", a.ID())
	}
	runtime.KeepAlive(held)
}

// TestNovelTypeAllocations pins what a novel type costs. Its slab, and the
// slab's weak handle and cleanup, are shared by slabSize types, so NewObject on a
// novel object whose field list the caller made allocates nothing of its
// own, and neither does NewObject on an interned one, whose sort boxes
// nothing. Scanning a record whose fresh key makes a novel root type
// allocates the key's string and the root's field list, and the slab and
// the scanner's table slots amortized. A key table entry is 32 bytes.
func TestNovelTypeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scanners at random under -race")
	}
	if size := unsafe.Sizeof(keyEntry{}); size != 32 {
		t.Errorf("a key table entry is %d bytes, want 32", size)
	}

	// Enough runs that the slabs the runs open, each with its weak handle
	// and cleanup, do not decide the rounded mean.
	const runs = 4096
	prefix := "novel" + strconv.FormatUint(InternedTypes(), 10) + "."
	lists := make([][]Field, runs+1)
	for i := range lists {
		lists[i] = []Field{{Key: prefix + strconv.Itoa(i), Type: Number}, {Key: "tag", Type: String}}
	}
	held := make([]*Type, 0, runs+1) // so that no collection starts slabs afresh
	if allocs := testing.AllocsPerRun(runs, func() {
		held = append(held, NewObject(lists[len(held)]))
	}); allocs != 0 {
		t.Errorf("NewObject on a novel object: %v allocations, want 0", allocs)
	}

	// Nine fields in reverse key order, copied into one reused slice that
	// NewObject sorts on every run.
	reversed := make([]Field, 9)
	for i := range reversed {
		reversed[i] = Field{Key: string(rune('i' - i)), Type: held[i]}
	}
	want := NewObject(append([]Field(nil), reversed...))
	wide := make([]Field, len(reversed))
	if allocs := testing.AllocsPerRun(100, func() {
		copy(wide, reversed)
		if NewObject(wide) != want {
			t.Fatal("NewObject gave a second type for one field list")
		}
	}); allocs != 0 {
		t.Errorf("NewObject on an interned 9-field object: %v allocations, want 0", allocs)
	}

	records := make([][]byte, runs+1)
	for i := range records {
		records[i] = fmt.Appendf(nil,
			`{"service":{"region":"eu-%d","build":%d,"flags":[true,false],"limits":{"cpu":1.5,"mem":4.0}},`+
				`"sess_%s%08x":{"hits":%d,"geo":[%d.0,2.0],"tags":{"env":"prod"}}}`,
			i%3, i%7, prefix, i, i%1000, i%90)
	}
	next := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		ty, err := FromJSON(records[next])
		if err != nil {
			t.Fatal(err)
		}
		held[next%len(held)] = ty
		next++
	}); allocs > 2 {
		t.Errorf("scanning a record with a fresh key: %v allocations, want at most 2", allocs)
	}
}
