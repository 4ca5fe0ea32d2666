package schema

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFusePrimitives(t *testing.T) {
	s := Fuse(Number, String)
	if !s.Accepts(ty("1")) || !s.Accepts(ty(`"x"`)) || s.Accepts(ty("true")) {
		t.Errorf("Fuse(ℝ, 𝕊) = %v", s)
	}
	if !Equal(Fuse(Number, Number), Number) {
		t.Error("Fuse is idempotent on equal primitives")
	}
}

func TestFuseSameKeySetTuplesMerge(t *testing.T) {
	a := tuple([]FieldSchema{req("x", Number), req("y", Number)}, nil)
	b := tuple([]FieldSchema{req("x", Number)}, []FieldSchema{req("y", String)})
	s := Fuse(a, b)
	ot, ok := s.(*ObjectTuple)
	if !ok {
		t.Fatalf("same key sets should merge into one tuple: %v", s)
	}
	if _, isReq := ot.Field("x"); !isReq {
		t.Error("x required on both sides stays required")
	}
	if f, isReq := ot.Field("y"); f == nil || isReq {
		t.Error("y optional on one side becomes optional")
	}
	// y admits both ℝ and 𝕊 after fusing.
	if !s.Accepts(ty(`{"x":1,"y":2}`)) || !s.Accepts(ty(`{"x":1,"y":"s"}`)) {
		t.Error("fused field should admit both leaf types")
	}
}

func TestFuseDifferentKeySetTuplesStaySeparate(t *testing.T) {
	login := tuple([]FieldSchema{req("ts", Number), req("user", String)}, nil)
	serve := tuple([]FieldSchema{req("ts", Number), req("files", String)}, nil)
	s := Fuse(login, serve)
	if Entities(s) != 2 {
		t.Fatalf("entity partitioning must survive fusion: %v", s)
	}
	if s.Accepts(ty(`{"ts":1,"user":"u","files":"f"}`)) {
		t.Error("fusion must not blend entities")
	}
}

func TestFuseCollections(t *testing.T) {
	a := &ArrayCollection{Elem: Number, MaxLen: 3}
	b := &ArrayCollection{Elem: String, MaxLen: 7}
	s := Fuse(a, b).(*ArrayCollection)
	if s.MaxLen != 7 {
		t.Errorf("MaxLen = %d", s.MaxLen)
	}
	if !s.Accepts(ty(`[1,"x"]`)) {
		t.Error("fused element schema should admit both")
	}
	oc := Fuse(&ObjectCollection{Value: Number, Domain: 5},
		&ObjectCollection{Value: Bool, Domain: 2}).(*ObjectCollection)
	if oc.Domain != 5 || !oc.Accepts(ty(`{"k":true,"j":1}`)) {
		t.Errorf("object collection fusion broken: %v", oc)
	}
}

func TestFuseArrayTuples(t *testing.T) {
	a := NewArrayTuple(Number, Number)
	b := &ArrayTuple{Elems: []Schema{Number, Number, String}, MinLen: 2}
	s := Fuse(a, b).(*ArrayTuple)
	if s.MinLen != 2 || len(s.Elems) != 3 {
		t.Fatalf("fused tuple = %v", s)
	}
	for _, good := range []string{`[1,2]`, `[1,2,"x"]`} {
		if !s.Accepts(ty(good)) {
			t.Errorf("should accept %s", good)
		}
	}
	if s.Accepts(ty(`[1]`)) {
		t.Error("below both MinLens")
	}
}

func TestFuseMixedInterpretationsCoexist(t *testing.T) {
	coll := &ObjectCollection{Value: Number, Domain: 4}
	tup := tuple([]FieldSchema{req("fixed", String)}, nil)
	s := Fuse(coll, tup)
	if !s.Accepts(ty(`{"anything":1}`)) || !s.Accepts(ty(`{"fixed":"x"}`)) {
		t.Errorf("mixed interpretations should coexist: %v", s)
	}
}

func TestFuseEmpty(t *testing.T) {
	if !Equal(Fuse(Empty(), Number), Number) {
		t.Error("fusing with empty is identity")
	}
	if !IsEmpty(Fuse(Empty(), Empty())) {
		t.Error("empty ⊔ empty = empty")
	}
}

func TestFuseSupersetProperty(t *testing.T) {
	// Fuse(a, b) must accept everything a or b accepts.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSchema(r, 3), randomSchema(r, 3)
		fused := Fuse(a, b)
		for i := 0; i < 25; i++ {
			tt := randomTestType(r, 3)
			if (a.Accepts(tt) || b.Accepts(tt)) && !fused.Accepts(tt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFuseCommutativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSchema(r, 3), randomSchema(r, 3)
		ab, ba := Fuse(a, b), Fuse(b, a)
		for i := 0; i < 20; i++ {
			tt := randomTestType(r, 3)
			if ab.Accepts(tt) != ba.Accepts(tt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// fuseSelfHolds checks the two properties Fuse(a, a) does give on a
// random schema and 20 random types: it accepts everything a accepts, and
// f = Fuse(a, a) is a fixpoint, Fuse(f, f) accepting exactly what f
// accepts. Fuse(a, a) may accept more than a (see Fuse's doc).
func fuseSelfHolds(seed int64) bool {
	r := rand.New(rand.NewSource(seed))
	a := randomSchema(r, 3)
	f := Fuse(a, a)
	ff := Fuse(f, f)
	for i := 0; i < 20; i++ {
		tt := randomTestType(r, 3)
		if a.Accepts(tt) && !f.Accepts(tt) || f.Accepts(tt) != ff.Accepts(tt) {
			return false
		}
	}
	return true
}

// TestFuseIdempotentProperty checks Fuse's idempotence as it holds: on
// its own output, not on every input.
func TestFuseIdempotentProperty(t *testing.T) {
	// Both seeds widen under Fuse(a, a): -5656757905456329850 draws
	// ([] | [(null | 𝕊), 𝕊]), whose array tuples fuse, and 4863 draws
	// ([[𝕊]]* | [(𝕊)]*), which fuses to [(𝕊 | [𝕊])]*.
	for _, seed := range []int64{-5656757905456329850, 4863} {
		if !fuseSelfHolds(seed) {
			t.Errorf("seed %d", seed)
		}
	}
	if err := quick.Check(fuseSelfHolds, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
