package schema

import (
	"strings"
	"testing"

	"jxplain/internal/jsontype"
)

// Test helpers shared by the schema package tests.

func ty(src string) *jsontype.Type {
	t, err := jsontype.FromJSON([]byte(src))
	if err != nil {
		panic(err)
	}
	return t
}

func req(key string, s Schema) FieldSchema { return FieldSchema{Key: key, Schema: s} }

func tuple(required []FieldSchema, optional []FieldSchema) *ObjectTuple {
	return NewObjectTuple(required, optional)
}

func TestNewPrimitivePanicsOnComplex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPrimitive(array) should panic")
		}
	}()
	NewPrimitive(jsontype.KindArray)
}

func TestNodeKinds(t *testing.T) {
	cases := []struct {
		s    Schema
		want NodeKind
		name string
	}{
		{Number, NodePrimitive, "primitive"},
		{NewArrayTuple(Number), NodeArrayTuple, "array-tuple"},
		{tuple(nil, nil), NodeObjectTuple, "object-tuple"},
		{&ArrayCollection{Elem: Number}, NodeArrayCollection, "array-collection"},
		{&ObjectCollection{Value: Number}, NodeObjectCollection, "object-collection"},
		{&Union{}, NodeUnion, "union"},
	}
	for _, c := range cases {
		if c.s.Node() != c.want {
			t.Errorf("%T.Node() = %v", c.s, c.s.Node())
		}
		if c.s.Node().String() != c.name {
			t.Errorf("NodeKind.String() = %q, want %q", c.s.Node().String(), c.name)
		}
	}
	if NodeKind(99).String() != "invalid" {
		t.Error("invalid NodeKind string")
	}
}

func TestObjectTupleDuplicateKeyPanics(t *testing.T) {
	for _, c := range []struct {
		name               string
		required, optional []FieldSchema
	}{
		{"across required/optional", []FieldSchema{req("a", Number)}, []FieldSchema{req("a", String)}},
		{"twice in required", []FieldSchema{req("b", Number), req("a", Bool), req("b", String)}, []FieldSchema{req("c", Null)}},
		{"twice in optional", []FieldSchema{req("c", Null)}, []FieldSchema{req("b", Number), req("a", Bool), req("b", String)}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("duplicate key %s should panic", c.name)
				}
			}()
			NewObjectTuple(c.required, c.optional)
		}()
	}
}

func TestObjectTupleFieldLookup(t *testing.T) {
	o := tuple(
		[]FieldSchema{req("b", Number), req("a", String)},
		[]FieldSchema{req("c", Bool)},
	)
	if s, isReq := o.Field("a"); s != String || !isReq {
		t.Error("required lookup broken")
	}
	if s, isReq := o.Field("c"); s != Bool || isReq {
		t.Error("optional lookup broken")
	}
	if s, _ := o.Field("zz"); s != nil {
		t.Error("unknown key should return nil")
	}
	keys := o.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Errorf("Keys = %v", keys)
	}
}

func TestNewUnionFlattening(t *testing.T) {
	if s := NewUnion(Number); s != Number {
		t.Error("single-alt union should unwrap")
	}
	if s := NewUnion(nil, Number, nil); s != Number {
		t.Error("nil alternatives should be dropped")
	}
	u := NewUnion(Number, String)
	if un, ok := u.(*Union); !ok || len(un.Alts) != 2 {
		t.Error("two-alt union should stay a union")
	}
	if !IsEmpty(NewUnion()) || !IsEmpty(Empty()) {
		t.Error("empty union detection broken")
	}
	if IsEmpty(Number) {
		t.Error("primitive is not empty")
	}
}

func TestEqualAndCanon(t *testing.T) {
	a := tuple([]FieldSchema{req("x", Number)}, []FieldSchema{req("y", String)})
	b := tuple([]FieldSchema{req("x", Number)}, []FieldSchema{req("y", String)})
	c := tuple([]FieldSchema{req("x", Number), req("y", String)}, nil)
	if !Equal(a, b) {
		t.Error("identical schemas should be Equal")
	}
	if Equal(a, c) {
		t.Error("required vs optional must differ in canon")
	}
	if !Equal(nil, nil) || Equal(a, nil) || Equal(nil, a) {
		t.Error("nil handling broken")
	}
}

func TestCanonDistinguishesCollectionStats(t *testing.T) {
	a := &ArrayCollection{Elem: Number, MaxLen: 5}
	b := &ArrayCollection{Elem: Number, MaxLen: 9}
	if Equal(a, b) {
		t.Error("MaxLen should be part of canon")
	}
	c := &ObjectCollection{Value: Number, Domain: 5}
	d := &ObjectCollection{Value: Number, Domain: 6}
	if Equal(c, d) {
		t.Error("Domain should be part of canon")
	}
}

func TestWalkAndCounts(t *testing.T) {
	s := NewUnion(
		tuple([]FieldSchema{req("a", Number)}, nil),
		&ArrayCollection{Elem: tuple(nil, []FieldSchema{req("b", String)}), MaxLen: 3},
		NewArrayTuple(Number, Number),
	)
	// union + objtuple + number + arraycoll + objtuple + string + arraytuple + 2 numbers = 9 nodes
	if got := Size(s); got != 9 {
		t.Errorf("Size = %d, want 9", got)
	}
	if got := Entities(s); got != 3 {
		t.Errorf("Entities = %d, want 3", got)
	}
}

func TestStringRendering(t *testing.T) {
	s := NewUnion(
		tuple([]FieldSchema{req("ts", Number)}, []FieldSchema{req("user", String)}),
		&ArrayCollection{Elem: String},
		&ObjectCollection{Value: Number},
		NewArrayTuple(Number, Number),
		Null,
	)
	out := s.String()
	for _, want := range []string{"ts: ℝ", "user?: 𝕊", "[𝕊]*", "{*: ℝ}*", "[ℝ, ℝ]", "null", " | "} {
		if !strings.Contains(out, want) {
			t.Errorf("String() = %q missing %q", out, want)
		}
	}
	if Empty().String() != "(⊥)" {
		t.Errorf("empty schema renders as %q", Empty().String())
	}
}

func TestArrayTupleOptionalSuffixRendering(t *testing.T) {
	a := &ArrayTuple{Elems: []Schema{Number, Number, String}, MinLen: 2}
	if got := a.String(); got != "[ℝ, ℝ, 𝕊?]" {
		t.Errorf("optional suffix render = %q", got)
	}
}

func TestCanonKeyEscaping(t *testing.T) {
	a := tuple([]FieldSchema{req("x:y", Number)}, nil)
	b := tuple([]FieldSchema{req("x", &ObjectCollection{Value: Number})}, nil)
	if a.Canon() == b.Canon() {
		t.Error("key escaping failed")
	}
}
