package jsontype

import (
	"sort"
	"strings"
	"testing"
)

func obj(pairs ...any) *Type {
	if len(pairs)%2 != 0 {
		panic("obj: odd number of arguments")
	}
	fields := make([]Field, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		fields = append(fields, Field{Key: pairs[i].(string), Type: pairs[i+1].(*Type)})
	}
	return NewObject(fields)
}

func arr(elems ...*Type) *Type { return NewArray(elems) }

func TestKindPredicates(t *testing.T) {
	prims := []Kind{KindNull, KindBool, KindNumber, KindString}
	for _, k := range prims {
		if !k.Primitive() {
			t.Errorf("%v should be primitive", k)
		}
		if k.Complex() {
			t.Errorf("%v should not be complex", k)
		}
	}
	for _, k := range []Kind{KindArray, KindObject} {
		if k.Primitive() {
			t.Errorf("%v should not be primitive", k)
		}
		if !k.Complex() {
			t.Errorf("%v should be complex", k)
		}
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindNull: "null", KindBool: "bool", KindNumber: "number",
		KindString: "string", KindArray: "array", KindObject: "object",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(99).String() != "invalid" {
		t.Errorf("invalid kind should stringify as invalid")
	}
}

func TestPrimitiveInterning(t *testing.T) {
	if NewPrimitive(KindNumber) != Number {
		t.Error("NewPrimitive(KindNumber) is not the interned Number")
	}
	if NewPrimitive(KindNull) != Null || NewPrimitive(KindBool) != Bool || NewPrimitive(KindString) != String {
		t.Error("primitive interning broken")
	}
}

func TestNewPrimitivePanicsOnComplex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPrimitive(KindArray) should panic")
		}
	}()
	NewPrimitive(KindArray)
}

func TestObjectFieldsSorted(t *testing.T) {
	o := obj("z", Number, "a", String, "m", Bool)
	keys := o.Keys()
	if !sort.StringsAreSorted(keys) {
		t.Errorf("object keys not sorted: %v", keys)
	}
	if got := o.Field("a"); got != String {
		t.Errorf("Field(a) = %v, want string", got)
	}
	if got := o.Field("z"); got != Number {
		t.Errorf("Field(z) = %v, want number", got)
	}
	if o.Field("missing") != nil {
		t.Error("Field(missing) should be nil")
	}
	if !o.HasField("m") || o.HasField("q") {
		t.Error("HasField broken")
	}
}

func TestDuplicateKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate key should panic")
		}
	}()
	obj("a", Number, "a", String)
}

func TestCanonEquality(t *testing.T) {
	a := obj("ts", Number, "event", String, "user", obj("name", String, "geo", arr(Number, Number)))
	b := obj("user", obj("geo", arr(Number, Number), "name", String), "event", String, "ts", Number)
	if a.Canon() != b.Canon() {
		t.Errorf("key order should not affect canon:\n%s\n%s", a.Canon(), b.Canon())
	}
	if !Equal(a, b) {
		t.Error("Equal should hold for structurally equal types")
	}
	c := obj("ts", String, "event", String)
	if Equal(a, c) {
		t.Error("Equal should fail for different types")
	}
	if Equal(a, nil) || Equal(nil, a) {
		t.Error("Equal with nil should be false")
	}
	if !Equal(nil, nil) {
		// nil == nil via pointer comparison
		t.Error("Equal(nil, nil) should be true")
	}
}

func TestCanonDistinguishesShapes(t *testing.T) {
	cases := []*Type{
		Null, Bool, Number, String,
		arr(), arr(Number), arr(Number, Number), arr(String),
		obj(), obj("a", Number), obj("a", String), obj("b", Number),
		obj("a", arr(Number)), obj("a", obj("b", Number)),
		arr(obj("a", Number)), arr(arr(Number)),
	}
	seen := map[string]*Type{}
	for _, c := range cases {
		if prev, ok := seen[c.Canon()]; ok {
			t.Errorf("canon collision between %v and %v: %q", prev, c, c.Canon())
		}
		seen[c.Canon()] = c
	}
}

func TestCanonKeyEscaping(t *testing.T) {
	// A key containing canon-structural characters must not collide with a
	// structurally different object.
	a := obj("a:b", Number)
	b := obj("a", obj("b", Number))
	if a.Canon() == b.Canon() {
		t.Errorf("escaping failed: %q == %q", a.Canon(), b.Canon())
	}
	c := obj(`x\y`, Number)
	d := obj(`x,y`, Number)
	if c.Canon() == d.Canon() {
		t.Error("escaped keys collide")
	}

	// The exact forms: each of the seven structural characters gains a
	// backslash wherever it sits in the key, and every other byte —
	// non-ASCII and invalid UTF-8 included — is copied as it is.
	for _, tc := range []struct{ key, want string }{
		{`x\y`, `{x\\y:r}`},
		{`x:y`, `{x\:y:r}`},
		{`x,y`, `{x\,y:r}`},
		{`x{y`, `{x\{y:r}`},
		{`x}y`, `{x\}y:r}`},
		{`x[y`, `{x\[y:r}`},
		{`x]y`, `{x\]y:r}`},
		{`\:,{}[]`, `{\\\:\,\{\}\[\]:r}`},
		{`:a]`, `{\:a\]:r}`},
		{"ключ€", "{ключ€:r}"},
		{"\xff\xfe:\x80", "{\xff\xfe\\:\x80:r}"},
		{"", "{:r}"},
	} {
		if got := obj(tc.key, Number).Canon(); got != tc.want {
			t.Errorf("Canon of {%q: ℝ} = %q, want %q", tc.key, got, tc.want)
		}
	}
}

func TestTypeString(t *testing.T) {
	ty := obj("event", String, "geo", arr(Number, Number), "ok", Bool, "x", Null)
	s := ty.String()
	for _, want := range []string{"event: 𝕊", "geo: [ℝ, ℝ]", "ok: 𝔹", "x: null"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestDepthAndSize(t *testing.T) {
	cases := []struct {
		t           *Type
		depth, size int
	}{
		{Number, 1, 1},
		{arr(), 1, 1},
		{obj(), 1, 1},
		{arr(Number), 2, 2},
		{obj("a", Number, "b", String), 2, 3},
		{obj("a", arr(obj("b", Number))), 4, 4},
	}
	for _, c := range cases {
		if got := c.t.Depth(); got != c.depth {
			t.Errorf("%v.Depth() = %d, want %d", c.t, got, c.depth)
		}
		if got := c.t.Size(); got != c.size {
			t.Errorf("%v.Size() = %d, want %d", c.t, got, c.size)
		}
	}
}

func TestLenElemFields(t *testing.T) {
	a := arr(Number, String)
	if a.Len() != 2 || a.Elem(0) != Number || a.Elem(1) != String {
		t.Error("array accessors broken")
	}
	if len(a.Elems()) != 2 {
		t.Error("Elems broken")
	}
	o := obj("k", Bool)
	if o.Len() != 1 || len(o.Fields()) != 1 {
		t.Error("object accessors broken")
	}
	if Number.Len() != 0 {
		t.Error("primitive Len should be 0")
	}
	if o.Keys() == nil || a.Keys() != nil {
		t.Error("Keys: objects return keys, arrays return nil")
	}
	ks := o.KeySet()
	if !ks["k"] || len(ks) != 1 {
		t.Error("KeySet broken")
	}
}
