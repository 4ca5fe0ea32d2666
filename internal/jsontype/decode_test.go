package jsontype

import (
	"testing"
)

func mustFromJSON(t *testing.T, s string) *Type {
	t.Helper()
	ty, err := FromJSON([]byte(s))
	if err != nil {
		t.Fatalf("FromJSON(%q): %v", s, err)
	}
	return ty
}

func TestFromJSONPrimitives(t *testing.T) {
	cases := map[string]*Type{
		"null":    Null,
		"true":    Bool,
		"false":   Bool,
		"3.25":    Number,
		"-17":     Number,
		`"hello"`: String,
		`""`:      String,
	}
	for src, want := range cases {
		if got := mustFromJSON(t, src); !Equal(got, want) {
			t.Errorf("FromJSON(%s) = %v, want %v", src, got, want)
		}
	}
}

func TestFromJSONComplex(t *testing.T) {
	got := mustFromJSON(t, `{"ts":7,"event":"login","user":{"name":"bob","geo":[1.5,-2.5]}}`)
	want := obj("ts", Number, "event", String,
		"user", obj("name", String, "geo", arr(Number, Number)))
	if !Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestFromJSONEmptyContainers(t *testing.T) {
	if got := mustFromJSON(t, `[]`); got.Kind() != KindArray || got.Len() != 0 {
		t.Errorf("empty array: %v", got)
	}
	if got := mustFromJSON(t, `{}`); got.Kind() != KindObject || got.Len() != 0 {
		t.Errorf("empty object: %v", got)
	}
}

func TestFromJSONDuplicateKeysLastWins(t *testing.T) {
	got := mustFromJSON(t, `{"a":1,"a":"x"}`)
	if !Equal(got, obj("a", String)) {
		t.Errorf("duplicate keys: got %v, want {a: 𝕊}", got)
	}
}

func TestFromJSONErrors(t *testing.T) {
	for _, src := range []string{``, `{`, `[1,`, `{"a"}`, `1 2`, `tru`} {
		if _, err := FromJSON([]byte(src)); err == nil {
			t.Errorf("FromJSON(%q) should fail", src)
		}
	}
}

func TestFromValue(t *testing.T) {
	v := map[string]any{
		"n":   nil,
		"b":   true,
		"f":   1.5,
		"i":   int(3),
		"s":   "x",
		"arr": []any{1.0, "y"},
		"o":   map[string]any{"k": false},
	}
	got, err := FromValue(v)
	if err != nil {
		t.Fatal(err)
	}
	want := obj("n", Null, "b", Bool, "f", Number, "i", Number, "s", String,
		"arr", arr(Number, String), "o", obj("k", Bool))
	if !Equal(got, want) {
		t.Errorf("FromValue = %v, want %v", got, want)
	}
}

func TestFromValueUnsupported(t *testing.T) {
	if _, err := FromValue(struct{}{}); err == nil {
		t.Error("FromValue(struct{}{}) should fail")
	}
	if _, err := FromValue([]any{struct{}{}}); err == nil {
		t.Error("nested unsupported value should fail")
	}
	if _, err := FromValue(map[string]any{"k": struct{}{}}); err == nil {
		t.Error("nested unsupported value should fail")
	}
}

func TestMustFromValuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFromValue should panic on unsupported input")
		}
	}()
	MustFromValue(make(chan int))
}

func TestFromJSONAgreesWithFromValue(t *testing.T) {
	src := `{"a":[1,{"b":null}],"c":"x","d":[[true]]}`
	viaJSON := mustFromJSON(t, src)
	viaValue := MustFromValue(map[string]any{
		"a": []any{1.0, map[string]any{"b": nil}},
		"c": "x",
		"d": []any{[]any{true}},
	})
	if !Equal(viaJSON, viaValue) {
		t.Errorf("FromJSON %v != FromValue %v", viaJSON, viaValue)
	}
}
