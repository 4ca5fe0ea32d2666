package jsontype

import (
	"strings"
	"testing"
)

func codecSampleTypes(t *testing.T) []*Type {
	t.Helper()
	docs := []string{
		`null`,
		`true`,
		`3.5`,
		`"s"`,
		`[]`,
		`{}`,
		`[1, "a", null]`,
		`{"id": 1, "name": "x"}`,
		`{"id": 1, "geo": [1.0, 2.0], "tags": ["a"], "meta": {"k": {"deep": [[true]]}}}`,
		`{"a\\b": 1, "c:d": "x", "e,f": [1], "g{h}": {"i[j]": null}}`,
	}
	out := make([]*Type, len(docs))
	for i, doc := range docs {
		ty, err := FromJSON([]byte(doc))
		if err != nil {
			t.Fatalf("FromJSON(%s): %v", doc, err)
		}
		out[i] = ty
	}
	return out
}

// TestTypeCodecRoundTripIdentity pins the codec's defining property: a
// decoded reference resolves to the *same pointer* as the encoded type,
// because decoding re-interns every entry. Pointer identity — not just
// structural equality — is what Bag dedup and the merge memo rely on.
func TestTypeCodecRoundTripIdentity(t *testing.T) {
	types := codecSampleTypes(t)
	enc := NewTypeEncoder()
	refs := make([]uint64, len(types))
	for i, ty := range types {
		refs[i] = enc.Ref(ty)
	}
	data := enc.Append(nil)

	dec, n, err := DecodeTypeTable(data)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(data))
	}
	for i, ty := range types {
		got, err := dec.Type(refs[i])
		if err != nil {
			t.Fatal(err)
		}
		if got != ty {
			t.Errorf("type %d (%s): decoded to a different pointer (canon %q vs %q)",
				i, ty, got.Canon(), ty.Canon())
		}
	}
}

// TestTypeCodecSharedSubtreesEncodedOnce checks the table dedups repeated
// subtrees through the ref map.
func TestTypeCodecSharedSubtreesEncodedOnce(t *testing.T) {
	inner := MustFromValue(map[string]any{"x": 1.0, "y": 2.0})
	a := NewArray([]*Type{inner, inner})
	b := NewObject([]Field{{Key: "p", Type: inner}, {Key: "q", Type: a}})

	enc := NewTypeEncoder()
	enc.Ref(a)
	enc.Ref(b)
	// inner, a, b: exactly three complex entries despite four references.
	if enc.Len() != 3 {
		t.Fatalf("table has %d entries, want 3", enc.Len())
	}
}

// TestTypeCodecNilAndPrimitiveRefs checks the reserved reference space.
func TestTypeCodecNilAndPrimitiveRefs(t *testing.T) {
	enc := NewTypeEncoder()
	if r := enc.Ref(nil); r != 0 {
		t.Errorf("nil ref = %d, want 0", r)
	}
	prims := []*Type{Null, Bool, Number, String}
	for i, p := range prims {
		if r := enc.Ref(p); r != uint64(i)+1 {
			t.Errorf("%s ref = %d, want %d", p, enc.Ref(p), i+1)
		}
	}
	if enc.Len() != 0 {
		t.Fatalf("primitives must not occupy table entries, got %d", enc.Len())
	}
	data := enc.Append(nil)
	dec, _, err := DecodeTypeTable(data)
	if err != nil {
		t.Fatal(err)
	}
	if ty, err := dec.Type(0); err != nil || ty != nil {
		t.Errorf("Type(0) = %v, %v; want nil, nil", ty, err)
	}
	for i, p := range prims {
		ty, err := dec.Type(uint64(i) + 1)
		if err != nil || ty != p {
			t.Errorf("Type(%d) = %v, %v; want %s", i+1, ty, err, p)
		}
	}
}

// TestTypeCodecRejectsMalformed feeds the decoder the corruption classes
// it must reject without panicking.
func TestTypeCodecRejectsMalformed(t *testing.T) {
	enc := NewTypeEncoder()
	enc.Ref(MustFromValue(map[string]any{"a": 1.0, "b": []any{"x"}}))
	valid := enc.Append(nil)

	// Truncations at every prefix length.
	for i := 0; i < len(valid); i++ {
		if _, _, err := DecodeTypeTable(valid[:i]); err == nil {
			// A prefix may still parse as a shorter valid table only if the
			// consumed length is reported; DecodeTypeTable of a strict prefix
			// of a table with entries must fail or consume fewer bytes.
			dec, n, _ := DecodeTypeTable(valid[:i])
			if dec != nil && n > i {
				t.Fatalf("truncated input at %d consumed %d bytes", i, n)
			}
		}
	}

	cases := map[string][]byte{
		"bad kind":         {1, 9, 0},
		"forward ref":      {2, byte(KindArray), 1, 6},          // entry 0 referencing entry 1
		"self ref":         {1, byte(KindArray), 1, 5},          // entry 0 referencing itself
		"nil child":        {1, byte(KindArray), 1, 0},          // ref 0 as a child
		"huge count":       {1, byte(KindArray), 255, 255, 127}, // element count beyond input
		"table too big":    {255, 255, 255, 127},
		"primitive entry":  {1, byte(KindNull)},
		"unsorted keys":    {1, byte(KindObject), 2, 1, 'b', 1, 1, 'a', 1},
		"duplicate keys":   {1, byte(KindObject), 2, 1, 'a', 1, 1, 'a', 1},
		"key past end":     {1, byte(KindObject), 1, 200, 'a'},
		"overlong varint":  append([]byte{}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80),
		"out of range ref": nil, // handled below via dec.Type
	}
	for name, data := range cases {
		if data == nil {
			continue
		}
		if _, _, err := DecodeTypeTable(data); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}

	dec, _, err := DecodeTypeTable([]byte{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Type(firstComplexRef); err == nil {
		t.Error("out-of-range ref resolved without error")
	}
}

// TestTypeCodecDepthBound pins the type table to the scanner's nesting
// bound: a type nested MaxDepth levels, alternating arrays and objects,
// decodes, and one level more is an error, not a type later passes would
// recurse through.
func TestTypeCodecDepthBound(t *testing.T) {
	nested := func(levels int) []byte {
		ty := Null
		for i := 0; i < levels; i++ {
			if i%2 == 0 {
				ty = NewArray([]*Type{Number, ty})
			} else {
				ty = NewObject([]Field{{Key: "k", Type: ty}})
			}
		}
		enc := NewTypeEncoder()
		enc.Ref(ty)
		return enc.Append(nil)
	}
	if _, _, err := DecodeTypeTable(nested(MaxDepth)); err != nil {
		t.Fatalf("depth %d: %v", MaxDepth, err)
	}
	_, _, err := DecodeTypeTable(nested(MaxDepth + 1))
	if err == nil || !strings.Contains(err.Error(), "nests deeper than") {
		t.Fatalf("depth %d: got %v, want a nesting error", MaxDepth+1, err)
	}
}

// TestRestoreSimilarityAccumulator checks the restore constructor against
// live accumulators in all three observable states.
func TestRestoreSimilarityAccumulator(t *testing.T) {
	a := MustFromValue(map[string]any{"x": 1.0})
	b := MustFromValue(map[string]any{"y": "s"})
	c := MustFromValue([]any{1.0})

	var live SimilarityAccumulator
	live.Add(a)
	live.Add(b)
	restored := RestoreSimilarityAccumulator(live.Max(), live.Similar())
	if restored.Similar() != live.Similar() || restored.Max() != live.Max() {
		t.Fatal("similar-state restore diverges")
	}
	// Both must keep evolving identically.
	live.Add(c)
	restored.Add(c)
	if restored.Similar() != live.Similar() || restored.Max() != live.Max() {
		t.Fatal("restored accumulator diverges after further adds")
	}

	empty := RestoreSimilarityAccumulator(nil, true)
	if !empty.Similar() || empty.Max() != nil {
		t.Fatal("empty restore diverges")
	}
	bad := RestoreSimilarityAccumulator(nil, false)
	if bad.Similar() || bad.Max() != nil {
		t.Fatal("dissimilar restore diverges")
	}
	var combined SimilarityAccumulator
	combined.Add(a)
	combined.Combine(&bad)
	if combined.Similar() {
		t.Fatal("dissimilar restore must latch through Combine")
	}
}

// TestTypeCodecCanonStability re-encodes a decoded table and checks the
// bytes are identical — the codec is canonical for a given insertion
// order.
func TestTypeCodecCanonStability(t *testing.T) {
	types := codecSampleTypes(t)
	enc := NewTypeEncoder()
	for _, ty := range types {
		enc.Ref(ty)
	}
	data := enc.Append(nil)
	dec, _, err := DecodeTypeTable(data)
	if err != nil {
		t.Fatal(err)
	}
	re := NewTypeEncoder()
	for _, ty := range dec.table {
		re.Ref(ty)
	}
	got := re.Append(nil)
	if string(got) != string(data) {
		t.Fatalf("re-encode diverges:\n% x\nvs\n% x", got, data)
	}
	if strings.Contains(string(data), "\x00\x00\x00\x00\x00\x00\x00\x00") {
		t.Log("table contains a zero run (informational)")
	}
}
