package schema

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"runtime/debug"
	"strings"
	"testing"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// encode builds the encodedSchema tree of s. Rendered by
// json.MarshalIndent(encode(s), "", "  "), it is the byte oracle Marshal
// must equal.
func encode(s Schema) encodedSchema {
	switch n := s.(type) {
	case *Primitive:
		return encodedSchema{Node: "primitive", Kind: n.K.String()}
	case *ArrayTuple:
		elems := make([]encodedSchema, len(n.Elems))
		for i, e := range n.Elems {
			elems[i] = encode(e)
		}
		minLen := n.MinLen
		enc := encodedSchema{Node: "arrayTuple", MinLen: &minLen}
		if len(elems) > 0 {
			enc.Elems = elems
		}
		return enc
	case *ObjectTuple:
		enc := encodedSchema{Node: "objectTuple"}
		for _, f := range n.Required {
			enc.Required = append(enc.Required, encodedField{Key: f.Key, Schema: encode(f.Schema)})
		}
		for _, f := range n.Optional {
			enc.Optional = append(enc.Optional, encodedField{Key: f.Key, Schema: encode(f.Schema)})
		}
		return enc
	case *ArrayCollection:
		elem := encode(n.Elem)
		return encodedSchema{Node: "arrayCollection", Elem: &elem, MaxLen: n.MaxLen}
	case *ObjectCollection:
		value := encode(n.Value)
		return encodedSchema{Node: "objectCollection", Value: &value, Domain: n.Domain}
	case *Union:
		alts := make([]encodedSchema, len(n.Alts))
		for i, a := range n.Alts {
			alts[i] = encode(a)
		}
		enc := encodedSchema{Node: "union"}
		if len(alts) > 0 {
			enc.Alts = alts
		}
		return enc
	}
	mustSchema(false, "unknown schema node %T", s)
	return encodedSchema{}
}

func marshalOracle(s Schema) ([]byte, error) {
	return json.MarshalIndent(encode(s), "", "  ")
}

// TestMarshalMatchesOracle holds Marshal to the oracle's bytes on every
// production, empty lists, zero and negative statistics, and keys that
// need escaping: quote, backslash, the HTML characters, control
// characters, U+2028/U+2029, non-ASCII text and invalid UTF-8.
func TestMarshalMatchesOracle(t *testing.T) {
	odd := []string{"", `q"uote`, `back\slash`, "</script>", "a&b", "\x00\x01\n\t\r\b\f\x7f",
		"ls\u2028ps\u2029", "é", "raw\xffbyte", "\xc3", "a.b", "[*]", "{*}"}
	var fields []FieldSchema
	for _, k := range odd {
		fields = append(fields, FieldSchema{Key: k, Schema: String})
	}
	for _, s := range []Schema{
		sampleSchema(), Empty(), tuple(nil, nil), NewArrayTuple(),
		&ArrayTuple{Elems: []Schema{Null}, MinLen: 0},
		&ArrayCollection{Elem: Empty(), MaxLen: 0},
		&ArrayCollection{Elem: Number, MaxLen: -3},
		&ObjectCollection{Value: NewUnion(), Domain: -1},
		&ObjectTuple{Required: fields, Optional: fields[:3]},
		NewUnion(&ObjectTuple{Optional: fields}, NewArrayTuple(NewArrayTuple(Bool))),
	} {
		got, err := Marshal(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		want, err := marshalOracle(s)
		if err != nil {
			t.Fatalf("%s: oracle: %v", s, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\ngot:  %s\nwant: %s", s, got, want)
		}
	}
}

// TestMarshalDepthBoundary builds schemas whose native encoding nests just
// within and just past encoding/json's 10,000 levels: object tuples one
// field deep (three levels each) over a primitive, at 3,333 (exactly
// 10,000) and 3,334 levels, and array tuples of one element (two levels
// each) at 4,999 (9,999) and 5,000 (10,001). Marshal must succeed where
// the oracle does, with its bytes, and refuse where it fails.
//
// At the boundary the indentation alone is a few hundred megabytes. So
// each output is hashed and dropped before the next is made, the oracle
// indents into a buffer of Marshal's size (MarshalIndent is Marshal
// followed by the appendIndent that Indent runs, so its bytes and its
// error are the oracle's), and a soft memory limit makes the collector
// return the dropped buffers: the test peaks near 0.4 GB instead of 0.8.
// It is skipped under -short and -race.
func TestMarshalDepthBoundary(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("writes hundreds of megabytes")
	}
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(256 << 20))
	objects := func(levels int) Schema {
		var s Schema = Number
		for range levels {
			s = &ObjectTuple{Required: []FieldSchema{{Key: "a", Schema: s}}}
		}
		return s
	}
	arrays := func(levels int) Schema {
		var s Schema = Number
		for range levels {
			s = NewArrayTuple(s)
		}
		return s
	}
	for _, c := range []struct {
		name  string
		s     Schema
		depth int
	}{
		{"objects 3333", objects(3333), 10000},
		{"objects 3334", objects(3334), 10003},
		{"arrays 4999", arrays(4999), 9999},
		{"arrays 5000", arrays(5000), 10001},
	} {
		m := nativeWriter{measure: true}
		if m.schema(c.s, 0); m.depth != c.depth {
			t.Errorf("%s: depth %d, want %d", c.name, m.depth, c.depth)
		}
		data, err := Marshal(c.s)
		got, size := sha256.Sum256(data), len(data)
		data = nil
		debug.FreeOSMemory()

		compact, oracleErr := json.Marshal(encode(c.s))
		if oracleErr != nil {
			t.Fatalf("%s: %v", c.name, oracleErr)
		}
		indented := bytes.NewBuffer(make([]byte, 0, size))
		oracleErr = json.Indent(indented, compact, "", "  ")
		want := sha256.Sum256(indented.Bytes())
		indented = nil
		debug.FreeOSMemory()

		switch {
		case (err == nil) != (oracleErr == nil):
			t.Errorf("%s: Marshal error %v, oracle error %v", c.name, err, oracleErr)
		case err != nil && !strings.Contains(err.Error(), "10000"):
			t.Errorf("%s: error %q does not name the limit", c.name, err)
		case err == nil && got != want:
			t.Errorf("%s: Marshal bytes differ from the oracle's", c.name)
		}
	}
}

// FuzzNativeMarshal holds Marshal to the oracle's bytes on schemas drawn
// from the fuzz input, with keys of arbitrary bytes.
func FuzzNativeMarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 1, 1, 'a', 0, 1, 1, 0xff, 0, 3})
	f.Add([]byte{5, 3, 2, 1, 0, 3, 0xe2, 0x80, 0xa8, 0, 1, 1, 2, 0, 1, 3, 0, 1})
	f.Add([]byte{4, 0x80, 3, 0xfe, 1, 2, 5, 0, 2})
	f.Add([]byte("\x02\x03\x01\x09</script>\x00\x01\x05a\"b\\c\x01\x02\x04\x03\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzSchemaReader{data: data}
		s := r.schema(6)
		got, err := Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := marshalOracle(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Marshal differs from the oracle:\ngot:  %s\nwant: %s", got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("measured %d bytes, wrote %d", cap(got), len(got))
		}
	})
}

// fuzzSchemaReader draws a schema from bytes: one byte picks each node's
// production, further bytes its child counts and statistics, and a key
// is a length byte and that many raw bytes. Past the input, every byte
// reads as zero, which ends the schema in primitives.
type fuzzSchemaReader struct{ data []byte }

func (r *fuzzSchemaReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *fuzzSchemaReader) key() string {
	n := min(int(r.byte()%16), len(r.data))
	k := string(r.data[:n])
	r.data = r.data[n:]
	return k
}

func (r *fuzzSchemaReader) fields(depth int) []FieldSchema {
	var out []FieldSchema
	for range r.byte() % 4 {
		out = append(out, FieldSchema{Key: r.key(), Schema: r.schema(depth - 1)})
	}
	return out
}

func (r *fuzzSchemaReader) schema(depth int) Schema {
	b := r.byte()
	if depth == 0 {
		b = 0
	}
	switch b % 6 {
	case 1:
		a := &ArrayTuple{}
		for range r.byte() % 4 {
			a.Elems = append(a.Elems, r.schema(depth-1))
		}
		a.MinLen = int(r.byte()) % (len(a.Elems) + 1)
		return a
	case 2:
		return &ObjectTuple{Required: r.fields(depth), Optional: r.fields(depth)}
	case 3:
		return &ArrayCollection{Elem: r.schema(depth - 1), MaxLen: int(int8(r.byte()))}
	case 4:
		return &ObjectCollection{Value: r.schema(depth - 1), Domain: int(int8(r.byte())) * 1000}
	case 5:
		u := &Union{}
		for range r.byte() % 4 {
			u.Alts = append(u.Alts, r.schema(depth-1))
		}
		return u
	}
	return []Schema{Null, Bool, Number, String}[r.byte()%4]
}
