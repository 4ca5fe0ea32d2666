package schema

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// Native JSON encoding for schemas, so discovered schemas can be saved by
// cmd/jxplain and reloaded by cmd/jxvalidate. The encoding is a tagged
// tree: {"node": "...", ...}. It round-trips exactly (including Domain and
// MaxLen statistics, which JSON-Schema export does not carry).
//
// Marshal writes the bytes json.MarshalIndent(…, "", "  ") would write for
// the encodedSchema tree of s, without building the tree: the tests hold
// the two equal byte for byte, and Unmarshal reads through encodedSchema.

type encodedSchema struct {
	Node     string          `json:"node"`
	Kind     string          `json:"kind,omitempty"`     // primitive
	Elems    []encodedSchema `json:"elems,omitempty"`    // array tuple
	MinLen   *int            `json:"minLen,omitempty"`   // array tuple
	Required []encodedField  `json:"required,omitempty"` // object tuple
	Optional []encodedField  `json:"optional,omitempty"` // object tuple
	Elem     *encodedSchema  `json:"elem,omitempty"`     // array collection
	MaxLen   int             `json:"maxLen,omitempty"`   // array collection
	Value    *encodedSchema  `json:"value,omitempty"`    // object collection
	Domain   int             `json:"domain,omitempty"`   // object collection
	Alts     []encodedSchema `json:"alts,omitempty"`     // union
}

type encodedField struct {
	Key    string        `json:"key"`
	Schema encodedSchema `json:"schema"`
}

func decode(e encodedSchema) (Schema, error) {
	switch e.Node {
	case "primitive":
		switch e.Kind {
		case "null":
			return Null, nil
		case "bool":
			return Bool, nil
		case "number":
			return Number, nil
		case "string":
			return String, nil
		}
		return nil, fmt.Errorf("schema: unknown primitive kind %q", e.Kind)
	case "arrayTuple":
		elems := make([]Schema, len(e.Elems))
		for i, enc := range e.Elems {
			var err error
			if elems[i], err = decode(enc); err != nil {
				return nil, err
			}
		}
		minLen := len(elems)
		if e.MinLen != nil {
			minLen = *e.MinLen
		}
		if minLen < 0 || minLen > len(elems) {
			return nil, fmt.Errorf("schema: invalid arrayTuple minLen %d for %d elems", minLen, len(elems))
		}
		return &ArrayTuple{Elems: elems, MinLen: minLen}, nil
	case "objectTuple":
		required := make([]FieldSchema, 0, len(e.Required))
		for _, f := range e.Required {
			s, err := decode(f.Schema)
			if err != nil {
				return nil, err
			}
			required = append(required, FieldSchema{Key: f.Key, Schema: s})
		}
		optional := make([]FieldSchema, 0, len(e.Optional))
		for _, f := range e.Optional {
			s, err := decode(f.Schema)
			if err != nil {
				return nil, err
			}
			optional = append(optional, FieldSchema{Key: f.Key, Schema: s})
		}
		return NewObjectTuple(required, optional), nil
	case "arrayCollection":
		if e.Elem == nil {
			return nil, fmt.Errorf("schema: arrayCollection missing elem")
		}
		elem, err := decode(*e.Elem)
		if err != nil {
			return nil, err
		}
		return &ArrayCollection{Elem: elem, MaxLen: e.MaxLen}, nil
	case "objectCollection":
		if e.Value == nil {
			return nil, fmt.Errorf("schema: objectCollection missing value")
		}
		value, err := decode(*e.Value)
		if err != nil {
			return nil, err
		}
		return &ObjectCollection{Value: value, Domain: e.Domain}, nil
	case "union":
		alts := make([]Schema, len(e.Alts))
		for i, enc := range e.Alts {
			var err error
			if alts[i], err = decode(enc); err != nil {
				return nil, err
			}
		}
		return &Union{Alts: alts}, nil
	}
	return nil, fmt.Errorf("schema: unknown node %q", e.Node)
}

// maxNativeDepth is the deepest nesting of JSON objects and arrays the
// native encoding may hold: encoding/json, and so Unmarshal, refuses
// anything deeper. One schema level takes one to three of them.
const maxNativeDepth = 10000

// Marshal renders s in the native JSON encoding, indented by two spaces.
// A first pass measures the encoding, so Marshal refuses, before writing,
// a schema whose encoding would nest deeper than encoding/json's 10,000
// levels, which Unmarshal could not read back, and writes into one buffer
// of the exact size.
func Marshal(s Schema) ([]byte, error) {
	m := nativeWriter{measure: true}
	m.schema(s, 0)
	if m.depth > maxNativeDepth {
		return nil, fmt.Errorf("schema: native encoding would nest %d levels, past the limit of %d", m.depth, maxNativeDepth)
	}
	w := nativeWriter{buf: make([]byte, 0, m.size)}
	w.schema(s, 0)
	return w.buf, nil
}

// nativeWriter appends the indented native encoding to buf or, measuring,
// only counts the bytes it would append and the deepest nesting it would
// reach. Each method writes one JSON value whose first line is already
// indented and whose closing line sits at indent level d; a schema's
// object there nests d+1 levels deep, and nothing nests deeper than the
// schema objects, since every array written holds them.
type nativeWriter struct {
	buf     []byte
	measure bool
	size    int
	depth   int
}

// nativeIndent is a run of the indent unit, copied from in slices.
const nativeIndent = "                                                                "

func (w *nativeWriter) put(s string) {
	if w.measure {
		w.size += len(s)
		return
	}
	w.buf = append(w.buf, s...)
}

func (w *nativeWriter) newline(d int) {
	w.put("\n")
	for n := 2 * d; n > 0; n -= len(nativeIndent) {
		w.put(nativeIndent[:min(n, len(nativeIndent))])
	}
}

// member starts the member name of an object whose closing line sits at
// level d.
func (w *nativeWriter) member(d int, name string, first bool) {
	if !first {
		w.put(",")
	}
	w.newline(d + 1)
	w.put(`"`)
	w.put(name)
	w.put(`": `)
}

func (w *nativeWriter) number(n int) {
	var digits [20]byte
	w.put(string(strconv.AppendInt(digits[:0], int64(n), 10)))
}

// str writes s as a JSON string. A string of printable ASCII that needs no
// escape is copied; any other goes through encoding/json, so escaping
// (HTML characters, control characters, U+2028 and U+2029, invalid UTF-8)
// stays exactly MarshalIndent's.
func (w *nativeWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			w.put(string(quoted))
			return
		}
	}
	w.put(`"`)
	w.put(s)
	w.put(`"`)
}

func (w *nativeWriter) schema(s Schema, d int) {
	w.depth = max(w.depth, d+1)
	w.put("{")
	w.member(d, "node", true)
	switch n := s.(type) {
	case *Primitive:
		w.str("primitive")
		w.member(d, "kind", false)
		w.str(n.K.String())
	case *ArrayTuple:
		w.str("arrayTuple")
		w.schemas(d, "elems", n.Elems)
		w.member(d, "minLen", false)
		w.number(n.MinLen)
	case *ObjectTuple:
		w.str("objectTuple")
		w.fields(d, "required", n.Required)
		w.fields(d, "optional", n.Optional)
	case *ArrayCollection:
		w.str("arrayCollection")
		w.member(d, "elem", false)
		w.schema(n.Elem, d+1)
		if n.MaxLen != 0 {
			w.member(d, "maxLen", false)
			w.number(n.MaxLen)
		}
	case *ObjectCollection:
		w.str("objectCollection")
		w.member(d, "value", false)
		w.schema(n.Value, d+1)
		if n.Domain != 0 {
			w.member(d, "domain", false)
			w.number(n.Domain)
		}
	case *Union:
		w.str("union")
		w.schemas(d, "alts", n.Alts)
	default:
		mustSchema(false, "unknown schema node %T", s)
	}
	w.newline(d)
	w.put("}")
}

// schemas writes a list of schemas, omitted when empty.
func (w *nativeWriter) schemas(d int, name string, list []Schema) {
	if len(list) == 0 {
		return
	}
	w.member(d, name, false)
	w.put("[")
	for i, s := range list {
		if i > 0 {
			w.put(",")
		}
		w.newline(d + 2)
		w.schema(s, d+2)
	}
	w.newline(d + 1)
	w.put("]")
}

// fields writes an object tuple's field list, omitted when empty.
func (w *nativeWriter) fields(d int, name string, fields []FieldSchema) {
	if len(fields) == 0 {
		return
	}
	w.member(d, name, false)
	w.put("[")
	for i, f := range fields {
		if i > 0 {
			w.put(",")
		}
		w.newline(d + 2)
		w.put("{")
		w.member(d+2, "key", true)
		w.str(f.Key)
		w.member(d+2, "schema", false)
		w.schema(f.Schema, d+3)
		w.newline(d + 2)
		w.put("}")
	}
	w.newline(d + 1)
	w.put("]")
}

// Unmarshal parses the native JSON encoding produced by Marshal.
func Unmarshal(data []byte) (Schema, error) {
	var e encodedSchema
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, err
	}
	return decode(e)
}
