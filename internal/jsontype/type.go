// Package jsontype implements the structural type system for JSON values
// described in Section 2 of "Reducing Ambiguity in Json Schema Discovery"
// (SIGMOD 2021). A Type describes the shape of a single JSON value:
// primitives are atomic kinds; arrays carry one element type per position;
// objects carry a key-sorted list of field types.
//
// Types are immutable and hash-consed: the constructors intern every type
// through a sharded global table keyed by a 64-bit structural hash, so
// structurally equal types are the *same pointer*. Equality is pointer
// identity, deduplication keys are dense uint64 ids, and the canonical
// string form — which the pre-interning implementation rebuilt on every
// hot-path comparison — is computed lazily, only when something actually
// prints or serializes a type.
package jsontype

import (
	"sort"
	"strings"
	"sync/atomic"
)

// Kind enumerates the six JSON kinds of Figure 2: the four primitive kinds
// (null, boolean, number, string) and the two complex kinds (array, object).
type Kind uint8

// The six JSON kinds.
const (
	KindNull Kind = iota
	KindBool
	KindNumber
	KindString
	KindArray
	KindObject
)

// Primitive reports whether the kind is one of null, bool, number, string.
func (k Kind) Primitive() bool { return k <= KindString }

// Complex reports whether the kind is array or object.
func (k Kind) Complex() bool { return k >= KindArray }

// String returns the conventional name of the kind. Complex kinds use the
// paper's calligraphic A / O abbreviations spelled out.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindArray:
		return "array"
	case KindObject:
		return "object"
	}
	return "invalid"
}

// Field is a single key → type mapping inside an object type.
type Field struct {
	Key  string
	Type *Type
}

// Type is the structural type of one JSON value (Figure 2):
//
//	τ := 𝔹 | ℝ | 𝕊 | null | [τ₁,…,τₙ] | {k₁:τ₁,…,kₙ:τₙ}
//
// For objects, Fields is sorted by key and keys are unique. For arrays,
// Elems holds one type per position. Primitive types carry no children.
//
// Every Type is interned (see intern.go): structurally equal types are the
// same pointer, so a Type must never be mutated after construction.
//
//jx:immutable
type Type struct {
	kind   Kind
	height uint8                  // 1 + the tallest child's, at most slabHeights (intern.go)
	elems  []*Type                // array positions
	fields []Field                // object fields, key-sorted
	id     uint64                 // dense unique id, assigned at intern time
	canon  atomic.Pointer[string] // lazily built canonical form
}

// Singleton primitive types. Primitives are interned: NewPrimitive always
// returns one of these four.
var (
	Null   = newPrimitiveSingleton(KindNull, "n")
	Bool   = newPrimitiveSingleton(KindBool, "b")
	Number = newPrimitiveSingleton(KindNumber, "r")
	String = newPrimitiveSingleton(KindString, "s")
)

// NewPrimitive returns the interned primitive type for kind k.
// It panics if k is a complex kind.
func NewPrimitive(k Kind) *Type {
	switch k {
	case KindNull:
		return Null
	case KindBool:
		return Bool
	case KindNumber:
		return Number
	case KindString:
		return String
	}
	panic("jsontype: NewPrimitive called with complex kind " + k.String())
}

// NewArray returns the interned array type [elems...]. The slice may be
// retained; callers must not mutate it afterwards.
func NewArray(elems []*Type) *Type {
	return internArray(elems)
}

// NewObject returns the interned object type with the given fields. The
// slice is sorted in place by key and may be retained; callers must not
// mutate it afterwards. Duplicate keys are not permitted and panic,
// mirroring the JSON RFC's recommendation that keys be unique. The sort is
// the scanner's (sortFieldsStable), which allocates nothing below 25
// fields; keys are unique, so any sort gives this order.
func NewObject(fields []Field) *Type {
	sortFieldsStable(fields)
	for i := 1; i < len(fields); i++ {
		if fields[i].Key == fields[i-1].Key {
			panic("jsontype: duplicate object key " + fields[i].Key)
		}
	}
	return internObject(hashFields(fields), fields, false)
}

// Kind returns the kind of the type.
//
//jx:hotpath
func (t *Type) Kind() Kind { return t.kind }

// Len returns the number of fields (objects) or positions (arrays).
// It is 0 for primitives.
//
//jx:hotpath
func (t *Type) Len() int {
	if t.kind == KindArray {
		return len(t.elems)
	}
	return len(t.fields)
}

// Elem returns the element type at array position i.
//
//jx:hotpath
func (t *Type) Elem(i int) *Type { return t.elems[i] }

// Elems returns the array's element types. The returned slice must not be
// mutated.
//
//jx:hotpath
func (t *Type) Elems() []*Type { return t.elems }

// Fields returns the object's key-sorted fields. The returned slice must
// not be mutated.
//
//jx:hotpath
func (t *Type) Fields() []Field { return t.fields }

// Field returns the type mapped under key, or nil if the key is absent.
func (t *Type) Field(key string) *Type {
	i := sort.Search(len(t.fields), func(i int) bool { return t.fields[i].Key >= key })
	if i < len(t.fields) && t.fields[i].Key == key {
		return t.fields[i].Type
	}
	return nil
}

// HasField reports whether the object type maps key.
func (t *Type) HasField(key string) bool { return t.Field(key) != nil }

// Keys returns the object's keys in sorted order (keys(τ) in the paper).
// For arrays it returns nil; array "keys" are the indices 0..Len-1.
func (t *Type) Keys() []string {
	if t.kind != KindObject {
		return nil
	}
	keys := make([]string, len(t.fields))
	for i, f := range t.fields {
		keys[i] = f.Key
	}
	return keys
}

// KeySet returns the object's keys as a set.
func (t *Type) KeySet() map[string]bool {
	set := make(map[string]bool, len(t.fields))
	for _, f := range t.fields {
		set[f.Key] = true
	}
	return set
}

// ID returns the type's dense unique intern id (1-based). Two types have
// the same id iff they are the same pointer, so ids are collision-free
// deduplication keys — this is what Bag keys on. Ids are stable for the
// life of the process but depend on intern order, so they must never leak
// into serialized output.
//
//jx:hotpath
func (t *Type) ID() uint64 { return t.id }

// Canon returns the canonical string form of the type. Two types are
// structurally equal iff their canonical forms are equal. The form is
// built lazily on first call and cached; interning keeps it off the hot
// path entirely (deduplication uses ids, not strings).
func (t *Type) Canon() string {
	if p := t.canon.Load(); p != nil {
		return *p
	}
	s := string(t.appendCanon(nil))
	t.canon.Store(&s)
	return s
}

// Equal reports structural equality. Interning makes this pointer
// identity.
func Equal(a, b *Type) bool { return a == b }

// appendCanon appends the canonical form of t to b and returns the
// extended slice. It reads the cached form of any subtree that has one
// but caches nothing.
func (t *Type) appendCanon(b []byte) []byte {
	if p := t.canon.Load(); p != nil {
		return append(b, *p...)
	}
	switch t.kind {
	case KindNull:
		b = append(b, 'n')
	case KindBool:
		b = append(b, 'b')
	case KindNumber:
		b = append(b, 'r')
	case KindString:
		b = append(b, 's')
	case KindArray:
		b = append(b, '[')
		for i, e := range t.elems {
			if i > 0 {
				b = append(b, ',')
			}
			b = e.appendCanon(b)
		}
		b = append(b, ']')
	case KindObject:
		b = append(b, '{')
		for i, f := range t.fields {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendCanonKey(b, f.Key)
			b = append(b, ':')
			b = f.Type.appendCanon(b)
		}
		b = append(b, '}')
	}
	return b
}

// canonHash folds the canonical form of t into the FNV-1a state h and
// returns the new state: fnv1a(h, t.appendCanon(nil)), byte for byte,
// without writing the form out. A subtree with a cached form hashes that
// string; keys are escaped as appendCanonKey escapes them. The primitives
// are singletons whose forms are cached when they are built, so only
// arrays and objects are walked.
func (t *Type) canonHash(h uint64) uint64 {
	if p := t.canon.Load(); p != nil {
		return fnv1a(h, *p)
	}
	switch t.kind {
	case KindArray:
		h = fnvByte(h, '[')
		for i, e := range t.elems {
			if i > 0 {
				h = fnvByte(h, ',')
			}
			h = e.canonHash(h)
		}
		h = fnvByte(h, ']')
	case KindObject:
		h = fnvByte(h, '{')
		for i, f := range t.fields {
			if i > 0 {
				h = fnvByte(h, ',')
			}
			for j := 0; j < len(f.Key); j++ {
				c := f.Key[j]
				if canonEscaped[c] {
					h = fnvByte(h, '\\')
				}
				h = fnvByte(h, c)
			}
			h = fnvByte(h, ':')
			h = f.Type.canonHash(h)
		}
		h = fnvByte(h, '}')
	}
	return h
}

// canonEscaped marks the bytes that are structural in canonical forms.
// A table lookup per byte, rather than strings.ContainsAny, which builds
// its byte set on every call: the reservoir's hash looks up every key
// byte of every type it admits.
var canonEscaped = [256]bool{'\\': true, ':': true, ',': true, '{': true, '}': true, '[': true, ']': true}

// appendCanonKey escapes the characters that are structural in canonical
// forms so that distinct key sets can never collide. Runs of unescaped
// bytes are copied whole.
func appendCanonKey(b []byte, key string) []byte {
	start := 0
	for i := 0; i < len(key); i++ {
		if c := key[i]; canonEscaped[c] {
			b = append(b, key[start:i]...)
			b = append(b, '\\', c)
			start = i + 1
		}
	}
	return append(b, key[start:]...)
}

// String renders the type in the paper's notation, e.g.
// {event: 𝕊, geo: [ℝ, ℝ], ts: ℝ}.
func (t *Type) String() string {
	var b strings.Builder
	t.writeString(&b)
	return b.String()
}

func (t *Type) writeString(b *strings.Builder) {
	switch t.kind {
	case KindNull:
		b.WriteString("null")
	case KindBool:
		b.WriteString("𝔹")
	case KindNumber:
		b.WriteString("ℝ")
	case KindString:
		b.WriteString("𝕊")
	case KindArray:
		b.WriteByte('[')
		for i, e := range t.elems {
			if i > 0 {
				b.WriteString(", ")
			}
			e.writeString(b)
		}
		b.WriteByte(']')
	case KindObject:
		b.WriteByte('{')
		for i, f := range t.fields {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Key)
			b.WriteString(": ")
			f.Type.writeString(b)
		}
		b.WriteByte('}')
	}
}

// Depth returns the nesting depth of the type: 1 for primitives, 1 + max
// child depth for complex types (an empty array or object has depth 1).
func (t *Type) Depth() int {
	max := 0
	switch t.kind {
	case KindArray:
		for _, e := range t.elems {
			if d := e.Depth(); d > max {
				max = d
			}
		}
	case KindObject:
		for _, f := range t.fields {
			if d := f.Type.Depth(); d > max {
				max = d
			}
		}
	default:
		return 1
	}
	return 1 + max
}

// Size returns the total number of type nodes in the tree, counting t.
func (t *Type) Size() int {
	n := 1
	switch t.kind {
	case KindArray:
		for _, e := range t.elems {
			n += e.Size()
		}
	case KindObject:
		for _, f := range t.fields {
			n += f.Type.Size()
		}
	}
	return n
}
