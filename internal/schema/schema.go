// Package schema implements the generated-schema grammar of Section 4 of
// "Reducing Ambiguity in Json Schema Discovery" (SIGMOD 2021):
//
//	S := ℝ | 𝕊 | 𝔹 | null
//	   | ArrayTuple(S, S, …)
//	   | ObjectTuple(k:S, …, k?:S, …)
//	   | ArrayCollection(S) | ObjectCollection(S)
//	   | Union(S, S, …)
//
// A Schema denotes a set of structural JSON types (Definition 1). The
// package provides membership testing (validation), admitted-type counting
// in log2 space ("schema entropy", the Table 2 metric), pretty printing in
// the paper's notation, JSON-Schema export, a JSON round-trip encoding, and
// union-redundancy simplification.
package schema

import (
	"fmt"
	"sort"
	"strings"

	"jxplain/internal/jsontype"
)

// NodeKind discriminates the grammar's productions.
type NodeKind uint8

// The grammar productions.
const (
	NodePrimitive NodeKind = iota
	NodeArrayTuple
	NodeObjectTuple
	NodeArrayCollection
	NodeObjectCollection
	NodeUnion
)

func (k NodeKind) String() string {
	switch k {
	case NodePrimitive:
		return "primitive"
	case NodeArrayTuple:
		return "array-tuple"
	case NodeObjectTuple:
		return "object-tuple"
	case NodeArrayCollection:
		return "array-collection"
	case NodeObjectCollection:
		return "object-collection"
	case NodeUnion:
		return "union"
	}
	return "invalid"
}

// Schema is one node of the generated-schema grammar. Implementations are
// the six node types in this package; the interface is sealed.
type Schema interface {
	// Node returns the production this node belongs to.
	Node() NodeKind
	// Accepts reports whether the structural type t is admitted by the
	// schema under the default validation options.
	Accepts(t *jsontype.Type) bool
	// AcceptsWith is Accepts with explicit options.
	AcceptsWith(t *jsontype.Type, opts Options) bool
	// LogTypeCount returns log2 of the number of types admitted by the
	// schema — the paper's "schema entropy" (Table 2). Collections are
	// bounded by the domain statistics observed at discovery time.
	LogTypeCount() float64
	// String renders the schema in the paper's notation.
	String() string
	// Canon returns a canonical string; equal canon ⇔ identical schema.
	Canon() string

	writeString(b *strings.Builder)
	writeCanon(b *strings.Builder)
}

// Options controls validation behavior.
type Options struct {
	// NullIsWildcard makes the null type admissible under any schema node,
	// mirroring the Section 5.2 similarity rule ("nulls are similar to
	// anything"). Enabled by default.
	NullIsWildcard bool
}

// DefaultOptions is used by the plain Accepts method.
var DefaultOptions = Options{NullIsWildcard: true}

// ----- Primitive -----

// Primitive admits exactly one primitive type.
type Primitive struct {
	K jsontype.Kind
}

// NewPrimitive returns the primitive schema for kind k; it panics for
// complex kinds.
func NewPrimitive(k jsontype.Kind) *Primitive {
	if !k.Primitive() {
		panic("schema: NewPrimitive with complex kind " + k.String())
	}
	return &Primitive{K: k}
}

// Convenience singletons for the four primitive schemas.
var (
	Null   = &Primitive{K: jsontype.KindNull}
	Bool   = &Primitive{K: jsontype.KindBool}
	Number = &Primitive{K: jsontype.KindNumber}
	String = &Primitive{K: jsontype.KindString}
)

// Node implements Schema.
func (p *Primitive) Node() NodeKind { return NodePrimitive }

// ----- ArrayTuple -----

// ArrayTuple admits fixed-shape arrays: position i must be admitted by
// Elems[i]. Positions from MinLen onward form an optional suffix: admitted
// arrays have length ℓ with MinLen ≤ ℓ ≤ len(Elems). (The paper's grammar
// writes ArrayTuple(S₁,…,Sₙ); the optional suffix is the array analog of
// ObjectTuple's optional fields, needed when tuple-like arrays of several
// lengths are merged into one entity.)
type ArrayTuple struct {
	Elems  []Schema
	MinLen int
}

// NewArrayTuple returns a fixed-length array tuple (MinLen = len(elems)).
func NewArrayTuple(elems ...Schema) *ArrayTuple {
	return &ArrayTuple{Elems: elems, MinLen: len(elems)}
}

// Node implements Schema.
func (a *ArrayTuple) Node() NodeKind { return NodeArrayTuple }

// ----- ObjectTuple -----

// FieldSchema is one key → schema mapping of an ObjectTuple.
type FieldSchema struct {
	Key    string
	Schema Schema
}

// ObjectTuple admits tuple-like objects: every Required key must be present
// (with an admitted type), any subset of Optional keys may be present, and
// no other keys are allowed. Field lists are key-sorted.
type ObjectTuple struct {
	Required []FieldSchema
	Optional []FieldSchema
}

// NewObjectTuple returns an ObjectTuple with the given fields, sorting both
// lists by key. It panics if a key appears twice (within or across lists).
func NewObjectTuple(required, optional []FieldSchema) *ObjectTuple {
	o := &ObjectTuple{Required: required, Optional: optional}
	sort.Slice(o.Required, func(i, j int) bool { return o.Required[i].Key < o.Required[j].Key })
	sort.Slice(o.Optional, func(i, j int) bool { return o.Optional[i].Key < o.Optional[j].Key })
	// Walk the two sorted lists in merged key order: a key that appears
	// twice, within or across them, follows itself.
	prev, i, j := "", 0, 0
	for n := 0; i < len(o.Required) || j < len(o.Optional); n++ {
		var k string
		if j == len(o.Optional) || i < len(o.Required) && o.Required[i].Key < o.Optional[j].Key {
			k, i = o.Required[i].Key, i+1
		} else {
			k, j = o.Optional[j].Key, j+1
		}
		if n > 0 && k == prev {
			panic("schema: duplicate ObjectTuple key " + k)
		}
		prev = k
	}
	return o
}

// Node implements Schema.
func (o *ObjectTuple) Node() NodeKind { return NodeObjectTuple }

// Field returns the schema for key plus whether the key is required;
// (nil, false) if the key is unknown.
func (o *ObjectTuple) Field(key string) (s Schema, required bool) {
	if f := findField(o.Required, key); f != nil {
		return f.Schema, true
	}
	if f := findField(o.Optional, key); f != nil {
		return f.Schema, false
	}
	return nil, false
}

func findField(fields []FieldSchema, key string) *FieldSchema {
	i := sort.Search(len(fields), func(i int) bool { return fields[i].Key >= key })
	if i < len(fields) && fields[i].Key == key {
		return &fields[i]
	}
	return nil
}

// Keys returns all keys (required then optional), each sorted.
func (o *ObjectTuple) Keys() []string {
	keys := make([]string, 0, len(o.Required)+len(o.Optional))
	for _, f := range o.Required {
		keys = append(keys, f.Key)
	}
	for _, f := range o.Optional {
		keys = append(keys, f.Key)
	}
	return keys
}

// ----- ArrayCollection -----

// ArrayCollection admits arrays of any length whose elements are all
// admitted by Elem ([S]* in the paper). MaxLen records the longest array
// observed at discovery time and bounds the admitted-type count (§7.2);
// it does not constrain validation.
type ArrayCollection struct {
	Elem   Schema
	MaxLen int
}

// Node implements Schema.
func (a *ArrayCollection) Node() NodeKind { return NodeArrayCollection }

// ----- ObjectCollection -----

// ObjectCollection admits objects with arbitrary keys whose field values
// are all admitted by Value ({*: S}* in the paper). Domain records the
// active key-domain size observed at discovery time and bounds the
// admitted-type count (§7.2); it does not constrain validation.
type ObjectCollection struct {
	Value  Schema
	Domain int
}

// Node implements Schema.
func (o *ObjectCollection) Node() NodeKind { return NodeObjectCollection }

// ----- Union -----

// Union admits a type iff any alternative admits it. A Union with no
// alternatives admits nothing (the empty schema).
type Union struct {
	Alts []Schema
}

// NewUnion returns the union of alts, flattening single-element and nil
// cases: NewUnion() is the empty schema, NewUnion(s) is s itself.
func NewUnion(alts ...Schema) Schema {
	filtered := alts[:0:0]
	for _, a := range alts {
		if a != nil {
			filtered = append(filtered, a)
		}
	}
	if len(filtered) == 1 {
		return filtered[0]
	}
	return &Union{Alts: filtered}
}

// Empty is the schema admitting no types.
func Empty() Schema { return &Union{} }

// IsEmpty reports whether s is a union with no alternatives.
func IsEmpty(s Schema) bool {
	u, ok := s.(*Union)
	return ok && len(u.Alts) == 0
}

// Node implements Schema.
func (u *Union) Node() NodeKind { return NodeUnion }

// Equal reports whether two schemas are structurally identical.
func Equal(a, b Schema) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Canon() == b.Canon()
}

// Walk visits s and every descendant schema node in depth-first pre-order.
func Walk(s Schema, visit func(Schema)) {
	visit(s)
	switch n := s.(type) {
	case *ArrayTuple:
		for _, e := range n.Elems {
			Walk(e, visit)
		}
	case *ObjectTuple:
		for _, f := range n.Required {
			Walk(f.Schema, visit)
		}
		for _, f := range n.Optional {
			Walk(f.Schema, visit)
		}
	case *ArrayCollection:
		Walk(n.Elem, visit)
	case *ObjectCollection:
		Walk(n.Value, visit)
	case *Union:
		for _, a := range n.Alts {
			Walk(a, visit)
		}
	}
}

// CountNodes returns the number of schema nodes satisfying pred.
func CountNodes(s Schema, pred func(Schema) bool) int {
	n := 0
	Walk(s, func(node Schema) {
		if pred(node) {
			n++
		}
	})
	return n
}

// Size returns the total number of schema nodes.
func Size(s Schema) int { return CountNodes(s, func(Schema) bool { return true }) }

// Entities returns the number of tuple nodes (ObjectTuple or ArrayTuple) in
// the schema — the paper's "entity" count.
func Entities(s Schema) int {
	return CountNodes(s, func(n Schema) bool {
		k := n.Node()
		return k == NodeObjectTuple || k == NodeArrayTuple
	})
}

// mustSchema is a fmt helper for internal invariants.
func mustSchema(cond bool, format string, args ...any) {
	if !cond {
		panic("schema: " + fmt.Sprintf(format, args...))
	}
}
