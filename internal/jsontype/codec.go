package jsontype

import (
	"encoding/binary"
	"fmt"
)

// Structural type codec. Serialized discovery state (sketch files, the
// jxshard map output) must reference types without leaking intern ids —
// ids are dense per-process counters that depend on intern order, so two
// workers observing the same structure assign different ids. The codec
// therefore writes types *structurally*, as a table in which children
// precede their parents, and writes references as table positions. On
// decode every entry is rebuilt through the interner, i.e. re-interned
// into the receiving process's table, so pointer-identity
// equality (and everything built on it: Bag dedup keys, memo keys,
// Similar's fast path) holds across the wire exactly as it does
// in-process.
//
// Reference space:
//
//	0        nil (no type)
//	1 .. 4   the primitive singletons Null, Bool, Number, String
//	5 ..     complex table entries, in table order
//
// Table entry layout (all integers unsigned varints):
//
//	kind byte (KindArray | KindObject)
//	array:  n, then n child refs
//	object: n, then n × (key length, key bytes, child ref)
//
// Child refs always point at primitives or *earlier* table entries;
// object keys are strictly increasing within an entry (Type.Fields is
// key-sorted). The decoder rejects violations of either property, which
// is what keeps it total on corrupt input: the interner takes an object's
// fields as sorted with unique keys, so the decoder must never reach it
// with any others.

// firstComplexRef is the reference of table entry 0.
const firstComplexRef = 5

// primitiveRef returns the wire reference of a primitive kind (1..4).
func primitiveRef(k Kind) uint64 { return uint64(k) + 1 }

// TypeEncoder accumulates a structural type table. The zero value is not
// ready; use NewTypeEncoder.
type TypeEncoder struct {
	refs  map[*Type]uint64
	order []*Type // complex types, children before parents
}

// NewTypeEncoder returns an empty encoder.
func NewTypeEncoder() *TypeEncoder {
	return &TypeEncoder{refs: map[*Type]uint64{}}
}

// Ref interns t (and, transitively, its children) into the table and
// returns its wire reference. Ref is idempotent: interning makes repeated
// subtrees the same pointer, so each distinct subtree is encoded once.
// A nil type encodes as reference 0.
func (e *TypeEncoder) Ref(t *Type) uint64 {
	if t == nil {
		return 0
	}
	if t.Kind().Primitive() {
		return primitiveRef(t.Kind())
	}
	if r, ok := e.refs[t]; ok {
		return r
	}
	// Children first: their refs must be smaller than the parent's.
	switch t.Kind() {
	case KindArray:
		for _, c := range t.Elems() {
			e.Ref(c)
		}
	case KindObject:
		for _, f := range t.Fields() {
			e.Ref(f.Type)
		}
	}
	r := uint64(len(e.order)) + firstComplexRef
	e.refs[t] = r
	e.order = append(e.order, t)
	return r
}

// Len returns the number of complex table entries interned so far.
func (e *TypeEncoder) Len() int { return len(e.order) }

// Reset empties the encoder for reuse, keeping the allocated table
// capacity — the hook that lets callers pool encoders across Marshal
// calls instead of rebuilding the ref map every time.
func (e *TypeEncoder) Reset() {
	clear(e.refs)
	e.order = e.order[:0]
}

// refOf resolves an already-interned type (or primitive) to its wire
// reference without mutating the table.
func (e *TypeEncoder) refOf(t *Type) uint64 {
	if t.Kind().Primitive() {
		return primitiveRef(t.Kind())
	}
	return e.refs[t]
}

// Append serializes the table section onto buf and returns the extended
// slice.
func (e *TypeEncoder) Append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(e.order)))
	for _, t := range e.order {
		buf = append(buf, byte(t.Kind()))
		switch t.Kind() {
		case KindArray:
			buf = binary.AppendUvarint(buf, uint64(len(t.Elems())))
			for _, c := range t.Elems() {
				buf = binary.AppendUvarint(buf, e.refOf(c))
			}
		case KindObject:
			buf = binary.AppendUvarint(buf, uint64(len(t.Fields())))
			for _, f := range t.Fields() {
				buf = binary.AppendUvarint(buf, uint64(len(f.Key)))
				buf = append(buf, f.Key...)
				buf = binary.AppendUvarint(buf, e.refOf(f.Type))
			}
		}
	}
	return buf
}

// TypeDecoder resolves wire references against a decoded type table.
type TypeDecoder struct {
	table []*Type
}

// DecodeTypeTable decodes a table section from the front of data,
// re-interning every entry, and returns the decoder plus the number of
// bytes consumed. It never panics: malformed input (truncation, forward
// or out-of-range references, unsorted or duplicate object keys,
// primitive kinds in the table, an entry nested deeper than MaxDepth)
// yields an error.
//
// An entry is read into a reused scratch slice, which the interner copies
// only for a type it has not seen. Each distinct key costs one string and
// one keyHash per table, and an object's hash is summed as its fields are
// read: the keys arrive strictly sorted, so an entry interns as it stands,
// without NewObject's sort and per-field hashing.
func DecodeTypeTable(data []byte) (*TypeDecoder, int, error) {
	pos := 0
	n, err := readUvarint(data, &pos, "type table length")
	if err != nil {
		return nil, 0, err
	}
	// Each entry costs at least one kind byte plus one varint byte.
	if n > uint64(len(data)-pos) {
		return nil, 0, fmt.Errorf("jsontype: type table claims %d entries with %d bytes left", n, len(data)-pos)
	}
	d := &TypeDecoder{table: make([]*Type, 0, n)}
	// depths[i] is entry i's nesting depth, tracked as the table is built:
	// a primitive is 0 and a container is 1 plus its deepest child.
	depths := make([]int, 0, n)
	keys := map[string]tableKey{} // decoded key -> its string and keyHash
	var elems []*Type
	var fields []Field
	for i := uint64(0); i < n; i++ {
		if pos >= len(data) {
			return nil, 0, fmt.Errorf("jsontype: type table truncated at entry %d", i)
		}
		kind := Kind(data[pos])
		pos++
		var h uint64 // an object's hashFields, summed as its fields are read
		depth := 0   // the deepest child's
		switch kind {
		case KindArray:
			m, err := readUvarint(data, &pos, "array length")
			if err != nil {
				return nil, 0, err
			}
			if m > uint64(len(data)-pos) {
				return nil, 0, fmt.Errorf("jsontype: array entry claims %d elements with %d bytes left", m, len(data)-pos)
			}
			elems = elems[:0]
			for j := uint64(0); j < m; j++ {
				c, cd, err := d.readRef(data, &pos, i, depths)
				if err != nil {
					return nil, 0, err
				}
				elems, depth = append(elems, c), max(depth, cd)
			}
		case KindObject:
			m, err := readUvarint(data, &pos, "field count")
			if err != nil {
				return nil, 0, err
			}
			if m > uint64(len(data)-pos) {
				return nil, 0, fmt.Errorf("jsontype: object entry claims %d fields with %d bytes left", m, len(data)-pos)
			}
			fields = fields[:0]
			prev := ""
			for j := uint64(0); j < m; j++ {
				kl, err := readUvarint(data, &pos, "key length")
				if err != nil {
					return nil, 0, err
				}
				if kl > uint64(len(data)-pos) {
					return nil, 0, fmt.Errorf("jsontype: key length %d exceeds %d remaining bytes", kl, len(data)-pos)
				}
				raw := data[pos : pos+int(kl)]
				pos += int(kl)
				k, ok := keys[string(raw)] // lookup: no copy
				if !ok {
					k.key = string(raw)
					k.hash = keyHash(k.key)
					keys[k.key] = k
				}
				if j > 0 && k.key <= prev {
					return nil, 0, fmt.Errorf("jsontype: object keys not strictly sorted (%q after %q)", k.key, prev)
				}
				prev = k.key
				c, cd, err := d.readRef(data, &pos, i, depths)
				if err != nil {
					return nil, 0, err
				}
				fields, depth = append(fields, Field{Key: k.key, Type: c}), max(depth, cd)
				h += fieldHash(k.hash, c)
			}
		default:
			return nil, 0, fmt.Errorf("jsontype: invalid kind byte %d in type table", kind)
		}
		if depth >= MaxDepth {
			return nil, 0, fmt.Errorf("jsontype: type table entry %d nests deeper than %d levels", i, MaxDepth)
		}
		depths = append(depths, depth+1)
		if kind == KindArray {
			d.table = append(d.table, internArrayScratch(elems))
		} else {
			d.table = append(d.table, internObject(h, fields, true))
		}
	}
	return d, pos, nil
}

// tableKey is one distinct object key of a type table being decoded.
type tableKey struct {
	key  string
	hash uint64 // keyHash(key)
}

// readRef reads one child reference for table entry `entry`, enforcing
// the children-before-parents invariant, and returns the child with its
// nesting depth (depths holds the earlier entries').
func (d *TypeDecoder) readRef(data []byte, pos *int, entry uint64, depths []int) (*Type, int, error) {
	r, err := readUvarint(data, pos, "type ref")
	if err != nil {
		return nil, 0, err
	}
	if r == 0 {
		return nil, 0, fmt.Errorf("jsontype: nil ref as child of table entry %d", entry)
	}
	if r >= firstComplexRef && r-firstComplexRef >= entry {
		return nil, 0, fmt.Errorf("jsontype: forward ref %d in table entry %d", r, entry)
	}
	t, err := d.Type(r)
	if err != nil || r < firstComplexRef {
		return t, 0, err
	}
	return t, depths[r-firstComplexRef], nil
}

// Type resolves a wire reference. Reference 0 resolves to nil.
func (d *TypeDecoder) Type(ref uint64) (*Type, error) {
	t, ok := d.Lookup(ref)
	if !ok {
		return nil, fmt.Errorf("jsontype: type ref %d out of range (table has %d entries)", ref, len(d.table))
	}
	return t, nil
}

// primitiveForRef maps wire references 1..4 to the primitive singletons,
// in Kind order (the same mapping primitiveRef writes).
var primitiveForRef = [...]*Type{Null, Bool, Number, String}

// Lookup resolves a wire reference without constructing an error value:
// the resolution step on the sketch merge-into path, where the reference
// is almost always valid and the caller supplies its own typed error.
// Reference 0 resolves to (nil, true).
//
//jx:hotpath
func (d *TypeDecoder) Lookup(ref uint64) (*Type, bool) {
	switch {
	case ref == 0:
		return nil, true
	case ref < firstComplexRef:
		return primitiveForRef[ref-1], true
	case ref-firstComplexRef < uint64(len(d.table)):
		return d.table[ref-firstComplexRef], true
	}
	return nil, false
}

// readUvarint reads one unsigned varint at *pos, advancing it.
func readUvarint(data []byte, pos *int, what string) (uint64, error) {
	v, n := binary.Uvarint(data[*pos:])
	if n <= 0 {
		return 0, fmt.Errorf("jsontype: truncated or overlong varint (%s) at offset %d", what, *pos)
	}
	*pos += n
	return v, nil
}

// RestoreSimilarityAccumulator rebuilds a SimilarityAccumulator from its
// observable state — the maximal type (nil when nothing was added) and the
// pairwise-similarity verdict — as reported by Max and Similar. Once a
// bag of additions has latched dissimilar, its maximal type no longer
// influences any observable behavior (Max returns nil, Similar returns
// false, and Combine only propagates the latch), so (max, similar)
// round-trips the accumulator exactly.
//
//jx:hotpath
func RestoreSimilarityAccumulator(max *Type, similar bool) SimilarityAccumulator {
	if !similar {
		return SimilarityAccumulator{dissimilar: true}
	}
	return SimilarityAccumulator{max: max}
}
