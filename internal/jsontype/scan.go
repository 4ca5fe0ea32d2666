package jsontype

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"sync"
)

// typeScanner derives structural types directly from raw JSON bytes. The
// encoding/json token API allocates per token (boxed tokens, one string
// per key and value, one json.Number per number); since discovery only
// needs the *shape*, this scanner walks the bytes itself and allocates
// only for structure it has never seen: object keys are cached in a
// per-scanner key table, child slices live on reusable stacks, and the
// interner copies a slice only when the type is genuinely new. In steady
// state — every distinct type already interned — scanning a record
// performs no heap allocation at all.
//
// Strings are read a word at a time: each 8-byte load is searched for '"'
// and '\' with a few integer operations (stringStop). An object key's
// words are mixed into a raw-key hash by the same loop that finds its
// closing quote, and that hash indexes the key table, which yields the
// decoded key together with its keyHash (intern.go). So each key byte is
// read once, and each field adds one fieldHash, built from its key's
// hash and its child's id, to its object's intern hash. An object whose
// fields, in source order, match the shape cache slot their hash picks
// takes its type from the slot; only a miss sorts the fields and locks an
// interner shard. An array whose elements match the array cache slot
// their hash picks takes its type from that slot the same way.
//
// The scanner validates framing only: delimiters, literals, and where
// each string ends. It does not validate string contents — escape
// sequences and control characters inside a string are skipped, not
// checked — and it is lenient inside numbers: any run of number
// characters is accepted where encoding/json would reject malformed
// exponents. Discovery treats every string as 𝕊 and every number as ℝ, so
// neither leniency can change a schema. Only an escaped object key is
// decoded, once, by encoding/json.
type typeScanner struct {
	data []byte
	pos  int

	keys   keyTable // raw key bytes -> decoded key and its keyHash
	fields []Field  // shared stack for in-flight object fields
	elems  []*Type  // shared stack for in-flight array elements

	shapes [shapeSlots]shape // object shapes seen, by the top bits of their hash
	arrays [shapeSlots]*Type // array types seen, by the top bits of their hash
}

// A scanner's shape caches are direct-mapped by the top shapeBits bits of
// an object's field-hash sum or an array's hashArray, so each holds the
// last object or array read in each of its shapeSlots slots.
const (
	shapeBits  = 8
	shapeSlots = 1 << shapeBits
)

// shape is one slot of the object shape cache: an object's fields in
// source order, duplicates included, with their hash sum and the interned
// type they make. One source-order (key, child) list sorts, collapses
// (last duplicate wins) and interns to the same pointer for as long as
// that pointer is held, and the slot holds it: the type's interner entry
// cannot be dropped while the slot holds the type, so a slot can stand in
// for that work on the list it holds. Keys come from the key table and
// children from the interner, so a slot never aliases input bytes. An
// array cache slot needs no list of its own: an array's type holds its
// elements in source order.
type shape struct {
	hash   uint64
	fields []Field
	t      *Type
}

// MaxDepth bounds nesting, as encoding/json does: a value nested in 10,000
// objects and arrays scans, one in 10,001 is an error. Every later pass
// recurses once per level, so the bound keeps a hostile record from
// exhausting the goroutine stack, which is fatal rather than an error.
// The type-table decoder and the sketch decoder enforce the same bound on
// serialized input.
const MaxDepth = 10000

var scannerPool = sync.Pool{
	New: func() any { return new(typeScanner) },
}

// scanOne scans a single JSON value; trailing non-space content is an
// error.
//
//jx:hotpath
func scanOne(data []byte) (*Type, error) {
	s := scannerPool.Get().(*typeScanner)
	defer scannerPool.Put(s)
	s.reset(data)
	t, err := s.value(0)
	if err != nil {
		return nil, err
	}
	s.skipSpace()
	if s.pos < len(s.data) {
		return nil, s.errf("trailing content after JSON value")
	}
	return t, nil
}

//jx:hotpath
func (s *typeScanner) reset(data []byte) {
	s.data, s.pos = data, 0
	s.fields = s.fields[:0]
	s.elems = s.elems[:0]
}

//jx:hotpath
func (s *typeScanner) skipSpace() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// errf builds scan errors; hot-path functions call it only on malformed
// input, so the fmt allocation is off the steady state by construction.
//
//jx:coldpath error construction runs once per malformed document, not per record
func (s *typeScanner) errf(msg string) error {
	return fmt.Errorf("jsontype: %s at offset %d", msg, s.pos)
}

//jx:coldpath error construction runs once per malformed document, not per record
func (s *typeScanner) tooDeep() error {
	return s.errf(fmt.Sprintf("nesting exceeds %d levels", MaxDepth))
}

// value scans one value nested in depth objects and arrays.
//
//jx:hotpath
func (s *typeScanner) value(depth int) (*Type, error) {
	s.skipSpace()
	if s.pos >= len(s.data) {
		return nil, s.errf("unexpected end of JSON")
	}
	switch c := s.data[s.pos]; {
	case c == '{':
		return s.object(depth + 1)
	case c == '[':
		return s.array(depth + 1)
	case c == '"':
		if err := s.skipString(); err != nil {
			return nil, err
		}
		return String, nil
	case c == 't':
		return s.literal("true", Bool)
	case c == 'f':
		return s.literal("false", Bool)
	case c == 'n':
		return s.literal("null", Null)
	case c == '-' || (c >= '0' && c <= '9'):
		return s.number()
	}
	return nil, s.errf("unexpected character")
}

//jx:hotpath
func (s *typeScanner) literal(lit string, t *Type) (*Type, error) {
	// The string(...) conversion is a comparison operand; the compiler
	// elides the copy.
	if len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		return nil, s.errf("invalid literal")
	}
	s.pos += len(lit)
	return t, nil
}

//jx:hotpath
func (s *typeScanner) number() (*Type, error) {
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			s.pos++
			continue
		}
		break
	}
	return Number, nil
}

// Word-at-a-time string search. A byte of w equals c exactly where
// x = w ^ (lowBits*c) has a zero byte, and (x-lowBits) &^ x & highBits sets
// the high bit of x's lowest zero byte. Bytes above it may be flagged too,
// through the borrow, but the lowest flag is always exact, and the lowest
// is the only one read.
const (
	lowBits  = 0x0101010101010101
	highBits = 0x8080808080808080
)

// loadWord reads the little-endian word at data[i:], padded with zero
// bytes past the end of data; a zero byte is neither '"' nor '\'.
//
//jx:hotpath
func loadWord(data []byte, i int) uint64 {
	if len(data)-i >= 8 {
		return binary.LittleEndian.Uint64(data[i:])
	}
	var buf [8]byte
	copy(buf[:], data[i:])
	return binary.LittleEndian.Uint64(buf[:])
}

// stringStop returns the index, 0 to 7, of the first '"' or '\' byte of
// the word w, or 8 if w holds neither.
//
//jx:hotpath
func stringStop(w uint64) int {
	q := w ^ (lowBits * '"')
	b := w ^ (lowBits * '\\')
	return bits.TrailingZeros64(((q-lowBits)&^q|(b-lowBits)&^b)&highBits) >> 3
}

// skipString consumes a string value without decoding it; only its kind
// matters.
//
//jx:hotpath
func (s *typeScanner) skipString() error {
	i := s.pos + 1 // past the opening quote
	for i < len(s.data) {
		n := stringStop(loadWord(s.data, i))
		i += n
		if n == 8 {
			continue
		}
		if s.data[i] == '"' {
			s.pos = i + 1
			return nil
		}
		i += 2 // the backslash and the byte it escapes
	}
	s.pos = len(s.data)
	return s.errf("unterminated string")
}

// rawKeySeed starts the raw-key hash of key and escapedKey.
const rawKeySeed = 0xa4093822299f31d0

// key consumes an object key and returns its decoded string and keyHash.
// The loop that finds the closing quote mixes each word of the key into a
// raw-key hash, and the key table maps the raw bytes to the decoded key
// and its keyHash, so a key read before is neither decoded nor hashed
// again, and costs no allocation. A key with an escape leaves the loop
// for escapedKey.
//
//jx:hotpath
func (s *typeScanner) key() (string, uint64, error) {
	start := s.pos + 1
	h := uint64(rawKeySeed)
	for i := start; i < len(s.data); {
		w := loadWord(s.data, i)
		n := stringStop(w)
		if n == 8 {
			h = mix(h, w)
			i += 8
			continue
		}
		i += n
		if s.data[i] == '\\' {
			return s.escapedKey(start)
		}
		h = mix(h, w&(1<<(8*n)-1)) // the key's bytes of the last word
		h = h&^keyEscaped | keyFull
		s.pos = i + 1
		if j := s.keys.find(h, s.data[start:i]); j >= 0 {
			e := &s.keys.slots[j]
			return e.raw, e.hash, nil // unescaped: the raw key is the key
		}
		return s.internKey(h, s.data[start-1:i+1])
	}
	s.pos = len(s.data)
	return "", 0, s.errf("unterminated string")
}

// escapedKey finishes a key that holds an escape: it skips to the closing
// quote and looks the raw bytes up in the key table under a hash of their
// words. A raw key with an escape always comes here and one without never
// does, so this hash need not agree with key's.
//
//jx:hotpath
func (s *typeScanner) escapedKey(start int) (string, uint64, error) {
	s.pos = start - 1
	if err := s.skipString(); err != nil {
		return "", 0, err
	}
	raw := s.data[start : s.pos-1]
	h := uint64(rawKeySeed)
	for i := 0; i < len(raw); i += 8 {
		h = mix(h, loadWord(raw, i))
	}
	h |= keyEscaped | keyFull
	if j := s.keys.find(h, raw); j >= 0 {
		return s.keys.decoded[j], s.keys.slots[j].hash, nil
	}
	return s.internKey(h, s.data[start-1:s.pos])
}

// internKey decodes a key seen for the first time and adds it to the key
// table under the raw hash h, whose keyEscaped bit says whether the key
// holds an escape. It runs once per distinct raw key byte sequence — cold
// by construction — so it may allocate and lean on encoding/json for
// escape decoding. An unescaped key's raw and decoded strings are one
// string.
//
//jx:coldpath runs once per distinct raw key; steady state hits the key table
func (s *typeScanner) internKey(h uint64, quoted []byte) (string, uint64, error) {
	raw := string(quoted[1 : len(quoted)-1])
	k := raw
	if h&keyEscaped != 0 {
		var decoded string // escapes to the heap, so only here
		if err := json.Unmarshal(quoted, &decoded); err != nil {
			return "", 0, s.errf("invalid object key")
		}
		k = decoded
	}
	kh := keyHash(k)
	s.keys.insert(keyEntry{raw: raw, rawHash: h, hash: kh}, k)
	return k, kh, nil
}

// keyTableMax caps a key table's entries. Real key vocabularies sit far
// below it (wide-256, the largest generated one, has 2,562 distinct keys),
// while a stream of novel keys, such as one session key per record, would
// otherwise grow the table for the scanner's whole life.
const keyTableMax = 4096

// keyTable maps each distinct raw key a scanner has read — the bytes
// between the quotes — to its decoded string and keyHash. It is
// open-addressed with linear probing, indexed by the top bits of the raw
// hash (the ones mix spreads best), and kept at most half full. A hit is
// confirmed by comparing the raw bytes, so the raw hash may be any
// function of them. Once it holds keyTableMax entries the next insert
// empties it first: the keys read again later then each cost one more
// miss, and the table stays at 2*keyTableMax slots of 32 bytes, 256 KiB.
//
// A slot is one string and two words. An unescaped key, nearly every key,
// is its own decoded form, so the slot's string serves as both. An escaped
// key keeps its slot too, with its raw bytes and the keyEscaped bit, and
// its decoded form sits at the same index of decoded, a parallel slice
// that is made only once an escaped key appears and is emptied, and grown,
// with the slots.
type keyTable struct {
	slots   []keyEntry // length a power of two, or zero before the first key
	decoded []string   // nil, or as long as slots: escaped keys' decoded forms
	shift   uint       // 64 - log2(len(slots))
	n       int        // occupied slots
}

type keyEntry struct {
	raw     string // raw key bytes, which are the decoded key unless escaped
	rawHash uint64 // the raw hash, with keyFull set and keyEscaped for an escaped key
	hash    uint64 // keyHash of the decoded key
}

// Reserved low bits of a raw hash. The table is indexed by the hash's top
// bits, so they take nothing from the index; keyFull marks an occupied
// slot, so an empty slot is all zeros.
const (
	keyFull    = 1
	keyEscaped = 2
)

// find returns the index of the slot for raw, whose raw hash is h, or -1.
//
//jx:hotpath
func (t *keyTable) find(h uint64, raw []byte) int {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := h >> t.shift; ; i = (i + 1) & mask {
		e := &t.slots[i]
		if e.rawHash == 0 {
			return -1
		}
		if e.rawHash == h && e.raw == string(raw) { // comparison: no copy
			return int(i)
		}
	}
}

// insert adds an entry absent from the table, and key, the decoded form
// of an escaped entry. It empties the table first when it holds
// keyTableMax entries, or else doubles it when the entry would fill more
// than half of it.
//
//jx:coldpath runs once per distinct raw key
func (t *keyTable) insert(e keyEntry, key string) {
	if t.n >= keyTableMax {
		clear(t.slots)
		clear(t.decoded)
		t.n = 0
	} else if 2*(t.n+1) > len(t.slots) {
		old, oldDecoded := t.slots, t.decoded
		size := max(64, 2*len(old))
		t.slots, t.shift, t.n = make([]keyEntry, size), uint(64-bits.TrailingZeros(uint(size))), 0
		if oldDecoded != nil {
			t.decoded = make([]string, size)
		}
		for i, o := range old {
			if o.rawHash != 0 {
				j := t.place(o)
				if o.rawHash&keyEscaped != 0 {
					t.decoded[j] = oldDecoded[i]
				}
			}
		}
	}
	i := t.place(e)
	if e.rawHash&keyEscaped != 0 {
		if t.decoded == nil {
			t.decoded = make([]string, len(t.slots))
		}
		t.decoded[i] = key
	}
}

// place stores e in the first free slot from its home slot on, and
// returns that slot's index.
func (t *keyTable) place(e keyEntry) uint64 {
	mask := uint64(len(t.slots) - 1)
	i := e.rawHash >> t.shift
	for t.slots[i].rawHash != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = e
	t.n++
	return i
}

// object scans an object. Its fields pile up on the fields stack in
// source order while their hashes sum; a shape-cache hit on that list
// returns its type without sorting, collapsing or locking the interner.
//
//jx:hotpath
func (s *typeScanner) object(depth int) (*Type, error) {
	if depth > MaxDepth {
		return nil, s.tooDeep()
	}
	s.pos++ // '{'
	mark := len(s.fields)
	var h uint64 // hashFields of the fields read so far
	s.skipSpace()
	if s.pos >= len(s.data) {
		return nil, s.errf("unterminated object")
	}
	if s.data[s.pos] == '}' {
		s.pos++
		return s.objectType(h, mark), nil
	}
	for {
		s.skipSpace()
		if s.pos >= len(s.data) || s.data[s.pos] != '"' {
			return nil, s.errf("expected object key")
		}
		key, kh, err := s.key()
		if err != nil {
			return nil, err
		}
		s.skipSpace()
		if s.pos >= len(s.data) || s.data[s.pos] != ':' {
			return nil, s.errf("expected ':' after object key")
		}
		s.pos++
		v, err := s.value(depth)
		if err != nil {
			return nil, err
		}
		s.fields = append(s.fields, Field{Key: key, Type: v})
		h += fieldHash(kh, v)
		s.skipSpace()
		if s.pos >= len(s.data) {
			return nil, s.errf("unterminated object")
		}
		if c := s.data[s.pos]; c == ',' {
			s.pos++
			continue
		} else if c == '}' {
			s.pos++
			break
		}
		return nil, s.errf("expected ',' or '}' in object")
	}
	return s.objectType(h, mark), nil
}

// objectType pops the fields of the object just read, which sit on the
// fields stack from mark in source order with hash sum h, and returns its
// interned type: from the shape cache, or else by sorting the fields,
// collapsing duplicate keys and interning, after which the slot holds the
// new shape.
//
//jx:hotpath
func (s *typeScanner) objectType(h uint64, mark int) *Type {
	seg := s.fields[mark:]
	slot := &s.shapes[h>>(64-shapeBits)]
	if slot.t != nil && slot.hash == h && sameFields(slot.fields, seg) {
		s.fields = s.fields[:mark]
		return slot.t
	}
	slot.hash, slot.fields = h, append(slot.fields[:0], seg...)
	sortFieldsStable(seg)
	// Duplicate keys: last occurrence wins, mirroring encoding/json. The
	// stable sort keeps equal keys in source order, so collapsing runs
	// toward their last element implements that.
	w := 0
	for i := 0; i < len(seg); i++ {
		if w > 0 && seg[w-1].Key == seg[i].Key {
			seg[w-1].Type = seg[i].Type
		} else {
			seg[w] = seg[i]
			w++
		}
	}
	if w < len(seg) {
		h = hashFields(seg[:w]) // h also summed the overwritten fields
	}
	slot.t = internObject(h, seg[:w], true)
	s.fields = s.fields[:mark]
	return slot.t
}

//jx:hotpath
func (s *typeScanner) array(depth int) (*Type, error) {
	if depth > MaxDepth {
		return nil, s.tooDeep()
	}
	s.pos++ // '['
	mark := len(s.elems)
	s.skipSpace()
	if s.pos >= len(s.data) {
		return nil, s.errf("unterminated array")
	}
	if s.data[s.pos] == ']' {
		s.pos++
		return s.arrayType(mark), nil
	}
	for {
		v, err := s.value(depth)
		if err != nil {
			return nil, err
		}
		s.elems = append(s.elems, v)
		s.skipSpace()
		if s.pos >= len(s.data) {
			return nil, s.errf("unterminated array")
		}
		if c := s.data[s.pos]; c == ',' {
			s.pos++
			continue
		} else if c == ']' {
			s.pos++
			break
		}
		return nil, s.errf("expected ',' or ']' in array")
	}
	return s.arrayType(mark), nil
}

// arrayType pops the elements of the array just read, which sit on the
// elems stack from mark, and returns its interned type: from the array
// cache, or else from the interner, after which the slot holds it.
//
//jx:hotpath
func (s *typeScanner) arrayType(mark int) *Type {
	seg := s.elems[mark:]
	h := hashArray(seg)
	slot := &s.arrays[h>>(64-shapeBits)]
	if t := *slot; t == nil || !sameElems(t.elems, seg) {
		*slot = internArraySlice(h, seg, true)
	}
	s.elems = s.elems[:mark]
	return *slot
}

// sortFieldsStable sorts fields by key, stably. Small segments — the
// overwhelming majority of JSON objects — use an allocation-free insertion
// sort; wide objects fall back to sortFieldsWide.
//
//jx:hotpath
func sortFieldsStable(fields []Field) {
	if len(fields) <= 24 {
		for i := 1; i < len(fields); i++ {
			f := fields[i]
			j := i - 1
			for j >= 0 && fields[j].Key > f.Key {
				fields[j+1] = fields[j]
				j--
			}
			fields[j+1] = f
		}
		return
	}
	sortFieldsWide(fields)
}

// sortFieldsWide handles the >24-field case, where sort.SliceStable's
// boxing of the slice is dwarfed by the comparisons anyway.
//
//jx:coldpath objects wider than 24 fields are rare; the sort dominates the boxing
func sortFieldsWide(fields []Field) {
	sort.SliceStable(fields, func(i, j int) bool { return fields[i].Key < fields[j].Key })
}
