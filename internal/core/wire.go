package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"jxplain/internal/entity"
	"jxplain/internal/jsontype"
)

// Versioned binary wire format for accumulated discovery state — the
// serialization that turns the pass-① monoid into a *distributed* monoid:
// map workers fold disjoint shards into sketches, ship the bytes, and a
// reducer merges them and runs passes ②/③ once, producing exactly the
// schema a single process would have (the JSONoid/Spark execution shape,
// natively).
//
// Layout (integers are unsigned LEB128 varints unless noted):
//
//	offset 0   magic "JXSK" (4 bytes)
//	offset 4   version byte (currently 1)
//	offset 5   flags byte: bit0 = bag section present,
//	                       bit1 = stats-trie section present
//	then sections, in fixed order, each framed as
//	           tag byte + varint body length + body:
//
//	'K'  key dictionary: count, then count × (length, bytes).
//	     Object keys referenced by the trie, interned to dense ids in
//	     first-appearance order of the (deterministic) encode walk.
//	'T'  type table: the jsontype structural codec (children before
//	     parents; refs 1..4 are the primitive singletons). Types are
//	     re-interned on decode, so pointer-identity equality — Bag dedup,
//	     memo keys, Similar's fast path — survives deserialization.
//	'B'  dedup bag: distinct count, then distinct × (type ref, count).
//	'S'  stats trie: total record count, then the root node, preorder:
//
//	     node := objCount
//	             [objCount>0] key set as a bitset over dictionary ids
//	                          (word count, words as 8-byte LE), then one
//	                          presence count per set bit in ascending id
//	                          order; similarity state (flag byte 0=empty,
//	                          1=max type follows, 2=dissimilar latch)
//	             arrCount
//	             [arrCount>0] length histogram (count, then count ×
//	                          (length, n) ascending); similarity state
//	             child count, then count × (key id, node), key-sorted
//	             elem count, then count × node
//
//	     Child and element nodes exist only for object and array values
//	     (see statsTrie): a key whose values were all primitive has no
//	     child entry, and a primitive-only array position is written as an
//	     empty node — four zero bytes — so every later element keeps its
//	     index. The decoder creates no node for an empty node, so a
//	     decoded trie also holds nodes only for objects and arrays. Files
//	     written when primitives still had nodes of their own (empty ones)
//	     decode to the same trie.
//
// Compatibility policy: any change to the layout above bumps the version
// byte, and decoders reject versions they do not know with a typed
// *SketchVersionError — there is no silent misparse path. Section framing
// (tag + length) exists so that a future version can add sections without
// re-deriving the offsets of the existing ones; within version 1 the
// section sequence is fixed and checked.
//
// Decoding is total: corrupt, truncated, or adversarial input yields a
// *SketchFormatError (or *SketchVersionError), never a panic — pinned by
// FuzzSketchDecode. Nesting is held to the scanner's bound,
// jsontype.MaxDepth, in both the type table and the trie, so a decoded
// file never carries a record deeper than the scanner would have read.
//
// There is one decoder, mergeSketchFile, and it folds a file into a
// caller-given bag and sketch; every entry point (UnmarshalPathSketch,
// UnmarshalAccumulator, MergeSketch, MergeSketches) is that walk with a
// different destination.

// sketchMagic brands every sketch file.
const sketchMagic = "JXSK"

// SketchFormatVersion is the wire-format version this build writes and
// the only one it accepts.
const SketchFormatVersion byte = 1

const (
	flagBag  byte = 1 << 0
	flagTrie byte = 1 << 1
)

// Section tags, in file order.
const (
	secKeys byte = 'K'
	secType byte = 'T'
	secBag  byte = 'B'
	secTrie byte = 'S'
)

// SketchVersionError reports a sketch whose version byte this build does
// not understand.
type SketchVersionError struct {
	Got, Want byte
}

func (e *SketchVersionError) Error() string {
	return fmt.Sprintf("core: sketch format version %d not supported (this build reads version %d)", e.Got, e.Want)
}

// SketchFormatError reports structurally invalid sketch bytes.
type SketchFormatError struct {
	Offset int    // byte offset where decoding failed, best effort
	Msg    string // what was wrong
}

func (e *SketchFormatError) Error() string {
	return fmt.Sprintf("core: invalid sketch data at offset %d: %s", e.Offset, e.Msg)
}

func formatErrf(offset int, format string, args ...any) error {
	return &SketchFormatError{Offset: offset, Msg: fmt.Sprintf(format, args...)}
}

// ---- encoding ----

// keyDict interns object keys to dense wire ids.
type keyDict struct {
	ids   map[string]int
	order []string
}

func newKeyDict() *keyDict { return &keyDict{ids: map[string]int{}} }

func (d *keyDict) id(key string) int {
	if id, ok := d.ids[key]; ok {
		return id
	}
	id := len(d.order)
	d.ids[key] = id
	d.order = append(d.order, key)
	return id
}

func (d *keyDict) appendSection(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(d.order)))
	for _, k := range d.order {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
	}
	return buf
}

// sketchEncoder accumulates the shared dictionaries while the bag and
// trie bodies are built, then assembles the framed file. Encoders are
// pooled: a reduce round marshals once per merge step and the dictionary
// maps plus body scratch dominate its allocations, so they are kept warm
// across Marshal calls instead of rebuilt.
type sketchEncoder struct {
	keys  *keyDict
	types *jsontype.TypeEncoder

	// Body scratch buffers, owned by the encoder while pooled. assemble
	// copies them into the exactly-sized output, so releasing the encoder
	// never aliases bytes handed to the caller.
	bagBuf  []byte
	trieBuf []byte
	keysBuf []byte
	typeBuf []byte

	// Node scratch, so that a warm walk allocates nothing. children is a
	// stack: each node pushes its children sorted by key and pops them
	// once the last one is written, so a parent's entries survive the
	// pushes of its descendants. keyCounts, idCounts and lenCounts hold
	// one node's statistics and are consumed before appendNode recurses.
	children  []childEntry
	keyCounts []keyCount
	idCounts  []idCount
	lenCounts []lenCount
}

// idCount is one key-presence count under its dictionary id.
type idCount struct {
	id, n int
}

// emptyNodeLen is the size of an empty node: four zero varints (object
// count, array count, child count, elem count).
const emptyNodeLen = 4

var sketchEncoderPool = sync.Pool{
	New: func() any {
		return &sketchEncoder{keys: newKeyDict(), types: jsontype.NewTypeEncoder()}
	},
}

func getSketchEncoder() *sketchEncoder {
	return sketchEncoderPool.Get().(*sketchEncoder)
}

// release empties the dictionaries (keeping their capacity) and returns
// the encoder to the pool. The child stack is cleared to its capacity so
// that a pooled encoder does not keep the last trie it walked alive.
func (e *sketchEncoder) release() {
	clear(e.keys.ids)
	e.keys.order = e.keys.order[:0]
	clear(e.children[:cap(e.children)])
	e.types.Reset()
	sketchEncoderPool.Put(e)
}

// appendSim appends a similarity-accumulator state.
func (e *sketchEncoder) appendSim(buf []byte, sim *jsontype.SimilarityAccumulator) []byte {
	switch {
	case !sim.Similar():
		return append(buf, 2)
	case sim.Max() == nil:
		return append(buf, 0)
	default:
		buf = append(buf, 1)
		return binary.AppendUvarint(buf, e.types.Ref(sim.Max()))
	}
}

// appendKeySet appends a node's key set as a bitset over dictionary ids,
// then one presence count per key in ascending id order. Keys new to the
// dictionary get their ids in sorted key order.
func (e *sketchEncoder) appendKeySet(buf []byte, t *statsTrie) []byte {
	e.keyCounts = t.appendKeyCounts(e.keyCounts[:0])
	ids := e.idCounts[:0]
	for _, kc := range e.keyCounts {
		ids = append(ids, idCount{e.keys.id(kc.key), kc.n})
	}
	slices.SortFunc(ids, func(a, b idCount) int { return cmp.Compare(a.id, b.id) })
	e.idCounts = ids
	words := 0
	if len(ids) > 0 {
		words = ids[len(ids)-1].id/64 + 1
	}
	buf = binary.AppendUvarint(buf, uint64(words))
	next := 0
	for w := 0; w < words; w++ {
		var word uint64
		for ; next < len(ids) && ids[next].id/64 == w; next++ {
			word |= 1 << (ids[next].id % 64)
		}
		buf = binary.LittleEndian.AppendUint64(buf, word)
	}
	for _, ic := range ids {
		buf = binary.AppendUvarint(buf, uint64(ic.n))
	}
	return buf
}

// appendNode appends one trie node, preorder. A nil element is written as
// an empty node.
func (e *sketchEncoder) appendNode(buf []byte, t *statsTrie) []byte {
	buf = binary.AppendUvarint(buf, uint64(t.objCount))
	if t.objCount > 0 {
		buf = e.appendKeySet(buf, t)
		buf = e.appendSim(buf, &t.objSim)
	}
	buf = binary.AppendUvarint(buf, uint64(t.arrCount()))
	if t.arrCount() > 0 {
		e.lenCounts = t.arr.appendLenCounts(e.lenCounts[:0])
		buf = binary.AppendUvarint(buf, uint64(len(e.lenCounts)))
		for _, lc := range e.lenCounts {
			buf = binary.AppendUvarint(buf, uint64(lc.key))
			buf = binary.AppendUvarint(buf, uint64(lc.n))
		}
		buf = e.appendSim(buf, &t.arr.sim)
	}
	base := len(e.children)
	e.children = t.appendChildren(e.children)
	buf = binary.AppendUvarint(buf, uint64(len(e.children)-base))
	for i := base; i < len(e.children); i++ {
		// Index, not range: the recursion may grow (and move) the stack.
		c := e.children[i]
		buf = binary.AppendUvarint(buf, uint64(e.keys.id(c.key)))
		buf = e.appendNode(buf, c.node)
	}
	e.children = e.children[:base]
	elems := t.elemNodes()
	buf = binary.AppendUvarint(buf, uint64(len(elems)))
	for _, c := range elems {
		if c == nil {
			buf = append(buf, 0, 0, 0, 0) // an empty node
		} else {
			buf = e.appendNode(buf, c)
		}
	}
	return buf
}

// appendBag appends the dedup-bag body.
func (e *sketchEncoder) appendBag(buf []byte, bag *jsontype.Bag) []byte {
	buf = binary.AppendUvarint(buf, uint64(bag.Distinct()))
	bag.Each(func(t *jsontype.Type, n int) {
		buf = binary.AppendUvarint(buf, e.types.Ref(t))
		buf = binary.AppendUvarint(buf, uint64(n))
	})
	return buf
}

// uvarintLen returns the encoded size of v as an unsigned LEB128 varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// framedLen is the on-wire cost of one section: tag byte, body-length
// varint, body.
func framedLen(body []byte) int { return 1 + uvarintLen(uint64(len(body))) + len(body) }

// assemble frames the encoded bodies into the final file bytes. bagBody
// and trieBody may be nil (section absent). The output is allocated once,
// at its exact final size, summed from the section lengths — the returned
// slice is the caller's; none of the encoder's scratch leaks into it.
func (e *sketchEncoder) assemble(bagBody, trieBody []byte) []byte {
	keysBody := e.keys.appendSection(e.keysBuf[:0])
	e.keysBuf = keysBody
	typeBody := e.types.Append(e.typeBuf[:0])
	e.typeBuf = typeBody

	var flags byte
	total := len(sketchMagic) + 2 + framedLen(keysBody) + framedLen(typeBody)
	if bagBody != nil {
		flags |= flagBag
		total += framedLen(bagBody)
	}
	if trieBody != nil {
		flags |= flagTrie
		total += framedLen(trieBody)
	}

	out := make([]byte, 0, total)
	out = append(out, sketchMagic...)
	out = append(out, SketchFormatVersion, flags)
	section := func(tag byte, body []byte) {
		out = append(out, tag)
		out = binary.AppendUvarint(out, uint64(len(body)))
		out = append(out, body...)
	}
	section(secKeys, keysBody)
	section(secType, typeBody)
	if bagBody != nil {
		section(secBag, bagBody)
	}
	if trieBody != nil {
		section(secTrie, trieBody)
	}
	return out
}

// Marshal serializes the sketch in the versioned wire format. The sketch
// is not consumed: more records may be added and Marshal called again.
func (s *PathSketch) Marshal() ([]byte, error) {
	enc := getSketchEncoder()
	defer enc.release()
	trieBody := binary.AppendUvarint(enc.trieBuf[:0], uint64(s.records))
	trieBody = enc.appendNode(trieBody, s.root)
	enc.trieBuf = trieBody
	return enc.assemble(nil, trieBody), nil
}

// Marshal serializes the accumulator's state — the dedup bag and, unless
// detection sampling deferred it, the pass-① sketch — in the versioned
// wire format. The configuration itself is not serialized: a sketch file
// carries data statistics only, and the reducer that resumes from it
// supplies the configuration, so one set of map outputs can be reduced
// under different thresholds.
//
// A bounded accumulator (Config.Bounds) serializes its current snapshot:
// the reservoir's retained types as the bag, and no trie section — a
// rotated or decayed sketch no longer totals to the bag, which the
// decoders rightly reject, so the receiver refolds statistics from the
// snapshot bag instead. Drivers that want the windowed statistics
// themselves should Marshal the rollup sketch (PathSketch.Marshal).
//
// An accumulator poisoned by a failed MergeSketch or MergeSketches
// returns that failure instead of serializing its partial state.
func (a *Accumulator) Marshal() ([]byte, error) {
	if a.err != nil {
		return nil, a.err
	}
	enc := getSketchEncoder()
	defer enc.release()
	bagBody := enc.appendBag(enc.bagBuf[:0], a.unionBag())
	enc.bagBuf = bagBody
	var trieBody []byte
	if a.exact() {
		trieBody = binary.AppendUvarint(enc.trieBuf[:0], uint64(a.sketch.records))
		trieBody = enc.appendNode(trieBody, a.sketch.root)
		enc.trieBuf = trieBody
	}
	return enc.assemble(bagBody, trieBody), nil
}

// ---- decoding ----

// sketchDecoder carries decode state and the running offset for error
// reporting. Decoders are pooled: the key dictionary, duplicate-entry
// set, and key-set scratch survive across decodes, so a decode touches
// the allocator only for genuinely new trie structure.
type sketchDecoder struct {
	data  []byte
	pos   int
	keys  []string
	types *jsontype.TypeDecoder

	// seen deduplicates bag entries within one file (the destination bag
	// legitimately may already hold the file's types, so its own counts
	// cannot serve as the duplicate check). Keyed by intern id —
	// pointer-keyed maps are barred by interncheck.
	seen map[uint64]struct{}
	// setScratch is the key-set buffer; each node consumes its bitset
	// before recursing, so one buffer serves the whole walk.
	setScratch entity.KeySet
}

var sketchDecoderPool = sync.Pool{New: func() any { return new(sketchDecoder) }}

func getSketchDecoder(data []byte) *sketchDecoder {
	d := sketchDecoderPool.Get().(*sketchDecoder)
	d.data = data
	d.pos = 0
	return d
}

// release drops references into the decoded file and returns the decoder
// to the pool, keeping the reusable scratch capacity.
func (d *sketchDecoder) release() {
	d.data = nil
	d.keys = d.keys[:0]
	d.types = nil
	clear(d.seen)
	sketchDecoderPool.Put(d)
}

func (d *sketchDecoder) errf(format string, args ...any) error {
	return formatErrf(d.pos, format, args...)
}

// The decode hot path reports failures through dedicated cold
// constructors: a //jx:hotpath function passing an int or string to a
// variadic ...any would box it per call site, so each malformed-input
// shape gets a typed, non-variadic helper instead (the scan.go errf
// convention).

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) varintErr(what string) error {
	return formatErrf(d.pos, "truncated or overlong varint (%s)", what)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) overflowErr(what string, v uint64) error {
	return formatErrf(d.pos, "%s %d exceeds remaining input (%d bytes)", what, v, len(d.data)-d.pos)
}

//jx:hotpath
func (d *sketchDecoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, d.varintErr(what)
	}
	d.pos += n
	return v, nil
}

// count reads a varint that counts items costing at least minBytes each,
// rejecting counts the remaining input cannot possibly satisfy — the
// guard that keeps corrupt headers from driving giant allocations.
//
//jx:hotpath
func (d *sketchDecoder) count(what string, minBytes int) (int, error) {
	v, err := d.uvarint(what)
	if err != nil {
		return 0, err
	}
	if remaining := len(d.data) - d.pos; v > uint64(remaining/minBytes) {
		return 0, d.overflowErr(what, v)
	}
	return int(v), nil
}

func (d *sketchDecoder) header() (flags byte, err error) {
	if len(d.data) < len(sketchMagic)+2 {
		return 0, formatErrf(0, "input shorter than header (%d bytes)", len(d.data))
	}
	if string(d.data[:len(sketchMagic)]) != sketchMagic {
		return 0, formatErrf(0, "bad magic %q", d.data[:len(sketchMagic)])
	}
	if v := d.data[len(sketchMagic)]; v != SketchFormatVersion {
		return 0, &SketchVersionError{Got: v, Want: SketchFormatVersion}
	}
	flags = d.data[len(sketchMagic)+1]
	d.pos = len(sketchMagic) + 2
	return flags, nil
}

// section checks the tag and enters the section body, returning the
// offset just past it.
func (d *sketchDecoder) section(tag byte) (end int, err error) {
	if d.pos >= len(d.data) {
		return 0, d.errf("missing section %q", tag)
	}
	if got := d.data[d.pos]; got != tag {
		return 0, d.errf("section tag %q where %q expected", got, tag)
	}
	d.pos++
	n, err := d.count(fmt.Sprintf("section %q length", tag), 1)
	if err != nil {
		return 0, err
	}
	return d.pos + n, nil
}

// finishSection validates the decoder consumed exactly the framed length.
func (d *sketchDecoder) finishSection(tag byte, end int) error {
	if d.pos != end {
		return d.errf("section %q body ends at %d, frame says %d", tag, d.pos, end)
	}
	return nil
}

func (d *sketchDecoder) decodeKeys() error {
	end, err := d.section(secKeys)
	if err != nil {
		return err
	}
	n, err := d.count("key count", 1)
	if err != nil {
		return err
	}
	d.keys = d.keys[:0]
	for i := 0; i < n; i++ {
		kl, err := d.count("key length", 1)
		if err != nil {
			return err
		}
		d.keys = append(d.keys, string(d.data[d.pos:d.pos+kl]))
		d.pos += kl
	}
	return d.finishSection(secKeys, end)
}

func (d *sketchDecoder) decodeTypes() error {
	end, err := d.section(secType)
	if err != nil {
		return err
	}
	dec, n, err := jsontype.DecodeTypeTable(d.data[d.pos:end])
	if err != nil {
		return formatErrf(d.pos, "%v", err)
	}
	d.pos += n
	d.types = dec
	return d.finishSection(secType, end)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) refRangeErr(what string, r uint64) error {
	return formatErrf(d.pos, "type ref %d out of range (%s)", r, what)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) nilRefErr(what string) error {
	return formatErrf(d.pos, "nil type ref where %s expected", what)
}

//jx:hotpath
func (d *sketchDecoder) typeRef(what string) (*jsontype.Type, error) {
	r, err := d.uvarint(what)
	if err != nil {
		return nil, err
	}
	t, ok := d.types.Lookup(r)
	if !ok {
		return nil, d.refRangeErr(what, r)
	}
	if t == nil {
		return nil, d.nilRefErr(what)
	}
	return t, nil
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) simTruncErr() error {
	return formatErrf(d.pos, "truncated similarity state")
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) simFlagErr(flag byte) error {
	return formatErrf(d.pos, "invalid similarity flag %d", flag)
}

//jx:hotpath
func (d *sketchDecoder) decodeSim(sim *jsontype.SimilarityAccumulator) error {
	if d.pos >= len(d.data) {
		return d.simTruncErr()
	}
	flag := d.data[d.pos]
	d.pos++
	switch flag {
	case 0:
		*sim = jsontype.RestoreSimilarityAccumulator(nil, true)
	case 1:
		t, err := d.typeRef("similarity max type")
		if err != nil {
			return err
		}
		*sim = jsontype.RestoreSimilarityAccumulator(t, true)
	case 2:
		*sim = jsontype.RestoreSimilarityAccumulator(nil, false)
	default:
		return d.simFlagErr(flag)
	}
	return nil
}

// skipEmptyNode consumes an empty node if one comes next, reporting
// whether it did.
//
//jx:hotpath
func (d *sketchDecoder) skipEmptyNode() bool {
	if len(d.data)-d.pos < emptyNodeLen {
		return false
	}
	b := d.data[d.pos : d.pos+emptyNodeLen]
	if b[0]|b[1]|b[2]|b[3] != 0 {
		return false
	}
	d.pos += emptyNodeLen
	return true
}

func (d *sketchDecoder) finish() error {
	if d.pos != len(d.data) {
		return d.errf("%d trailing bytes after final section", len(d.data)-d.pos)
	}
	return nil
}

const maxInt = int(^uint(0) >> 1)

// mergeSketchFile is the sketch decoder. It validates a whole file —
// header, key dictionary, type table, bag and trie — and folds it into bag
// and sketch: bag entries add into bag, and trie counters accumulate into
// sketch in place, with nodes allocated only for structure sketch does not
// hold yet. want is the section the caller requires (flagBag or flagTrie).
// A nil bag keeps nothing of the bag section and a nil sketch nothing of
// the trie section; both are still validated. A file without a trie folds
// its bag's occurrences into sketch instead, so sketch covers every record
// the file carries either way.
//
// On error, bag and sketch may already hold a prefix of the file.
func mergeSketchFile(data []byte, want byte, bag *jsontype.Bag, sketch *PathSketch) error {
	d := getSketchDecoder(data)
	defer d.release()
	flags, err := d.header()
	if err != nil {
		return err
	}
	if flags&^(flagBag|flagTrie) != 0 {
		return formatErrf(len(sketchMagic)+1, "unknown flag bits %#x", flags)
	}
	if flags&want == 0 {
		section := "bag"
		if want == flagTrie {
			section = "stats-trie"
		}
		return formatErrf(len(sketchMagic)+1, "no %s section in input", section)
	}
	if err := d.decodeKeys(); err != nil {
		return err
	}
	if err := d.decodeTypes(); err != nil {
		return err
	}
	hasTrie := flags&flagTrie != 0
	bagTotal := -1 // no bag: nothing to check the trie's record count against
	if flags&flagBag != 0 {
		fold := sketch
		if hasTrie {
			fold = nil // the file's own trie carries these records
		}
		if bagTotal, err = d.mergeBag(bag, fold); err != nil {
			return err
		}
	}
	if hasTrie {
		if sketch == nil {
			sketch = NewPathSketch() // validated, then dropped
		}
		if err := d.mergeTrie(sketch, bagTotal); err != nil {
			return err
		}
	}
	return d.finish()
}

// UnmarshalPathSketch decodes a sketch serialized with PathSketch.Marshal,
// or the trie section of an accumulator file, whose bag is validated
// (records against the bag total included) and dropped. The result is
// observationally equal to the sketch that was marshaled: identical Stats
// under every configuration, and safe to keep folding into.
func UnmarshalPathSketch(data []byte) (*PathSketch, error) {
	s := NewPathSketch()
	if err := mergeSketchFile(data, flagTrie, nil, s); err != nil {
		return nil, err
	}
	return s, nil
}

// UnmarshalAccumulator decodes accumulated discovery state serialized
// with Accumulator.Marshal and resumes it under cfg. The bag section is
// required. When cfg calls for an incremental sketch the serialized trie
// is used if present and rebuilt from the bag otherwise (a fold over
// deduplicated types — same statistics, more CPU); a sampling
// configuration ignores the trie, matching NewAccumulator.
func UnmarshalAccumulator(data []byte, cfg Config) (*Accumulator, error) {
	a := NewAccumulator(cfg)
	if a.exact() {
		if err := mergeSketchFile(data, flagBag, a.bag, a.sketch); err != nil {
			return nil, err
		}
		return a, nil
	}
	// A sampling configuration keeps no sketch, and a bounded one must
	// replay the bag through the reservoir and the window clock: decode
	// into a fresh bag, dropping the file's trie, and add that.
	bag := &jsontype.Bag{}
	if err := mergeSketchFile(data, flagBag, bag, nil); err != nil {
		return nil, err
	}
	a.AddBag(bag)
	return a, nil
}

// exact reports whether the accumulator keeps the exact union bag and one
// cumulative sketch, the state a sketch file folds into in place.
func (a *Accumulator) exact() bool { return a.sketch != nil && !a.cfg.Bounds.bounded() }

// MergeSketch decodes a serialized sketch and folds it into the
// accumulator — the reduce-side step. The result is identical to
// a.Merge(UnmarshalAccumulator(data, cfg)) for the accumulator's own
// configuration. An exact accumulator is itself the decode's destination:
// bag entries add straight into the live bag and trie counters accumulate
// in place, so a merge allocates only for structure the accumulator has
// not seen, never for a full intermediate accumulator. A sampling or
// bounded one decodes into a fresh accumulator and merges that.
//
// Error contract: the file is validated exactly as UnmarshalAccumulator
// validates it. A failed merge may have absorbed a prefix of the file, so
// it poisons the accumulator: every later MergeSketch, MergeSketches and
// Marshal returns the same error value. Add and Finish have no error
// result and keep working on the partial state, so a driver must discard
// a poisoned accumulator rather than finish it.
func (a *Accumulator) MergeSketch(data []byte) error {
	if a.err == nil {
		a.err = a.mergeSketch(data)
	}
	return a.err
}

// mergeSketch is MergeSketch without the poison check.
func (a *Accumulator) mergeSketch(data []byte) error {
	if a.exact() {
		return mergeSketchFile(data, flagBag, a.bag, a.sketch)
	}
	other, err := UnmarshalAccumulator(data, a.cfg)
	if err != nil {
		return err
	}
	a.Merge(other)
	return nil
}

// mergeBag folds the bag section into bag and, when sketch is not nil,
// its occurrences into sketch. It returns the section's record total.
func (d *sketchDecoder) mergeBag(bag *jsontype.Bag, sketch *PathSketch) (int, error) {
	end, err := d.section(secBag)
	if err != nil {
		return 0, err
	}
	total, err := d.mergeBagEntries(bag, sketch)
	if err != nil {
		return 0, err
	}
	return total, d.finishSection(secBag, end)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) bagCountErr(c uint64) error {
	return formatErrf(d.pos, "bag count %d out of range", c)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) dupEntryErr(t *jsontype.Type) error {
	return formatErrf(d.pos, "duplicate bag entry for type %s", t.Canon())
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) bagOverflowErr() error {
	return formatErrf(d.pos, "bag total overflows")
}

// mergeBagEntries decodes the bag body's (type ref, count) pairs into bag
// and, when sketch is not nil, folds their occurrences into sketch; bag
// may be nil too. Duplicate detection runs against this file's entries
// only — the destination bag legitimately may already contain types the
// file carries.
//
//jx:hotpath
func (d *sketchDecoder) mergeBagEntries(bag *jsontype.Bag, sketch *PathSketch) (int, error) {
	n, err := d.count("bag distinct count", 2)
	if err != nil {
		return 0, err
	}
	if d.seen == nil {
		d.seen = make(map[uint64]struct{}, n)
	}
	total := 0
	for i := 0; i < n; i++ {
		t, err := d.typeRef("bag type")
		if err != nil {
			return 0, err
		}
		c, err := d.uvarint("bag count")
		if err != nil {
			return 0, err
		}
		if c == 0 || c > uint64(maxInt) {
			return 0, d.bagCountErr(c)
		}
		if _, dup := d.seen[t.ID()]; dup {
			return 0, d.dupEntryErr(t)
		}
		d.seen[t.ID()] = struct{}{}
		if uint64(total)+c > uint64(maxInt) || bag != nil && uint64(bag.Len())+c > uint64(maxInt) {
			return 0, d.bagOverflowErr()
		}
		total += int(c)
		if bag != nil {
			bag.AddN(t, int(c))
		}
		if sketch != nil {
			sketch.AddN(t, int(c))
		}
	}
	return total, nil
}

// mergeTrie folds the stats-trie section into sketch. When the file
// carries a bag (bagTotal ≥ 0), the trie's record count must equal the
// bag's total; that is checked before the trie body is read.
func (d *sketchDecoder) mergeTrie(sketch *PathSketch, bagTotal int) error {
	end, err := d.section(secTrie)
	if err != nil {
		return err
	}
	records, err := d.uvarint("record count")
	if err != nil {
		return err
	}
	if records > uint64(maxInt) {
		return d.errf("record count %d out of range", records)
	}
	if bagTotal >= 0 && int(records) != bagTotal {
		return formatErrf(0, "trie records %d disagree with bag total %d", records, bagTotal)
	}
	if err := d.mergeNode(sketch.root, 0); err != nil {
		return err
	}
	if err := d.finishSection(secTrie, end); err != nil {
		return err
	}
	sketch.records += int(records)
	return nil
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) depthErr() error {
	return formatErrf(d.pos, "trie nests deeper than %d levels", jsontype.MaxDepth)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) rangeErr(what string, v uint64) error {
	return formatErrf(d.pos, "%s %d out of range", what, v)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) bitsetErr() error {
	return formatErrf(d.pos, "key-set bitset not normalized (trailing zero word)")
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) keyIDErr(id int) error {
	return formatErrf(d.pos, "key id %d outside dictionary (%d keys)", id, len(d.keys))
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) countRangeErr(what string, n, limit uint64) error {
	return formatErrf(d.pos, "%s %d outside 1..%d", what, n, limit)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) histogramOrderErr(length uint64) error {
	return formatErrf(d.pos, "length histogram not strictly ascending at %d", length)
}

//jx:coldpath error construction runs once per malformed input, not per decoded item
func (d *sketchDecoder) childOrderErr(id uint64) error {
	return formatErrf(d.pos, "children not key-sorted at id %d", id)
}

// mergeNode folds one encoded trie node, preorder, into the node t.
// Counters accumulate in place (setKeyCount and setLenCount add,
// combine-style) and child nodes materialize only where t has none and
// the encoded node is not empty. depth is t's depth below the root; a
// node at depth k holds values nested k+1 levels, so the walk stops short
// of jsontype.MaxDepth, the scanner's nesting bound.
//
//jx:hotpath
func (d *sketchDecoder) mergeNode(t *statsTrie, depth int) error {
	if depth >= jsontype.MaxDepth {
		return d.depthErr()
	}
	objCount, err := d.uvarint("object count")
	if err != nil {
		return err
	}
	if objCount > uint64(maxInt) {
		return d.rangeErr("object count", objCount)
	}
	t.objCount += int(objCount)
	if objCount > 0 {
		words, err := d.count("key-set word count", 8)
		if err != nil {
			return err
		}
		set := d.setScratch[:0]
		for i := 0; i < words; i++ {
			set = append(set, binary.LittleEndian.Uint64(d.data[d.pos:]))
			d.pos += 8
		}
		d.setScratch = set
		if len(set) > 0 && set[len(set)-1] == 0 {
			return d.bitsetErr()
		}
		if k := set.Len(); k <= len(d.data)-d.pos {
			t.keys.reserve(k) // each key's presence count takes a byte at least
		}
		var countErr error
		set.Each(func(id int) {
			if countErr != nil {
				return
			}
			n, err := d.uvarint("key presence count")
			if err != nil {
				countErr = err
				return
			}
			if id >= len(d.keys) {
				countErr = d.keyIDErr(id)
				return
			}
			if n == 0 || n > objCount {
				countErr = d.countRangeErr("key presence count", n, objCount)
				return
			}
			t.setKeyCount(d.keys[id], int(n))
		})
		if countErr != nil {
			return countErr
		}
		var sim jsontype.SimilarityAccumulator
		if err := d.decodeSim(&sim); err != nil {
			return err
		}
		t.objSim.Combine(&sim)
	}
	arrCount, err := d.uvarint("array count")
	if err != nil {
		return err
	}
	if arrCount > uint64(maxInt) {
		return d.rangeErr("array count", arrCount)
	}
	if arrCount > 0 {
		a := t.arrays()
		a.count += int(arrCount)
		n, err := d.count("length histogram size", 2)
		if err != nil {
			return err
		}
		prev := -1
		for i := 0; i < n; i++ {
			length, err := d.uvarint("array length")
			if err != nil {
				return err
			}
			c, err := d.uvarint("length count")
			if err != nil {
				return err
			}
			if length > uint64(maxInt) || int(length) <= prev {
				return d.histogramOrderErr(length)
			}
			if c == 0 || c > arrCount {
				return d.countRangeErr("length count", c, arrCount)
			}
			prev = int(length)
			a.setLenCount(int(length), int(c))
		}
		var sim jsontype.SimilarityAccumulator
		if err := d.decodeSim(&sim); err != nil {
			return err
		}
		a.sim.Combine(&sim)
	}
	nc, err := d.count("child count", 2)
	if err != nil {
		return err
	}
	prevKey := -1
	for i := 0; i < nc; i++ {
		id, err := d.uvarint("child key id")
		if err != nil {
			return err
		}
		if id > uint64(len(d.keys)) || int(id) >= len(d.keys) {
			return d.keyIDErr(int(id))
		}
		if prevKey >= 0 && d.keys[id] <= d.keys[prevKey] {
			return d.childOrderErr(id)
		}
		prevKey = int(id)
		if d.skipEmptyNode() {
			continue
		}
		if err := d.mergeNode(t.child(d.keys[id]), depth+1); err != nil {
			return err
		}
	}
	ne, err := d.count("elem count", 1)
	if err != nil {
		return err
	}
	for i := 0; i < ne; i++ {
		if d.skipEmptyNode() {
			continue
		}
		if err := d.mergeNode(t.arrays().elem(i), depth+1); err != nil {
			return err
		}
	}
	return nil
}
