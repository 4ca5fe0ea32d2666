// Package decodeuse exercises decodebound: varint and fixed-width
// sources, byte-read sources, allocation and loop-bound sinks, the
// comparison and min-clamp sanitizers, cross-function taint through
// facts, and the suggested clamp fix.
package decodeuse

import (
	"encoding/binary"

	"example.com/wirelib"
)

type item struct{ key string }

// decodeItems reads a count and sizes the allocation raw: the sink line
// gets the diagnostic and the clamp-template fix.
func decodeItems(data []byte) []item {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil
	}
	items := make([]item, n) // want `allocation size n derives from wire input without a dominating capacity guard` // want-fix `clamp n to the source buffer length above the sink \+"\\tn = min\(n, uint64\(len\(data\)\)\) // jxlint\(decodebound\): clamp template; tighten to the true remaining-input capacity\\n"`
	for i := range items {
		items[i] = item{key: "k"}
	}
	return items
}

// decodeKeys guards the count against the remaining input first: clean,
// and the function earns the positive proof.
func decodeKeys(data []byte) []string { // want-fact BoundedResult
	n, sz := binary.Uvarint(data)
	if sz <= 0 || n > uint64(len(data)) {
		return nil
	}
	return make([]string, n)
}

// decodeClamped uses the exact rewrite the fix engine inserts: the
// min-assignment sanitizes n, so applying the fix resolves the
// diagnostic and -fix is idempotent.
func decodeClamped(data []byte) []byte { // want-fact BoundedResult
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil
	}
	n = min(n, uint64(len(data)))
	return make([]byte, n)
}

// sumN bounds a loop by the raw count.
func sumN(data []byte) uint64 {
	n, _ := binary.Uvarint(data)
	var total uint64
	for i := uint64(0); i < n; i++ { // want `loop bound n derives from wire input without a dominating capacity guard`
		total += i
	}
	return total
}

// visitAll ranges over the raw count.
func visitAll(data []byte) int {
	n, _ := binary.Uvarint(data)
	c := 0
	for range int(n) { // want `range count n derives from wire input without a dominating capacity guard`
		c++
	}
	return c
}

// header taints k through a direct byte read; the fix clamps with the
// plain-int spelling.
func header(data []byte) []uint32 {
	if len(data) == 0 {
		return nil
	}
	k := int(data[0])
	vals := make([]uint32, k) // want `allocation size k derives from wire input without a dominating capacity guard` // want-fix `clamp k to the source buffer length above the sink \+"\\tk = min\(k, len\(data\)\)`
	return vals
}

// readLen taints n through a fixed-width read.
func readLen(b []byte) []byte {
	if len(b) < 4 {
		return nil
	}
	n := binary.BigEndian.Uint32(b)
	return make([]byte, n) // want `allocation size n derives from wire input without a dominating capacity guard`
}

// readAndAlloc gets its count through the wirelib helper: the
// TaintedResult fact carries the taint across the package boundary.
func readAndAlloc(data []byte) []byte {
	v, _ := wirelib.ReadCount(data)
	return make([]byte, v) // want `allocation size v derives from wire input without a dominating capacity guard`
}

// allocRemote reaches wirelib.Alloc's internal sink: the TaintedParam
// fact makes it visible at the call site.
func allocRemote(data []byte) []byte {
	v, _ := wirelib.ReadCount(data)
	return wirelib.Alloc(int(v)) // want `unguarded wire-derived value v passed to Alloc, which uses parameter 0 as an allocation size or loop bound`
}

// buf is a generic list whose reserve sizes an allocation from its
// parameter.
type buf[T any] struct{ items []T }

func (b *buf[T]) reserve(n int) { // want-fact TaintedParam
	b.items = make([]T, 0, n)
}

// reserveRaw hands a raw count to a method of an instantiated generic
// type: the instantiation carries its declaration's fact.
func reserveRaw(data []byte, b *buf[string]) {
	v, _ := binary.Uvarint(data)
	b.reserve(int(v)) // want `unguarded wire-derived value v passed to reserve`
}

// decoder mirrors core/wire.go's sketchDecoder shape.
type decoder struct {
	data []byte
	pos  int
}

// uvarint validates the varint width but hands the decoded value out
// raw, so its first result carries taint to every caller.
func (d *decoder) uvarint() (uint64, bool) { // want-fact TaintedResult
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, false
	}
	d.pos += n
	return v, true
}

// decodeEntries is the guard-deleted decoder: wire.go keeps a
// `count > uint64(len(d.data)-d.pos)` check here, and with it removed
// the count sizes the allocation raw.
func (d *decoder) decodeEntries() ([]string, bool) {
	count, ok := d.uvarint()
	if !ok {
		return nil, false
	}
	out := make([]string, 0, count) // want `allocation size count derives from wire input without a dominating capacity guard`
	for len(out) < cap(out) {
		out = append(out, "entry")
	}
	return out, true
}
