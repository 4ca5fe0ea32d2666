package ingest

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
)

// readSize is the most the JSONL framer reads at once. A chunk is cut
// inside its last read, so at most this many bytes move from one block to
// the next.
const readSize = 64 << 10

// maxGrowth bounds how far a block may grow ahead of its bytes: to at
// most this many times the bytes read into it.
const maxGrowth = 8

// block is one chunk of framed, undecoded records. JSONL records alias
// buf; concatenated records are appended to it. Blocks cycle between the
// splitter and the decode workers, and a worker recycles its block, with
// its record bounds, once the chunk is scanned: types and key strings
// never alias input bytes.
type block struct {
	index int
	// first is the 1-based line of buf[0] (JSONL) or the ordinal of the
	// first record (concatenated JSON).
	first int
	buf   []byte
	recs  []span // record bounds in buf
}

type span struct{ start, end int }

// reset readies b for chunk index, whose first line or record is first,
// with room for size bytes. A buffer whose capacity strays from that by
// more than a factor of two is replaced, so block memory follows the
// chunks' byte size.
func (b *block) reset(index, first, size int) {
	b.index, b.first, b.recs = index, first, b.recs[:0]
	if c := cap(b.buf); c < size || c > 2*size {
		b.buf = make([]byte, 0, withSlack(size))
	}
	b.buf = b.buf[:0]
}

// withSlack is the capacity allotted for a predicted size: an eighth more,
// so that chunks a little larger than predicted still fit.
func withSlack(size int) int { return size + size/8 }

// recordError names record i in err: by line for JSONL, counting the
// newlines before the record (only on this error path), else by ordinal.
func (b *block) recordError(i int, jsonl bool, err error) error {
	if jsonl {
		return fmt.Errorf("line %d: %w", b.first+bytes.Count(b.buf[:b.recs[i].start], []byte{'\n'}), err)
	}
	return fmt.Errorf("record %d: %w", b.first+i, err)
}

// lineFramer frames JSONL: it reads r into buf and yields the bounds of
// each non-blank line, found with one bytes.IndexByte pass. A framed line
// stays in buf at its bounds while buf grows, unless reuse is set: then
// the lines before pos are dropped when buf is full, so buf stays about
// as large as the longest line.
type lineFramer struct {
	r     io.Reader
	max   int // a line of max bytes or more, line end excluded, is an error
	reuse bool

	buf  []byte
	pos  int   // start of the first line not yet framed
	scan int   // buf[pos:scan] holds no newline
	line int   // 1-based line number of the line at pos
	err  error // the reader's error, io.EOF at the end of input
}

// next frames the next non-blank line and returns its bounds in buf,
// without its "\n" or "\r\n" end, as bufio.ScanLines does. After the last
// line it returns io.EOF, and on a read error that error. A line that is
// too long is an error naming it that wraps bufio.ErrTooLong.
func (f *lineFramer) next() (start, end int, err error) {
	for {
		i := bytes.IndexByte(f.buf[f.scan:], '\n')
		switch {
		case i >= 0:
			start, end = f.pos, f.scan+i
			f.pos = end + 1
		case len(f.buf)-f.pos >= f.max:
			return 0, 0, f.tooLong()
		case f.err == nil:
			f.scan = len(f.buf)
			f.fill()
			continue
		case f.err == io.EOF && f.pos < len(f.buf):
			start, end = f.pos, len(f.buf) // the last line has no newline
			f.pos = end
		default:
			return 0, 0, f.err
		}
		f.scan = f.pos
		if end-start >= f.max {
			return 0, 0, f.tooLong()
		}
		f.line++
		if end > start && f.buf[end-1] == '\r' {
			end--
		}
		if len(bytes.TrimSpace(f.buf[start:end])) > 0 {
			return start, end, nil
		}
	}
}

// tooLong reports that the line at pos reaches max bytes.
func (f *lineFramer) tooLong() error {
	return fmt.Errorf("line %d: record exceeds %d bytes: %w", f.line, f.max, bufio.ErrTooLong)
}

// reserve grows buf, if needed, to hold a chunk of records records,
// predicting their size from the n framed before pos, with slack. It
// grows buf to at most maxGrowth times the bytes in it, so a chunk whose
// first records are larger than the rest cannot make its block much
// larger than its bytes.
func (f *lineFramer) reserve(n, records int) {
	limit := maxGrowth * min(len(f.buf), math.MaxInt/(2*maxGrowth))
	size := limit
	if per := f.pos / n; per < limit/records {
		size = per * records
	}
	if size > cap(f.buf) {
		f.buf = slices.Grow(f.buf, min(withSlack(size), limit)-len(f.buf))
	}
}

// fill reads at most readSize bytes onto the end of buf. When buf is full
// it first makes room: by dropping the framed lines before pos if reuse
// is set and they fill half of buf, else by doubling buf. A reader that
// returns no bytes and no error 100 times in a row fails with
// io.ErrNoProgress, as bufio.Scanner does.
func (f *lineFramer) fill() {
	if len(f.buf) == cap(f.buf) {
		if f.reuse && f.pos >= len(f.buf)/2 && f.pos > 0 {
			n := copy(f.buf, f.buf[f.pos:])
			f.buf, f.scan, f.pos = f.buf[:n], f.scan-f.pos, 0
		} else {
			f.buf = slices.Grow(f.buf, max(readSize, cap(f.buf)))
		}
	}
	for empty := 0; empty < 100; empty++ {
		n, err := f.r.Read(f.buf[len(f.buf):min(cap(f.buf), len(f.buf)+readSize)])
		f.buf = f.buf[:len(f.buf)+n]
		if n > 0 || err != nil {
			f.err = err
			return
		}
	}
	f.err = io.ErrNoProgress
}
