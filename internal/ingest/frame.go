package ingest

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
)

// readSize is the most the framer reads at once. A chunk is cut inside
// its last read, so at most this many bytes move from one block to the
// next.
const readSize = 64 << 10

// maxGrowth bounds how far a block may grow ahead of its bytes: to at
// most this many times the bytes read into it.
const maxGrowth = 8

// block is one chunk of framed, undecoded records, which alias buf.
// Blocks cycle between the splitter and the decode workers, and a worker
// recycles its block, with its record bounds, once the chunk is scanned:
// types and key strings never alias input bytes.
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
	n := b.first + i
	if jsonl {
		n = b.first + bytes.Count(b.buf[:b.recs[i].start], []byte{'\n'})
	}
	return &RecordError{JSONL: jsonl, N: n, Err: err}
}

// RecordError names the record of a stream that failed: by its 1-based
// line for JSONL, blank lines counted, else by its 1-based ordinal.
type RecordError struct {
	JSONL bool // N is a line, not an ordinal
	N     int
	Err   error
}

func (e *RecordError) Error() string {
	if e.JSONL {
		return fmt.Sprintf("line %d: %v", e.N, e.Err)
	}
	return fmt.Sprintf("record %d: %v", e.N, e.Err)
}

func (e *RecordError) Unwrap() error { return e.Err }

// framer frames records: the non-blank lines of JSONL, found with one
// bytes.IndexByte pass, or the values of concatenated JSON (valueEnd). It
// reads r into buf and yields the bounds of each record. A framed record
// stays in buf at its bounds while buf grows, unless reuse is set: then
// the records before pos are dropped when buf is full, so buf stays about
// as large as the longest record.
type framer struct {
	r     io.Reader
	jsonl bool
	max   int // a line of max bytes or more, line end excluded, is an error
	reuse bool

	buf  []byte
	pos  int   // start of the first record not yet framed
	scan int   // buf[pos:scan] is scanned and holds no record end
	n    int   // 1-based line (JSONL) or ordinal (values) of the record at pos
	err  error // the reader's error, io.EOF at the end of input

	// Where the scan of the value at pos stands, when scan > pos: at one
	// of the points below, inside depth arrays and objects.
	at    uint8
	depth int
}

// The points a value's scan can stand at between reads.
const (
	inNest   uint8 = iota // in an array or object, outside strings
	inString              // in a string
	inNumber              // in a number
)

// next frames the next record and returns its bounds in buf: a non-blank
// line without its "\n" or "\r\n" end, as bufio.ScanLines does, or a
// value without the whitespace around it. At the end of input, the bytes
// left form the last record. After the last record it returns io.EOF, and
// on a read error that error. A line that is too long is an error naming
// it that wraps bufio.ErrTooLong.
func (f *framer) next() (start, end int, err error) {
	for {
		if !f.jsonl {
			end = f.valueEnd()
		} else if end = bytes.IndexByte(f.buf[f.scan:], '\n'); end >= 0 {
			end += f.scan
		} else {
			f.scan = len(f.buf)
		}
		start = f.pos
		switch {
		case end >= 0:
			f.pos = end
			if f.jsonl {
				f.pos++ // past the newline
			}
		case f.jsonl && len(f.buf)-f.pos >= f.max:
			return 0, 0, f.tooLong()
		case f.err == nil:
			f.fill()
			continue
		case f.err == io.EOF && f.pos < len(f.buf):
			end = len(f.buf) // the last record has no end
			f.pos = end
		default:
			return 0, 0, f.err
		}
		f.scan = f.pos
		if !f.jsonl {
			f.n++
			return start, end, nil
		}
		if end-start >= f.max {
			return 0, 0, f.tooLong()
		}
		f.n++
		if end > start && f.buf[end-1] == '\r' {
			end--
		}
		if len(bytes.TrimSpace(f.buf[start:end])) > 0 {
			return start, end, nil
		}
	}
}

// tooLong reports that the line at pos reaches max bytes.
func (f *framer) tooLong() error {
	return &RecordError{JSONL: true, N: f.n, Err: fmt.Errorf("record exceeds %d bytes: %w", f.max, bufio.ErrTooLong)}
}

// reserve grows buf, if needed, to hold a chunk of records records,
// predicting their size from the n framed before pos, with slack. It
// grows buf to at most maxGrowth times the bytes in it, so a chunk whose
// first records are larger than the rest cannot make its block much
// larger than its bytes.
func (f *framer) reserve(n, records int) {
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
// it first makes room: by dropping the framed records before pos if reuse
// is set and they fill half of buf, else by doubling buf. A reader that
// returns no bytes and no error 100 times in a row fails with
// io.ErrNoProgress, as bufio.Scanner does.
func (f *framer) fill() {
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

// valueEnd returns the end of the value at pos, or -1 if buf ends first;
// it first moves pos past the whitespace before the value. It scans only
// as far as it must to find where the value ends: brackets are counted
// outside strings, and a string ends at its first unescaped quote. A
// literal ends after its four or five bytes, and a number where JSON's
// grammar ends a valid one, so "truefalse" and "01" are two values each,
// as json.Decoder reads them. Whether the value is valid is for the
// scanner to say: a byte that cannot start a value, such as an unmatched
// closing bracket, is a value of its own, and a literal's bytes are
// framed whatever they hold.
func (f *framer) valueEnd() int {
	buf, i := f.buf, f.scan
	if i == f.pos { // the value has not started
		i = len(buf) - len(bytes.TrimLeft(buf[i:], " \t\n\r"))
		f.pos, f.scan = i, i
		if i == len(buf) {
			return -1
		}
		switch c := buf[i]; {
		case c == 't' || c == 'n' || c == 'f':
			n := len("true")
			if c == 'f' {
				n = len("false")
			}
			if len(buf)-i < n {
				return -1 // rescanned from pos once more bytes are read
			}
			return i + n
		case c == '{' || c == '[':
			f.at, f.depth = inNest, 1
		case c == '"':
			f.at, f.depth = inString, 0
		case c == '-' || c >= '0' && c <= '9':
			f.at = inNumber
		default:
			return i + 1
		}
		i++
	}
scan:
	for i < len(buf) {
		if f.at == inNumber {
			if !numberGoesOn(buf, f.pos, i) {
				return i
			}
			i++
			continue
		}
		for stop := uint8(1) << f.at; stops[buf[i]]&stop == 0; {
			if i++; i == len(buf) {
				break scan
			}
		}
		switch c := buf[i]; {
		case c == '\\': // in a string: skip the byte it escapes, once it is read
			if i+1 == len(buf) {
				break scan
			}
			i++
		case f.at == inString: // the closing quote
			if f.at = inNest; f.depth == 0 {
				return i + 1
			}
		case c == '"':
			f.at = inString
		case c == '{' || c == '[':
			f.depth++
		default: // '}' or ']'
			if f.depth--; f.depth == 0 {
				return i + 1
			}
		}
		i++
	}
	f.scan = i
	return -1
}

// numberGoesOn reports whether buf[i] continues the number that starts at
// pos. On valid input the number ends where JSON's grammar ends it: a
// sign only follows an exponent's e, and no digit follows a leading 0.
// Past that it runs on over number bytes, as the scanner reads numbers.
func numberGoesOn(buf []byte, pos, i int) bool {
	c, prev := buf[i], buf[i-1]
	switch {
	case c >= '0' && c <= '9':
		return prev != '0' || i-pos > 2 || i-pos == 2 && buf[pos] != '-'
	case c == '-' || c == '+':
		return prev == 'e' || prev == 'E'
	}
	return c == '.' || c == 'e' || c == 'E'
}

// stops has bit 1<<inNest set for the bytes a scan in an array or object
// must look at, quotes and brackets, and bit 1<<inString for those in a
// string, quotes and backslashes.
var stops = func() (t [256]uint8) {
	for _, c := range `"{}[]` {
		t[c] |= 1 << inNest
	}
	for _, c := range `"\\` {
		t[c] |= 1 << inString
	}
	return t
}()
