package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

// Cuts divides the size bytes of r into n contiguous ranges that frame,
// range by range and in order, the records of the whole input. It
// returns n+1 offsets, 0 first and size last; range i is [cuts[i],
// cuts[i+1]) and may be empty. Each inner cut is the first record
// boundary at or past its quota size·i/n. A JSONL record holds no raw
// newline, so a JSONL cut is the first line start at or past its quota,
// found by reading from the quota on. A value boundary in concatenated
// JSON can only be told from bytes inside a string by a scan from the
// start, so the framer reads up to the last cut, holding about one
// record, and a cut falls at the end of a value.
func Cuts(r io.ReaderAt, size int64, n int, jsonl bool) ([]int64, error) {
	cuts := make([]int64, n+1)
	cuts[n] = size
	if jsonl {
		buf := make([]byte, readSize)
		for i := 1; i < n; i++ {
			cut, err := lineStart(r, size*int64(i)/int64(n), size, buf)
			if err != nil {
				return nil, err
			}
			cuts[i] = cut
		}
		return cuts, nil
	}
	in := io.NewSectionReader(r, 0, size)
	f := &framer{r: in, reuse: true, n: 1}
	at := int64(0) // a record boundary: the start, or the end of the last value framed
	for i := 1; i < n; i++ {
		for at < size*int64(i)/int64(n) {
			_, end, err := f.next()
			if err == io.EOF {
				at = size
				break
			}
			if err != nil {
				return nil, err
			}
			read, _ := in.Seek(0, io.SeekCurrent)
			at = read - int64(len(f.buf)-end)
		}
		cuts[i] = at
	}
	return cuts, nil
}

// lineStart returns the first offset at or past at that starts a line,
// or size: it reads r from the byte before at up to the next newline,
// into buf.
func lineStart(r io.ReaderAt, at, size int64, buf []byte) (int64, error) {
	if at == 0 {
		return 0, nil
	}
	for at--; at < size; {
		n, err := r.ReadAt(buf[:min(int64(len(buf)), size-at)], at)
		if i := bytes.IndexByte(buf[:n], '\n'); i >= 0 {
			return at + int64(i) + 1, nil
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		if n == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		at += int64(n)
	}
	return size, nil
}

// Rebase numbers the record err names, if it names one, as a record of
// the input that holds before ahead of the stream that failed: it adds
// the lines (JSONL) or the records that before holds to the RecordError
// in err, so it must run before err is wrapped into a message. Only then
// is before read, so a reader of one range of an input pays for its
// place in the input only when it fails.
func Rebase(err error, before io.Reader, jsonl bool) error {
	var re *RecordError
	if !errors.As(err, &re) {
		return err
	}
	n := 0
	var cerr error
	if jsonl {
		var lines lineCount
		_, cerr = io.Copy(&lines, before)
		n = int(lines)
	} else {
		cerr = Records(before, Options{}, func([]byte) error {
			n++
			return nil
		})
	}
	if cerr != nil {
		return errors.Join(err, fmt.Errorf("numbering the record: %w", cerr))
	}
	re.N += n
	return err
}

// lineCount counts the newlines written to it.
type lineCount int

func (c *lineCount) Write(p []byte) (int, error) {
	*c += lineCount(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}
