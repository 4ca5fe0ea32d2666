package jsontype

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"

	"jxplain/internal/dist"
)

// DecodeLines derives structural types from newline-delimited JSON
// (JSONL): one document per non-blank line, decoded in parallel across the
// given worker count (<= 0 uses all cores). Type extraction is the
// scan-heavy first step of discovery, and JSONL's framing makes it
// embarrassingly parallel — unlike the general concatenated-JSON stream
// DecodeAll accepts.
//
// Errors carry the 1-based line number of the offending document.
func DecodeLines(r io.Reader, workers int) ([]*Type, error) {
	type line struct {
		number int
		data   []byte
	}
	var lines []line
	const maxLine = 1 << 26
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 1<<16), maxLine)
	n := 0
	for scanner.Scan() {
		n++
		data := scanner.Bytes()
		if len(bytes.TrimSpace(data)) == 0 {
			continue
		}
		lines = append(lines, line{number: n, data: append([]byte(nil), data...)})
	}
	if err := scanner.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			err = fmt.Errorf("line %d: record exceeds %d bytes: %w", n+1, maxLine, err)
		}
		return nil, err
	}

	type result struct {
		t   *Type
		err error
	}
	results := dist.Map(lines, workers, func(l line) result {
		t, err := FromJSON(l.data)
		if err != nil {
			return result{err: fmt.Errorf("line %d: %w", l.number, err)}
		}
		return result{t: t}
	})
	out := make([]*Type, len(results))
	for i, res := range results {
		if res.err != nil {
			return nil, res.err
		}
		out[i] = res.t
	}
	return out, nil
}
