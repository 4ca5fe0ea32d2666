// Package ingest reads a stream of JSON records (JSONL or concatenated
// JSON) in bounded chunks and turns each chunk into a deduplicated
// jsontype.Bag through a decode worker pool.
//
// This is the streaming front half of discovery. A single splitter
// goroutine frames raw records (a cheap byte scan for JSONL, a value-level
// token scan for concatenated JSON), batches them into chunks of
// Options.ChunkSize records, and hands the chunks to Options.Workers
// decoding goroutines; decoded chunks are re-sequenced and delivered to
// the caller strictly in input order, so downstream accumulation is
// deterministic regardless of worker scheduling. Memory is bounded by
// O(ChunkSize · Workers) raw records in flight — never by the length of
// the stream — which is what lets the pipeline discover collections far
// larger than RAM.
//
// Cancellation: every stage watches the caller's context; on cancellation
// Each tears the stages down, waits for all goroutines to exit, and
// returns ctx.Err(). Each never leaks goroutines, also on decode errors
// and on callback errors.
package ingest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"jxplain/internal/jsontype"
)

// Options bounds the chunked decode.
type Options struct {
	// ChunkSize is the number of records per chunk (default 2048).
	ChunkSize int
	// Workers is the decode worker count (default GOMAXPROCS).
	Workers int
	// JSONL frames records as non-blank lines (strict JSONL) instead of
	// scanning concatenated JSON values; errors then carry line numbers.
	JSONL bool
	// MaxRecordBytes caps a single record's size in JSONL mode
	// (default 64 MiB).
	MaxRecordBytes int
}

func (o Options) withDefaults() Options {
	if o.ChunkSize <= 0 {
		o.ChunkSize = 2048
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 1 << 26
	}
	return o
}

// Chunk is one decoded, deduplicated chunk of the stream.
type Chunk struct {
	// Bag holds the chunk's record types with multiplicities.
	Bag *jsontype.Bag
	// Records is the number of record occurrences in the chunk
	// (Bag.Len()).
	Records int
	// Index is the chunk's 0-based position in the stream.
	Index int
}

// rawChunk is a batch of framed-but-undecoded records.
type rawChunk struct {
	index     int
	firstLine int // 1-based line of the first record (JSONL), else ordinal
	records   [][]byte
}

// Each streams r as bounded chunks, calling fn once per chunk, in input
// order, from the calling goroutine's ordering domain (fn calls never
// overlap). It returns the total record count. A non-nil error from fn
// stops ingestion and is returned as-is; decode errors and context
// cancellation abort likewise. All internal goroutines have exited by the
// time Each returns. The splitter and decoder goroutines communicate only
// through channels, and re-sequencing runs on a single goroutine.
func Each(ctx context.Context, r io.Reader, opts Options, fn func(Chunk) error) (int, error) {
	opts = opts.withDefaults()

	// An internal context lets fn errors and decode errors tear down the
	// splitter and workers without requiring the caller to cancel.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	raws := make(chan rawChunk, opts.Workers)
	type decoded struct {
		chunk Chunk
		err   error
	}
	results := make(chan decoded, opts.Workers)

	// Splitter: frame records and batch them into raw chunks.
	splitErr := make(chan error, 1)
	go func() {
		defer close(raws)
		splitErr <- split(ctx, r, opts, raws)
	}()

	// Decode workers: parse each record of a chunk and fold it into a bag.
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for raw := range raws {
				out := decoded{chunk: Chunk{Bag: &jsontype.Bag{}, Index: raw.index}}
				for i, rec := range raw.records {
					t, err := jsontype.FromJSON(rec)
					if err != nil {
						if opts.JSONL {
							err = fmt.Errorf("line %d: %w", raw.firstLine+i, err)
						} else {
							err = fmt.Errorf("record %d: %w", raw.firstLine+i, err)
						}
						out.err = err
						break
					}
					out.chunk.Bag.Add(t)
				}
				out.chunk.Records = out.chunk.Bag.Len()
				select {
				case results <- out:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Re-sequence: deliver chunks to fn strictly in stream order.
	total := 0
	pending := map[int]Chunk{}
	next := 0
	var firstErr error
	for res := range results {
		if firstErr != nil {
			continue // draining after failure
		}
		if res.err != nil {
			firstErr = res.err
			cancel()
			continue
		}
		pending[res.chunk.Index] = res.chunk
		for {
			chunk, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			total += chunk.Records
			if err := fn(chunk); err != nil {
				firstErr = err
				cancel()
				break
			}
		}
	}
	serr := <-splitErr
	if firstErr != nil {
		return total, firstErr
	}
	if serr != nil {
		return total, serr
	}
	if err := ctx.Err(); err != nil {
		return total, err
	}
	return total, nil
}

// Records frames the stream record by record without decoding: each call
// to fn receives the raw bytes of one JSON record, newline excluded, in
// stream order. Only Options.JSONL and Options.MaxRecordBytes apply.
// Memory is bounded by the largest single record, never by the stream
// length, which is what lets a sharding driver cut a corpus into
// contiguous ranges while holding O(record) bytes.
//
// The slice passed to fn aliases an internal buffer and is only valid for
// the duration of the call; fn must copy it if it needs to keep it. A
// non-nil error from fn stops the scan and is returned as-is.
func Records(r io.Reader, opts Options, fn func(rec []byte) error) error {
	opts = opts.withDefaults()
	if opts.JSONL {
		scanner := lineScanner(r, opts.MaxRecordBytes)
		line := 0
		for scanner.Scan() {
			line++
			data := scanner.Bytes()
			if len(bytes.TrimSpace(data)) == 0 {
				continue
			}
			if err := fn(data); err != nil {
				return err
			}
		}
		return lineError(scanner.Err(), line+1, opts.MaxRecordBytes)
	}
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<16))
	record := 0
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return fmt.Errorf("record %d: %w", record+1, err)
		}
		record++
		if err := fn(raw); err != nil {
			return err
		}
	}
	return nil
}

// split frames the stream into raw chunks. It returns nil at EOF and
// ctx.Err() when cancelled mid-stream.
func split(ctx context.Context, r io.Reader, opts Options, out chan<- rawChunk) error {
	send := func(c rawChunk) error {
		select {
		case out <- c:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	index := 0
	if opts.JSONL {
		scanner := lineScanner(r, opts.MaxRecordBytes)
		var batch [][]byte
		line, firstLine := 0, 0
		for scanner.Scan() {
			line++
			data := scanner.Bytes()
			if len(bytes.TrimSpace(data)) == 0 {
				continue
			}
			if len(batch) == 0 {
				firstLine = line
			}
			batch = append(batch, append([]byte(nil), data...))
			if len(batch) >= opts.ChunkSize {
				if err := send(rawChunk{index: index, firstLine: firstLine, records: batch}); err != nil {
					return err
				}
				index++
				batch = nil
			}
		}
		if err := scanner.Err(); err != nil {
			return lineError(err, line+1, opts.MaxRecordBytes)
		}
		if len(batch) > 0 {
			return send(rawChunk{index: index, firstLine: firstLine, records: batch})
		}
		return nil
	}

	// Concatenated JSON: frame whole values with a RawMessage scan. The
	// bytes are re-parsed by the workers; framing is the cheap part and
	// stays sequential because value boundaries require a token scan.
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<16))
	var batch [][]byte
	record, firstRecord := 0, 0
	for dec.More() {
		if err := ctx.Err(); err != nil {
			return err
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return fmt.Errorf("record %d: %w", record+1, err)
		}
		record++
		if len(batch) == 0 {
			firstRecord = record
		}
		batch = append(batch, []byte(raw))
		if len(batch) >= opts.ChunkSize {
			if err := send(rawChunk{index: index, firstLine: firstRecord, records: batch}); err != nil {
				return err
			}
			index++
			batch = nil
		}
	}
	if len(batch) > 0 {
		return send(rawChunk{index: index, firstLine: firstRecord, records: batch})
	}
	return nil
}

// lineScanner frames r as lines of at most maxRecord bytes, newline
// included.
func lineScanner(r io.Reader, maxRecord int) *bufio.Scanner {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, min(1<<16, maxRecord)), maxRecord)
	return scanner
}

// lineError names the line a lineScanner stopped at when that line is
// longer than maxRecord, keeping bufio.ErrTooLong reachable with
// errors.Is. Other errors come from the reader and are returned as they
// are.
func lineError(err error, line, maxRecord int) error {
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("line %d: record exceeds %d bytes: %w", line, maxRecord, err)
	}
	return err
}
