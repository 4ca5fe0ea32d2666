// Package ingest reads a stream of JSON records (JSONL or concatenated
// JSON) in bounded chunks and turns each chunk into a deduplicated
// jsontype.Bag through a decode worker pool.
//
// This is the streaming front half of discovery, and the only reader of
// records: Each and Fold feed the streaming pipeline, Types returns the
// types of a stream in order, Records hands out raw records, and Cuts
// divides an input into contiguous byte ranges for a sharding driver.
// One framer serves both formats: it ends a JSONL record at its
// newline and a concatenated one where a byte-level scan of the value
// ends, and jsontype.FromJSON parses every record. A single splitter
// goroutine frames raw records into blocks of Options.ChunkSize records
// and hands them to Options.Workers decoding goroutines. It reads the
// stream straight into a block and cuts it after the chunk's last
// record, so the records alias the block and none is copied. Decoded
// chunks are re-sequenced and delivered to the caller strictly in input
// order, so downstream accumulation is deterministic regardless of
// worker scheduling. Memory is bounded by at most Workers+2 blocks of
// about one chunk's bytes — never by the length of the stream — which is
// what lets the pipeline discover collections far larger than RAM.
//
// Cancellation: every stage watches the caller's context; on cancellation
// Each tears the stages down, waits for all goroutines to exit, and
// returns ctx.Err(). Each never leaks goroutines, also on decode errors
// and on callback errors.
package ingest

import (
	"context"
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
	// as concatenated JSON values; errors then carry line numbers, not
	// record ordinals.
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

// Each streams r as bounded chunks, calling fn once per chunk, in input
// order, from the calling goroutine's ordering domain (fn calls never
// overlap). It returns the total record count. A non-nil error from fn
// stops ingestion and is returned as-is; decode errors and context
// cancellation abort likewise. A decode error names the stream's first
// bad record, once fn has had every chunk before it. All internal
// goroutines have exited by the
// time Each returns. The splitter and decoder goroutines communicate only
// through channels, and re-sequencing runs on a single goroutine.
func Each(ctx context.Context, r io.Reader, opts Options, fn func(Chunk) error) (int, error) {
	opts = opts.withDefaults()

	// An internal context lets fn errors and decode errors tear down the
	// splitter and workers without requiring the caller to cancel.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// free holds every block there is. The splitter takes each block it
	// fills from it, and a worker puts a block back once its chunk is
	// scanned, so a send to free never blocks. Workers+2 blocks let every
	// worker scan while the splitter fills one block and moves its tail
	// into the next.
	free := make(chan *block, opts.Workers+2)
	for i := 0; i < cap(free); i++ {
		free <- new(block)
	}
	raws := make(chan *block, opts.Workers)
	type decoded struct {
		chunk Chunk
		err   error
	}
	results := make(chan decoded, opts.Workers)

	// Splitter: frame records into blocks of one chunk each.
	splitErr := make(chan error, 1)
	go func() {
		defer close(raws)
		splitErr <- split(ctx, r, opts, free, raws)
	}()

	// Decode workers: parse each record of a chunk and fold it into a bag.
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range raws {
				out := decoded{chunk: Chunk{Bag: &jsontype.Bag{}, Index: b.index}}
				for i, rec := range b.recs {
					t, err := jsontype.FromJSON(b.buf[rec.start:rec.end])
					if err != nil {
						out.err = b.recordError(i, opts.JSONL, err)
						break
					}
					out.chunk.Bag.Add(t)
				}
				free <- b
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

	// Re-sequence: deliver chunks to fn strictly in stream order. A decode
	// error waits its turn like a chunk, so the error returned is the
	// first in the stream, whichever worker finishes first.
	total := 0
	pending := map[int]decoded{}
	next := 0
	var firstErr error
	for res := range results {
		if firstErr != nil {
			continue // draining after failure
		}
		pending[res.chunk.Index] = res
		for {
			res, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if res.err != nil {
				firstErr = res.err
				cancel()
				break
			}
			total += res.chunk.Records
			if err := fn(res.chunk); err != nil {
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
// to fn receives the raw bytes of one JSON record, in stream order: a
// JSONL line without its line end, or a concatenated value without the
// whitespace around it. Only Options.JSONL and Options.MaxRecordBytes
// apply. Memory is bounded by the largest single record, never by the
// stream length.
//
// The slice passed to fn aliases an internal buffer and is only valid for
// the duration of the call; fn must copy it if it needs to keep it. A
// non-nil error from fn stops the scan and is returned as-is.
func Records(r io.Reader, opts Options, fn func(rec []byte) error) error {
	return records(r, opts, func(rec []byte, _ int) error { return fn(rec) })
}

// Types reads the stream sequentially and returns the type of each
// record, in stream order; with an error, those of the records before it.
// A record that fails to parse is named as Each names it: by line for
// JSONL, else by ordinal. Only Options.JSONL and Options.MaxRecordBytes
// apply.
func Types(r io.Reader, opts Options) ([]*jsontype.Type, error) {
	var types []*jsontype.Type
	err := records(r, opts, func(rec []byte, n int) error {
		t, err := jsontype.FromJSON(rec)
		if err != nil {
			return &RecordError{JSONL: opts.JSONL, N: n, Err: err}
		}
		types = append(types, t)
		return nil
	})
	return types, err
}

// records is Records, passing fn each record's line (JSONL) or ordinal
// too.
func records(r io.Reader, opts Options, fn func(rec []byte, n int) error) error {
	f := &framer{r: r, jsonl: opts.JSONL, max: opts.withDefaults().MaxRecordBytes, reuse: true, n: 1}
	for {
		start, end, err := f.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(f.buf[start:end], f.n-1); err != nil {
			return err
		}
	}
}

// split frames the stream into blocks of one chunk each, taking every
// block from free and sending it to out. It returns nil at EOF and
// ctx.Err() when cancelled mid-stream.
//
// It reads the stream into a block and cuts it after the chunk's
// ChunkSize-th record, so every chunk but the last holds exactly
// ChunkSize records, and records alias their block. The bytes read past
// the cut move into the next block, whose capacity follows the byte size
// of the chunk just cut, and is at least one read. Reads stop at a
// block's capacity, so a block needs no room past its chunk for the read
// that crosses the cut. A block about to fill grows to the size its
// records so far predict for the chunk, so the first block does not grow
// a read at a time, but to at most maxGrowth times its bytes; a block
// that fills anyway doubles.
func split(ctx context.Context, r io.Reader, opts Options, free <-chan *block, out chan<- *block) error {
	take := func() (*block, error) {
		select {
		case b := <-free:
			return b, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	send := func(b *block) error {
		select {
		case out <- b:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	f := &framer{r: r, jsonl: opts.JSONL, max: opts.MaxRecordBytes, n: 1}
	var b *block
	size := 0 // byte size of the last chunk cut
	for index := 0; ; index++ {
		next, err := take()
		if err != nil {
			return err
		}
		next.reset(index, f.n, max(size, readSize))
		next.buf = append(next.buf, f.buf[f.pos:]...)
		if b != nil {
			b.buf = f.buf[:f.pos]
			if err := send(b); err != nil {
				return err
			}
		}
		b, f.buf, f.scan, f.pos = next, next.buf, f.scan-f.pos, 0
		for len(b.recs) < opts.ChunkSize {
			start, end, err := f.next()
			if err == io.EOF {
				if len(b.recs) == 0 {
					return nil
				}
				b.buf = f.buf
				return send(b)
			}
			if err != nil {
				return err
			}
			b.recs = append(b.recs, span{start, end})
			if cap(f.buf)-len(f.buf) < readSize {
				f.reserve(len(b.recs), opts.ChunkSize)
			}
		}
		size = f.pos
	}
}
