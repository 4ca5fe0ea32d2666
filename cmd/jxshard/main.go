// Command jxshard runs schema discovery as a scale-out map/reduce over
// the versioned sketch wire format.
//
//	jxshard map    [-jsonl] [-workers N] [-chunk N] -o out.jxsk [file]
//	jxshard reduce [algorithm flags] [-reduce-workers N] [-format F] sketch...
//	jxshard run    [-shards N] [-jsonl] [-reduce-workers N] [algorithm flags] [-format F] [file]
//
// The map phase folds one shard of the input into an accumulator and
// writes its serialized sketch — no algorithm configuration needed, since
// a sketch carries data statistics only. The reduce phase merges sketch
// files *in argument order* — as a parallel tree when -reduce-workers
// allows — and runs passes ②/③ once under the supplied configuration. run
// is the single-machine driver: it streams the input into contiguous
// shards, one `jxshard map` worker process per shard, and tree-reduces
// their sketches.
//
// Shards are contiguous ranges, not round-robin deals: concatenating the
// shards reproduces the input stream, so reducing in shard order rebuilds
// the exact first-seen type order a single process would have observed and
// the discovered schema is byte-identical to a non-sharded run. The driver
// never materializes the corpus: shard boundaries are found by scanning
// record frames against byte quotas and each record is forwarded straight
// to its worker's stdin, so the driver's memory is O(record), not
// O(corpus).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"jxplain/internal/core"
	"jxplain/internal/ingest"
	"jxplain/internal/schema"
	"jxplain/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "jxshard:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: jxshard map|reduce|run [flags]")
	}
	switch args[0] {
	case "map":
		return runMap(args[1:], stdin, stdout)
	case "reduce":
		return runReduce(args[1:], stdout)
	case "run":
		return runRun(args[1:], stdin, stdout, stderr)
	}
	return fmt.Errorf("unknown subcommand %q (want map, reduce, or run)", args[0])
}

// reduceFlags holds the flags reduce and run share: the staged
// extractor's configuration, the merge width and the output format.
type reduceFlags struct {
	algorithm, format            string
	threshold                    float64
	noArrayTuples, noObjectColls bool
	seed                         int64
	workers                      int
}

func newReduceFlags(fs *flag.FlagSet) *reduceFlags {
	f := &reduceFlags{}
	fs.StringVar(&f.algorithm, "algorithm", "jxplain", "extractor: jxplain or bimax-naive")
	fs.Float64Var(&f.threshold, "threshold", 1.0,
		"key-space entropy threshold for collection detection (natural log)")
	fs.BoolVar(&f.noArrayTuples, "no-array-tuples", false,
		"treat every array as a collection (disable §5.4 detection)")
	fs.BoolVar(&f.noObjectColls, "no-object-collections", false,
		"treat every object as a tuple (disable §5.1 detection)")
	fs.Int64Var(&f.seed, "seed", 1, "seed for sampling and k-means")
	fs.StringVar(&f.format, "format", "pretty",
		"output: pretty (paper notation), jsonschema, or native")
	fs.IntVar(&f.workers, "reduce-workers", 0,
		"concurrent sketch-merge workers (0 = one per core, 1 = sequential)")
	return f
}

// config checks the flags — the output format too, before reduce or run
// does any work — and returns the extractor's configuration.
func (f *reduceFlags) config() (core.Config, error) {
	if err := stream.CheckFormat(f.format); err != nil {
		return core.Config{}, err
	}
	return stream.Config(f.algorithm, f.threshold, !f.noArrayTuples, !f.noObjectColls, f.seed)
}

// reduce merges the sketch files in order — as a parallel tree when
// -reduce-workers allows — and synthesizes the schema once.
func (f *reduceFlags) reduce(stdout io.Writer, cfg core.Config, sketches []string) error {
	res, err := stream.Run(context.Background(), nil, cfg, stream.Plan{Seeds: sketches, ReduceWorkers: f.workers})
	if err != nil {
		return fmt.Errorf("reduce: %w", err)
	}
	if res.Acc.Records() == 0 {
		return fmt.Errorf("no records in input")
	}
	return stream.WriteSchema(stdout, schema.Simplify(res.Acc.Finish()), f.format)
}

func openInput(fs *flag.FlagSet, stdin io.Reader) (io.Reader, func() error, error) {
	if fs.NArg() == 0 {
		return stdin, func() error { return nil }, nil
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// runMap folds one shard into an accumulator and writes its sketch. An
// empty shard is legal (uneven splits may starve a worker) and yields an
// empty sketch that merges as a no-op.
func runMap(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("jxshard map", flag.ContinueOnError)
	out := fs.String("o", "", "output sketch file (required; - for stdout)")
	jsonl := fs.Bool("jsonl", false, "treat input as strict JSONL")
	workers := fs.Int("workers", 0, "decode workers (0 = one per core)")
	chunk := fs.Int("chunk", 0, "records per ingestion chunk (0 = default 2048)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("map: -o is required")
	}
	input, closeIn, err := openInput(fs, stdin)
	if err != nil {
		return err
	}
	defer closeIn()

	res, err := stream.Run(context.Background(), input, core.Default(), stream.Plan{
		Options: stream.Options{ChunkSize: *chunk, Workers: *workers, JSONL: *jsonl}})
	if err != nil {
		return fmt.Errorf("map: %w", err)
	}
	return stream.WriteSketch(stdout, res.Acc, *out)
}

// runReduce reduces the sketch files named on the command line.
func runReduce(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("jxshard reduce", flag.ContinueOnError)
	f := newReduceFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := f.config()
	if err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("reduce: no sketch files given")
	}
	return f.reduce(stdout, cfg, fs.Args())
}

// runRun is the single-machine scale-out driver: contiguous streamed
// split, one map worker process per shard, tree reduce in shard order.
//
// The input is never read into memory. Shard boundaries are byte quotas
// over the input size (a Stat for regular files; anything else is spooled
// to a temp file first, through a bounded copy buffer): each record is
// scanned off the stream and forwarded to the current worker's stdin, and
// the driver moves to the next worker at the first record boundary past
// the quota. Workers are started upfront, so shard i decodes while shards
// i+1.. are still being fed.
func runRun(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("jxshard run", flag.ContinueOnError)
	f := newReduceFlags(fs)
	shards := fs.Int("shards", 4, "number of map worker processes")
	jsonl := fs.Bool("jsonl", false, "treat input as strict JSONL")
	workers := fs.Int("workers", 0, "decode workers per map process (0 = one per core)")
	chunk := fs.Int("chunk", 0, "records per ingestion chunk (0 = default 2048)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := f.config()
	if err != nil {
		return err
	}
	if *shards < 1 {
		return fmt.Errorf("run: -shards must be at least 1")
	}
	input, closeIn, err := openInput(fs, stdin)
	if err != nil {
		return err
	}
	defer closeIn()

	tmp, err := os.MkdirTemp("", "jxshard")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	size, input, cleanInput, err := sizedInput(input, tmp)
	if err != nil {
		return err
	}
	defer cleanInput()

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var mapArgs []string
	if *jsonl {
		mapArgs = append(mapArgs, "-jsonl")
	}
	if *workers > 0 {
		mapArgs = append(mapArgs, "-workers", fmt.Sprint(*workers))
	}
	if *chunk > 0 {
		mapArgs = append(mapArgs, "-chunk", fmt.Sprint(*chunk))
	}
	sketches, err := feedShards(input, size, *shards, *jsonl, tmp, exe, mapArgs, stderr)
	if err != nil {
		return err
	}
	return f.reduce(stdout, cfg, sketches)
}

// sizedInput returns the input's byte size for quota computation, plus a
// cleanup releasing whatever the sizing allocated. A regular file answers
// with a Stat and needs no cleanup (the caller owns the handle); any
// other reader (a pipe, a terminal) is spooled into dir through io.Copy's
// bounded buffer — still O(buffer) memory — and replaced by the spool
// file, which the cleanup closes and removes. Error paths inside release
// the spool themselves, so a failed spool never outlives the call.
func sizedInput(input io.Reader, dir string) (int64, io.Reader, func(), error) {
	if f, ok := input.(*os.File); ok {
		if info, err := f.Stat(); err == nil && info.Mode().IsRegular() {
			return info.Size(), f, func() {}, nil
		}
	}
	path := filepath.Join(dir, "input.spool")
	spool, err := os.Create(path)
	if err != nil {
		return 0, nil, nil, err
	}
	cleanup := func() {
		spool.Close()
		os.Remove(path)
	}
	size, err := io.Copy(spool, input)
	if err != nil {
		cleanup()
		return 0, nil, nil, fmt.Errorf("spooling input: %w", err)
	}
	if _, err := spool.Seek(0, io.SeekStart); err != nil {
		cleanup()
		return 0, nil, nil, err
	}
	return size, spool, cleanup, nil
}

// mapWorker is one running `jxshard map` process being fed its shard over
// stdin, through a buffer so that forwarding costs a pipe write per
// buffer, not two per record.
type mapWorker struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	buf   *bufio.Writer
}

// feedBufferSize is the forwarding buffer run keeps per shard.
const feedBufferSize = 64 << 10

// finish flushes what is buffered for the worker and closes its stdin, so
// the worker sees the end of its shard.
func (w *mapWorker) finish() error {
	if err := w.buf.Flush(); err != nil {
		w.stdin.Close()
		return err
	}
	return w.stdin.Close()
}

// feedShards starts n map workers reading stdin and writing per-shard
// sketch files into tmp, then scans the input record by record, streaming
// each record to the current worker and advancing at the first record
// boundary past the shard's byte quota (size·(i+1)/n). It waits for every
// worker and returns the sketch paths in shard order.
func feedShards(input io.Reader, size int64, n int, jsonl bool, tmp, exe string, mapArgs []string, stderr io.Writer) ([]string, error) {
	sketches := make([]string, n)
	workerz := make([]*mapWorker, n)
	for i := range workerz {
		sketches[i] = filepath.Join(tmp, fmt.Sprintf("shard%d.jxsk", i))
		args := append([]string{"map", "-o", sketches[i]}, mapArgs...)
		cmd := exec.Command(exe, args...)
		cmd.Stderr = stderr
		// Lets a test binary recognize it must act as jxshard.
		cmd.Env = append(os.Environ(), "JXSHARD_WORKER_PROCESS=1")
		w, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		workerz[i] = &mapWorker{cmd: cmd, stdin: w, buf: bufio.NewWriterSize(w, feedBufferSize)}
	}
	// On every return path, close any unfed stdin (workers see EOF and
	// emit an empty sketch) and reap the processes.
	cur, written := 0, int64(0)
	scanErr := ingest.Records(input, ingest.Options{JSONL: jsonl}, func(rec []byte) error {
		for cur < n-1 && written >= size*int64(cur+1)/int64(n) {
			if err := workerz[cur].finish(); err != nil {
				return fmt.Errorf("feeding shard %d: %w", cur, err)
			}
			cur++
		}
		w := workerz[cur].buf
		if _, err := w.Write(rec); err != nil {
			return fmt.Errorf("feeding shard %d: %w", cur, err)
		}
		if err := w.WriteByte('\n'); err != nil {
			return fmt.Errorf("feeding shard %d: %w", cur, err)
		}
		written += int64(len(rec)) + 1
		return nil
	})
	if scanErr == nil {
		if err := workerz[cur].finish(); err != nil {
			scanErr = fmt.Errorf("feeding shard %d: %w", cur, err)
		}
	}
	var waitErr error
	for i, w := range workerz {
		w.stdin.Close() // idempotent; signals EOF to every remaining shard
		if err := w.cmd.Wait(); err != nil && waitErr == nil {
			waitErr = fmt.Errorf("map worker %d: %w", i, err)
		}
	}
	// A worker failure usually explains the feed error (a broken pipe is
	// the symptom, the worker's exit status the cause), so report it first.
	if waitErr != nil {
		return nil, waitErr
	}
	if scanErr != nil {
		return nil, scanErr
	}
	return sketches, nil
}
