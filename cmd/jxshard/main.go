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
// is the single-machine driver: it cuts the input into contiguous byte
// ranges, starts one `jxshard map` worker process per range at once, and
// tree-reduces their sketches.
//
// Shards are contiguous ranges, not round-robin deals: concatenating the
// shards reproduces the input stream, so reducing in shard order rebuilds
// the exact first-seen type order a single process would have observed and
// the discovered schema is byte-identical to a non-sharded run. The driver
// never materializes the corpus and forwards no record: every worker gets
// the driver's open input file as its stdin and its range in the
// JXSHARD_RANGE environment variable (start:end, in bytes), and reads that
// range itself with pread, which ignores the file offset the workers
// share. A worker whose record fails numbers it as a record of the whole
// input, by counting what comes before its range, so its error names the
// line or record jxplain would name.
package main

import (
	"bytes"
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
	input, prefix, err := shardRange(input)
	if err != nil {
		return fmt.Errorf("map: %w", err)
	}

	res, err := stream.Run(context.Background(), input, core.Default(), stream.Plan{
		Options: stream.Options{ChunkSize: *chunk, Workers: *workers, JSONL: *jsonl}, Prefix: prefix})
	if err != nil {
		return fmt.Errorf("map: %w", err)
	}
	return stream.WriteSketch(stdout, res.Acc, *out)
}

// rangeEnv names the environment variable in which run gives each map
// worker its byte range of the input, as start:end.
const rangeEnv = "JXSHARD_RANGE"

// shardRange returns what a map worker reads: its range of input, and the
// bytes before the range as the prefix, when run set rangeEnv; else all of
// input and no prefix.
func shardRange(input io.Reader) (io.Reader, io.Reader, error) {
	spec, ok := os.LookupEnv(rangeEnv)
	if !ok {
		return input, nil, nil
	}
	var start, end int64
	if _, err := fmt.Sscanf(spec, "%d:%d", &start, &end); err != nil || start < 0 || end < start {
		return nil, nil, fmt.Errorf("bad %s %q", rangeEnv, spec)
	}
	file, ok := input.(io.ReaderAt)
	if !ok {
		return nil, nil, fmt.Errorf("%s needs a file as input", rangeEnv)
	}
	return io.NewSectionReader(file, start, end-start), io.NewSectionReader(file, 0, start), nil
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

// runRun is the single-machine scale-out driver: contiguous byte ranges,
// one map worker process per range, tree reduce in shard order.
//
// The driver reads no more of the input than it needs to place the cuts
// (ingest.Cuts): a fixed buffer at each byte quota for JSONL, the framed
// records up to the last cut otherwise. Every worker starts at once and
// reads its own range of the driver's input file, which is the named file,
// a regular-file stdin, or a spool of any other stdin.
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

	file, size, cleanInput, err := sizedInput(input, tmp)
	if err != nil {
		return err
	}
	defer cleanInput()
	cuts, err := ingest.Cuts(file, size, *shards, *jsonl)
	if err != nil {
		return fmt.Errorf("cutting the input: %w", err)
	}

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
	sketches, err := mapShards(file, cuts, tmp, exe, mapArgs, stderr)
	if err != nil {
		return err
	}
	return f.reduce(stdout, cfg, sketches)
}

// sizedInput returns the input as a file the workers can read ranges of,
// its byte size, and a cleanup releasing whatever the sizing allocated. A
// regular file read from its start is used as it is and needs no cleanup
// (the caller owns the handle); any other reader (a pipe, a terminal, a
// file read from part way) is spooled into dir through io.Copy's bounded
// buffer, and the cleanup closes and removes the spool. Error paths inside
// release the spool themselves, so a failed spool never outlives the call.
func sizedInput(input io.Reader, dir string) (*os.File, int64, func(), error) {
	if f, ok := input.(*os.File); ok {
		info, err := f.Stat()
		if err == nil && info.Mode().IsRegular() {
			if at, err := f.Seek(0, io.SeekCurrent); err == nil && at == 0 {
				return f, info.Size(), func() {}, nil
			}
		}
	}
	path := filepath.Join(dir, "input.spool")
	spool, err := os.Create(path)
	if err != nil {
		return nil, 0, nil, err
	}
	cleanup := func() {
		spool.Close()
		os.Remove(path)
	}
	size, err := io.Copy(spool, input)
	if err != nil {
		cleanup()
		return nil, 0, nil, fmt.Errorf("spooling input: %w", err)
	}
	return spool, size, cleanup, nil
}

// mapShards starts a map worker for each range between successive cuts,
// all at once, each reading its range of input and writing its sketch
// into tmp. It waits for every worker and returns the sketch paths in
// shard order. Each worker's stderr goes into a buffer of its own; once
// all have exited, the buffers are copied to stderr in shard order up to
// the first worker that failed, which the error names, and the stderr of
// the workers after it is dropped. So a run with bad records in several
// shards reports the input's first, as jxplain does. A worker that cannot
// be started is reported before any worker's failure, after the stderr of
// those started before it.
func mapShards(input *os.File, cuts []int64, tmp, exe string, mapArgs []string, stderr io.Writer) ([]string, error) {
	sketches := make([]string, len(cuts)-1)
	logs := make([]bytes.Buffer, len(sketches))
	var started []*exec.Cmd
	var err error
	for i := range sketches {
		sketches[i] = filepath.Join(tmp, fmt.Sprintf("shard%d.jxsk", i))
		cmd := exec.Command(exe, append([]string{"map", "-o", sketches[i]}, mapArgs...)...)
		cmd.Stdin, cmd.Stderr = input, &logs[i]
		// JXSHARD_WORKER_PROCESS lets a test binary recognize it must act
		// as jxshard.
		cmd.Env = append(os.Environ(), "JXSHARD_WORKER_PROCESS=1",
			fmt.Sprintf("%s=%d:%d", rangeEnv, cuts[i], cuts[i+1]))
		if err = cmd.Start(); err != nil {
			break
		}
		started = append(started, cmd)
	}
	failed := make([]error, len(started))
	for i, cmd := range started {
		failed[i] = cmd.Wait()
	}
	for i, werr := range failed {
		stderr.Write(logs[i].Bytes())
		if werr != nil && err == nil {
			return nil, fmt.Errorf("map worker %d: %w", i, werr)
		}
	}
	if err != nil {
		return nil, err
	}
	return sketches, nil
}
