// Command bench is jxplain's benchmark. One run prepares a seeded input
// for one workload, then either drives the real CLIs as a closed loop
// with one client (one op at a time, each op a fresh process whose
// stdout must equal the reference schema byte for byte) and reports the
// end-to-end metrics, or, with -trace 1, times every layer from outside
// in fresh child processes and reports the per-layer metrics.
//
// Run it from the root of a jxplain checkout:
//
//	bash bench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -set 10 -out bench/results/set-a.json
//	bash bench/run.sh -compare bench/results/set-a.json bench/results/set-b.json
//
// The last line of a run's stdout is one JSON object with the keys
// correct, attempted, failed and metrics. See bench/README.md.
package main

import (
	"bytes"
	"context"
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

const (
	// setupReps set-up children run per run; setup_s is their median.
	// On a noisy shared host one set-up child varies by about 10%; nine
	// bring the spread of setup_s over ten runs to about 5-10%, and each
	// more adds up to 1.3 s to a run. See bench/README.md.
	setupReps = 9
	// opTimeout fails an op that hangs, without stalling the run.
	opTimeout = 60 * time.Second
	// calNominal is the calibration op's typical wall time on a quiet
	// 2-vCPU Xeon VM at 2.1 GHz. Op times are reported as they would read
	// on a host where the calibration op takes exactly this long.
	calNominal = 0.055
)

// settings are one run's parameters.
type settings struct {
	root     string // checkout root: holds go.mod and cmd/
	work     string // build outputs, inputs, temp files
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // input size factor; 1 is the benchmark
	minOps   int     // ops (or traced trios) run even past seconds
	cpuprof  string  // CPU profile of the first seq child
}

// stamp records what a result was measured on.
type stamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"child_gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"vcs_revision"`
	Modified   bool    `json:"vcs_modified"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Records    int     `json:"records"`
	InputBytes int64   `json:"input_bytes"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line a run prints.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is one run, stamped.
type result struct {
	Stamp stamp `json:"stamp"`
	summary
	// FailedOps holds the first failures' reasons.
	FailedOps []string `json:"failed_ops,omitempty"`
	// Raw holds the end-to-end metrics before host-speed scaling, and
	// CalMS the median calibration op they were scaled by.
	Raw   map[string]metricValue `json:"raw,omitempty"`
	CalMS float64                `json:"cal_ms,omitempty"`
	spans []span
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: ingest, entity, shard or churn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from traced child runs")
	scale := fs.Float64("scale", 1, "input size factor")
	out := fs.String("out", "", "result file (default .bench_build/results/<workload>-seed<seed>-trace<trace>.json)")
	cpuprof := fs.String("cpuprofile", "", "write the first traced seq child's CPU profile, labelled by layer, here")
	set := fs.Int("set", 0, "run every workload for this many seeds from -seed and write one set file to -out")
	compare := fs.Bool("compare", false, "compare two set files given as arguments against BENCHMARK.json's bounds")
	child := fs.String("child", "", "internal: run as a prep, cal, seq, pipe or off child")
	data := fs.String("data", "", "internal: child input path without extension")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *child != "" {
		return runChild(*child, *name, *seed, *scale, *data, *cpuprof)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two set files")
		}
		return compareSets(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	s := settings{root: root, work: filepath.Join(root, ".bench_build"), seed: *seed,
		seconds: *seconds, trace: *trace == 1, scale: *scale, minOps: 1, cpuprof: *cpuprof}
	if *set > 0 {
		if *out == "" {
			return errors.New("-set needs -out")
		}
		return runSet(s, *set, *out)
	}
	if s.workload, err = workloadByName(*name); err != nil {
		return err
	}
	res, err := runOnce(s)
	if err != nil {
		return err
	}
	if *out == "" {
		*out = filepath.Join(s.work, "results",
			fmt.Sprintf("%s-seed%d-trace%d.json", s.workload.name, s.seed, *trace))
	}
	if err := writeResult(*out, res); err != nil {
		return err
	}
	line, err := json.Marshal(res.summary)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runOnce builds the CLIs, prepares the input and measures one run.
func runOnce(s settings) (*result, error) {
	var spec benchmarkFile
	if err := readJSON(filepath.Join(s.root, "BENCHMARK.json"), &spec); err != nil {
		return nil, err
	}
	bin := filepath.Join(s.work, "bin")
	tmp := filepath.Join(s.work, "tmp")
	dataDir := filepath.Join(s.work, "data")
	for _, d := range []string{bin, tmp, dataDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	st, err := buildCLIs(s.root, bin)
	if err != nil {
		return nil, err
	}
	st.NProc = runtime.NumCPU()
	st.GOMAXPROCS = min(st.NProc, 2)
	st.Workload, st.Seed, st.Trace, st.Scale, st.Seconds = s.workload.name, s.seed, s.trace, s.scale, s.seconds
	env := append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", st.GOMAXPROCS), "TMPDIR="+tmp)

	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(dataDir, fmt.Sprintf("%s-seed%d", s.workload.name, s.seed))
	childArgs := []string{"-workload", s.workload.name, "-seed", fmt.Sprint(s.seed),
		"-scale", fmt.Sprint(s.scale), "-data", base}
	prep := append([]string{self, "-child", "prep"}, childArgs...)
	cal := []string{self, "-child", "cal"}
	res := &result{Stamp: st}
	if s.trace {
		// setup_s is not a per-layer metric: prepare once, untimed.
		if _, err := runPrep(prep, env, &res.Stamp); err != nil {
			return nil, err
		}
		return res, traced(s, res, spec.PerLayer, self, childArgs, env)
	}

	// Like ops, each set-up child is scaled by the calibration ops run
	// right before and right after it.
	var stdout, stderr bytes.Buffer
	prevCal, _, err := timeCmd(cal, env, &stdout, &stderr)
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	var setup, setupRaw []float64
	for range setupReps {
		elapsed, err := runPrep(prep, env, &res.Stamp)
		if err != nil {
			return nil, err
		}
		nextCal, _, err := timeCmd(cal, env, &stdout, &stderr)
		if err != nil {
			return nil, fmt.Errorf("calibration: %w", err)
		}
		setupRaw = append(setupRaw, elapsed)
		setup = append(setup, elapsed*calNominal/((prevCal+nextCal)/2))
		prevCal = nextCal
	}
	want, err := os.ReadFile(base + ".ref")
	if err != nil {
		return nil, err
	}

	cmd := s.workload.command(bin, base+".jsonl")
	ops := runOps([][]string{cmd}, cal, env, want, s.seconds, s.minOps)
	res.Attempted, res.Failed, res.FailedOps = ops.attempted, ops.failed, ops.reasons
	res.Correct = ops.failed == 0
	// With every op failed, the op metrics read 0 and correct is false.
	raw := map[string]float64{"mb_per_s": 0, "op_ms_p90": 0, "peak_rss_mib": 0, "setup_s": median(setupRaw)}
	values := map[string]float64{"mb_per_s": 0, "op_ms_p90": 0, "peak_rss_mib": 0, "setup_s": median(setup)}
	if len(ops.seconds) > 0 {
		raw["mb_per_s"] = float64(res.Stamp.InputBytes) / 1e6 / median(ops.seconds)
		raw["op_ms_p90"] = 1000 * percentile(ops.seconds, 0.9)
		raw["peak_rss_mib"] = median(ops.rssMiB)
		// Scale each op by the host speed measured around it.
		nominal := make([]float64, len(ops.seconds))
		for i := range nominal {
			nominal[i] = ops.seconds[i] * calNominal / ops.calSeconds[i]
		}
		values["mb_per_s"] = float64(res.Stamp.InputBytes) / 1e6 / median(nominal)
		values["op_ms_p90"] = 1000 * percentile(nominal, 0.9)
		values["peak_rss_mib"] = raw["peak_rss_mib"]
		res.CalMS = 1000 * median(ops.calSeconds)
	}
	if res.Raw, err = metricMap(spec.EndToEnd, raw); err != nil {
		return nil, err
	}
	if res.Metrics, err = metricMap(spec.EndToEnd, values); err != nil {
		return nil, err
	}
	return res, nil
}

// runPrep runs one preparation child, which writes the input file and
// its reference, records the input's size in st and returns the child's
// wall time.
func runPrep(prep, env []string, st *stamp) (float64, error) {
	var stdout, stderr bytes.Buffer
	elapsed, _, err := timeCmd(prep, env, &stdout, &stderr)
	if err != nil {
		return 0, fmt.Errorf("preparing %s: %w", st.Workload, err)
	}
	var p prepared
	if err := json.Unmarshal(stdout.Bytes(), &p); err != nil {
		return 0, fmt.Errorf("preparing %s: %w", st.Workload, err)
	}
	st.Records, st.InputBytes = p.Records, p.Bytes
	return elapsed, nil
}

// buildCLIs builds jxplain and jxshard from the checkout and reads the
// toolchain and VCS revision they were built from.
func buildCLIs(root, bin string) (stamp, error) {
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/jxplain", "./cmd/jxshard")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return stamp{}, fmt.Errorf("building the CLIs: %v\n%s", err, out)
	}
	info, err := buildinfo.ReadFile(filepath.Join(bin, "jxplain"))
	if err != nil {
		return stamp{}, err
	}
	st := stamp{GoVersion: info.GoVersion}
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			st.Revision = kv.Value
		case "vcs.modified":
			st.Modified = kv.Value == "true"
		}
	}
	return st, nil
}

// runChild is the body of a child process: prep writes the input and its
// reference, seq, pipe and off are the traced passes.
func runChild(pass, name string, seed int64, scale float64, base, cpuprof string) error {
	if pass == "cal" {
		calibrate()
		return nil
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	var v any
	switch pass {
	case "prep":
		v, err = prepare(w, seed, scale, base)
	case "seq", "pipe", "off":
		v, err = runTraced(pass, w, base, cpuprof)
	default:
		err = fmt.Errorf("unknown child %q", pass)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(v)
}

// opStats collects a closed loop's ops.
type opStats struct {
	attempted, failed int
	// seconds, calSeconds and rssMiB hold one entry per successful op:
	// its wall time, the mean of the calibration ops run right before
	// and right after it, and its peak RSS.
	seconds, calSeconds, rssMiB []float64
	reasons                     []string // of the first few failures
}

// runOps runs the commands round-robin, one at a time, until seconds
// have passed and at least minOps ops ran. An op fails on a non-zero
// exit, a timeout, or stdout other than want; the loop goes on. The cal
// command runs before the first op and after every op.
func runOps(cmds [][]string, cal []string, env []string, want []byte, seconds float64, minOps int) opStats {
	var st opStats
	var stdout, stderr bytes.Buffer
	fail := func(what string, err error) {
		st.failed++
		if len(st.reasons) < 5 {
			st.reasons = append(st.reasons, fmt.Sprintf("%s: %v", what, err))
		}
	}
	prevCal, _, err := timeCmd(cal, env, &stdout, &stderr)
	if err != nil {
		fail("calibration", err)
		return st
	}
	start := time.Now()
	for i := 0; i < minOps || time.Since(start).Seconds() < seconds; i++ {
		argv := cmds[i%len(cmds)]
		st.attempted++
		elapsed, usage, err := timeCmd(argv, env, &stdout, &stderr)
		if err == nil && !bytes.Equal(stdout.Bytes(), want) {
			err = fmt.Errorf("stdout differs from the reference (%d bytes, want %d)", stdout.Len(), len(want))
		}
		if err != nil {
			fail(fmt.Sprintf("op %d (%s)", i, filepath.Base(argv[0])), err)
		}
		nextCal, _, calErr := timeCmd(cal, env, &stdout, &stderr)
		if calErr != nil {
			fail("calibration", calErr)
			return st
		}
		if err != nil {
			prevCal = nextCal
			continue
		}
		st.seconds = append(st.seconds, elapsed)
		st.calSeconds = append(st.calSeconds, (prevCal+nextCal)/2)
		// Maxrss is in KiB on Linux. For jxshard run it is the largest of
		// jxshard run itself and the map workers it waited for.
		st.rssMiB = append(st.rssMiB, float64(usage.Maxrss)/1024)
		prevCal = nextCal
	}
	return st
}

// timeCmd runs argv to completion with a timeout and returns its wall
// time and resource usage. A non-zero exit is an error carrying the last
// line of stderr.
func timeCmd(argv, env []string, stdout, stderr *bytes.Buffer) (float64, *syscall.Rusage, error) {
	stdout.Reset()
	stderr.Reset()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Env = env
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	// jxshard's map workers share its stderr; after a kill, stop waiting
	// for them to close it.
	cmd.WaitDelay = 5 * time.Second
	start := time.Now()
	err := cmd.Run()
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return 0, nil, fmt.Errorf("%v: %s", err, lastLine(stderr.String()))
	}
	return elapsed, cmd.ProcessState.SysUsage().(*syscall.Rusage), nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// traced runs seq, pipe and off child trios until the run's seconds have
// passed and reports the median of each per-layer metric over trios.
func traced(s settings, res *result, defs []metricDef, self string, childArgs, env []string) error {
	values := map[string][]float64{}
	var stdout, stderr bytes.Buffer
	start := time.Now()
	for trio := 0; trio < s.minOps || time.Since(start).Seconds() < s.seconds; trio++ {
		var rs [3]childResult
		ok := true
		for i, pass := range []string{"seq", "pipe", "off"} {
			argv := append([]string{self, "-child", pass}, childArgs...)
			if pass == "seq" && trio == 0 && s.cpuprof != "" {
				argv = append(argv, "-cpuprofile", s.cpuprof)
			}
			res.Attempted++
			_, _, err := timeCmd(argv, env, &stdout, &stderr)
			if err == nil {
				err = json.Unmarshal(stdout.Bytes(), &rs[i])
			}
			if err == nil && !rs[i].Equal {
				err = errors.New("output differs from the reference")
			}
			if err != nil {
				res.Failed++
				ok = false
				if len(res.FailedOps) < 5 {
					res.FailedOps = append(res.FailedOps, fmt.Sprintf("trio %d %s: %v", trio, pass, err))
				}
			}
		}
		if !ok {
			continue
		}
		for k, v := range layerMetrics(rs[0], rs[1], rs[2]) {
			values[k] = append(values[k], v)
		}
		for _, sp := range rs[0].Spans {
			sp.Workload, sp.Pass, sp.Run = s.workload.name, "seq", trio
			res.spans = append(res.spans, sp)
		}
	}
	res.Correct = res.Failed == 0
	if len(values) == 0 {
		// Every trio failed: the metrics read 0 and correct is false.
		for _, d := range defs {
			values[d.Name] = []float64{0}
		}
	}
	medians := map[string]float64{}
	for k, v := range values {
		medians[k] = median(v)
	}
	var err error
	res.Metrics, err = metricMap(defs, medians)
	return err
}

// metricMap attaches BENCHMARK.json's units to the values. It fails when
// BENCHMARK.json names a metric that has no value.
func metricMap(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	m := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
		}
		m[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("BENCHMARK.json names metrics the benchmark does not compute: %s",
			strings.Join(missing, ", "))
	}
	return m, nil
}

// writeResult writes the stamped result and, for a traced run, its spans
// as JSON lines beside it.
func writeResult(path string, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(res.spans) == 0 {
		return nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sp := range res.spans {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return os.WriteFile(strings.TrimSuffix(path, ".json")+".spans.jsonl", buf.Bytes(), 0o644)
}

// runSet runs every workload for n seeds, interleaving workloads so slow
// machine drift lands on all of them, and writes the results as one set
// file for -compare.
func runSet(s settings, n int, out string) error {
	var runs []*result
	first := s.seed
	for seed := first; seed < first+int64(n); seed++ {
		for _, w := range workloads {
			s.workload, s.seed = w, seed
			res, err := runOnce(s)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: correct=%v attempted=%d %s\n",
				w.name, seed, res.Correct, res.Attempted, formatMetrics(res.Metrics))
			runs = append(runs, res)
		}
	}
	data, err := json.MarshalIndent(setFile{Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

func formatMetrics(m map[string]metricValue) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.4g%s", k, m[k].Value, m[k].Unit)
	}
	return strings.TrimSpace(b.String())
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile interpolates the p-quantile between order statistics.
func percentile(v []float64, p float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	x := p * float64(len(s)-1)
	i := int(x)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}
