// Command jxbench regenerates the paper's evaluation: Tables 1–5, Figures
// 4–5, the §7.5 edit bound, and three ablations, over the synthetic
// datasets.
//
// Usage:
//
//	jxbench -table 1                 # Table 1 (recall)
//	jxbench -table 2 -scale 0.5     # Table 2 at half the default data size
//	jxbench -figure 4               # Figure 4 entropy histogram
//	jxbench -table edits            # §7.5 schema-edit bound
//	jxbench -table threshold        # threshold-sensitivity ablation
//	jxbench -table staged           # recursive vs pipeline ablation
//	jxbench -table iterative        # §4.2 sampling loop
//	jxbench -all                    # everything
//
// -datasets restricts to a comma-separated list; -csv switches output to
// CSV; -cpuprofile/-memprofile write pprof profiles of the run. The
// performance benchmark is not here: it runs the CLIs end to end from
// bench/ (see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"jxplain/internal/experiments"
)

// result is the common surface of every experiment result.
type result interface {
	Render() string
	CSV() string
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jxbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("jxbench", flag.ContinueOnError)
	tableF := fs.String("table", "", "table to run: 1..5, edits, threshold, staged, iterative, sampled, fd, describe")
	figureF := fs.String("figure", "", "figure to run: 4 or 5")
	all := fs.Bool("all", false, "run every table, figure and ablation")
	datasets := fs.String("datasets", "", "comma-separated dataset subset")
	trials := fs.Int("trials", 0, "trials per configuration (default 5)")
	scale := fs.Float64("scale", 1.0, "dataset size multiplier")
	seed := fs.Int64("seed", 1, "experiment seed")
	csv := fs.Bool("csv", false, "emit CSV instead of ASCII tables")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // up-to-date heap statistics for the profile
			pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}()
	}

	opts := experiments.Options{Trials: *trials, Scale: *scale, Seed: *seed}
	if *datasets != "" {
		for _, name := range strings.Split(*datasets, ",") {
			opts.Datasets = append(opts.Datasets, strings.TrimSpace(name))
		}
	}

	var runs []string
	switch {
	case *all:
		runs = []string{"1", "2", "3", "4", "5", "fig4", "fig5", "edits", "threshold", "staged", "iterative", "sampled", "fd", "describe"}
	case *tableF != "":
		runs = []string{*tableF}
	case *figureF != "":
		runs = []string{"fig" + *figureF}
	default:
		return fmt.Errorf("pick -table, -figure, or -all")
	}

	for _, name := range runs {
		res, err := dispatch(name, opts)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Fprint(stdout, res.CSV())
		} else {
			fmt.Fprintln(stdout, res.Render())
		}
	}
	return nil
}

func dispatch(name string, opts experiments.Options) (result, error) {
	switch name {
	case "1":
		return experiments.RunTable1(opts)
	case "2":
		return experiments.RunTable2(opts)
	case "3":
		return experiments.RunTable3(opts)
	case "4":
		return experiments.RunTable4(opts)
	case "5":
		return experiments.RunTable5(opts)
	case "fig4":
		return experiments.RunFigure4(opts)
	case "fig5":
		return experiments.RunFigure5(opts)
	case "edits":
		return experiments.RunEdits(opts)
	case "threshold":
		return experiments.RunThreshold(opts)
	case "staged":
		return experiments.RunStaged(opts)
	case "iterative":
		return experiments.RunIterative(opts)
	case "sampled":
		return experiments.RunSampledDetection(opts)
	case "fd":
		return experiments.RunFD(opts)
	case "describe":
		return experiments.RunDescribe(opts)
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}
