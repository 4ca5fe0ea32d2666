// Command jxdrift monitors a JSON record stream for structural drift
// against a baseline schema (the paper's §1 motivating scenario).
//
// Usage:
//
//	jxplain -format native baseline.jsonl > schema.json
//	jxdrift -schema schema.json -window 500 -threshold 0.01 live.jsonl
//
// Records are validated in windows; each window whose rejection rate
// crosses the threshold prints an alert naming the changed structure. The
// exit status is 1 when any alert fired.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"jxplain/internal/drift"
	"jxplain/internal/ingest"
	"jxplain/internal/schema"
)

func main() {
	code, err := run(os.Args[1:], os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jxdrift:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, stdin io.Reader, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("jxdrift", flag.ContinueOnError)
	schemaPath := fs.String("schema", "", "baseline schema file (native encoding)")
	window := fs.Int("window", 500, "records per evaluation window")
	threshold := fs.Float64("threshold", 0.01, "rejection-rate fraction that raises an alert")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *schemaPath == "" {
		return 2, fmt.Errorf("-schema is required")
	}
	data, err := os.ReadFile(*schemaPath)
	if err != nil {
		return 2, err
	}
	baseline, err := schema.Unmarshal(data)
	if err != nil {
		return 2, fmt.Errorf("parsing schema: %w", err)
	}

	input := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return 2, err
		}
		defer f.Close()
		input = f
	}
	types, err := ingest.Types(input, ingest.Options{})
	if err != nil {
		return 2, fmt.Errorf("decoding records: %w", err)
	}

	monitor := drift.NewMonitor(baseline, drift.Config{
		Window:          *window,
		RejectThreshold: *threshold,
	})
	for _, t := range types {
		if alert := monitor.Observe(t); alert != nil {
			fmt.Fprintln(stdout, alert)
		}
	}
	if alert := monitor.Flush(); alert != nil {
		fmt.Fprintln(stdout, alert)
	}
	seen, rejected, alerts := monitor.Totals()
	fmt.Fprintf(stdout, "observed: %d  rejected: %d  alerts: %d\n", seen, rejected, alerts)
	if alerts > 0 {
		return 1, nil
	}
	return 0, nil
}
