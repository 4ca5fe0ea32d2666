// Command jxvalidate checks a stream of JSON records against a schema in
// the native encoding produced by `jxplain -format native`.
//
// Usage:
//
//	jxplain -format native data.jsonl > schema.json
//	jxvalidate -schema schema.json data.jsonl
//
// It prints a summary (accepted/rejected counts and recall) and, with -v,
// one line per rejected record. With -edits it additionally prints the
// greedy §7.5 upper bound on schema edits needed to accept everything.
// The exit status is 1 when any record is rejected.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"jxplain/internal/ingest"
	"jxplain/internal/metrics"
	"jxplain/internal/schema"
)

func main() {
	code, err := run(os.Args[1:], os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jxvalidate:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, stdin io.Reader, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("jxvalidate", flag.ContinueOnError)
	schemaPath := fs.String("schema", "", "schema file (native encoding)")
	verbose := fs.Bool("v", false, "print each rejected record's index")
	edits := fs.Bool("edits", false, "print the greedy edit bound for full recall")
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
	s, err := schema.Unmarshal(data)
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

	rejected := 0
	for i, t := range types {
		if !s.Accepts(t) {
			rejected++
			if *verbose {
				fmt.Fprintf(stdout, "record %d rejected: %s\n", i, t)
			}
		}
	}
	recall := 1.0
	if len(types) > 0 {
		recall = float64(len(types)-rejected) / float64(len(types))
	}
	fmt.Fprintf(stdout, "records: %d  accepted: %d  rejected: %d  recall: %.5f\n",
		len(types), len(types)-rejected, rejected, recall)

	if *edits && rejected > 0 {
		n, list := metrics.EditsToFullRecall(s, types)
		fmt.Fprintf(stdout, "edits to full recall (greedy upper bound): %d\n", n)
		for _, e := range list {
			fmt.Fprintf(stdout, "  %-13s %-40s %s\n", e.Op, e.Path, e.Detail)
		}
	}
	if rejected > 0 {
		return 1, nil
	}
	return 0, nil
}
