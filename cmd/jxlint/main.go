// Command jxlint runs the jxplain analyzer suite (interncheck,
// hotpathalloc, hotpathcall, detorder, mergepure, decodebound,
// ignoreaudit — see internal/lint). It speaks cmd/go's vet tool protocol,
// including the .vetx fact files that carry the cross-package facts
// (hotpathcall's AllocFree/ColdPath, decodebound's
// TaintedResult/TaintedParam/BoundedResult, mergepure's
// MutatesParam/AdoptsParam/Nondet/Immutable) between units, so the
// canonical invocation is
//
//	go vet -vettool=$(go env GOPATH)/bin/jxlint ./...
//
// (what `make lint` runs). Invoked with package patterns instead of a vet
// config file, it re-executes itself through go vet, so
//
//	jxlint ./...
//
// works standalone. Individual analyzers can be disabled with
// -<analyzer>=false.
//
// In package-pattern mode, -json emits the merged findings of all units
// as a JSON array and -sarif emits a SARIF 2.1.0 log for GitHub code
// scanning (-o writes either to a file instead of stdout; the terminal
// diagnostics and the exit code are unchanged). The per-unit checkers
// hand their findings to the parent through the JXLINT_DIAG_DIR
// directory protocol — see internal/lint/unitchecker.
//
// Also in package-pattern mode, the mechanical-fix engine applies the
// analyzers' suggested fixes: -fix rewrites the source files in place
// (non-overlapping fixes only; conflicts are skipped with a note), and
// -fixdiff renders the same changes as a unified-style diff without
// touching anything. Both keep go vet's exit code: applying fixes does
// not launder the findings. Fixes ride only on diagnostics that survive
// filtering, and any such diagnostic fails the run, so a passing run
// implies an empty -fixdiff.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"jxplain/internal/lint/analyzers"
	"jxplain/internal/lint/jxanalysis"
	"jxplain/internal/lint/unitchecker"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	progname := filepath.Base(os.Args[0])
	suite := analyzers.All()

	fs := flag.NewFlagSet(progname, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: %s [-<analyzer>=false ...] [-json|-sarif|-fix|-fixdiff [-o file]] <packages | vet.cfg>\n\nanalyzers:\n", progname)
		for _, a := range suite {
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	vFlag := fs.String("V", "", "print version and exit (cmd/go build ID protocol)")
	flagsFlag := fs.Bool("flags", false, "print analyzer flags in JSON (cmd/go vet protocol)")
	jsonFlag := fs.Bool("json", false, "emit the merged findings as JSON (package-pattern mode only)")
	sarifFlag := fs.Bool("sarif", false, "emit the merged findings as SARIF 2.1.0 (package-pattern mode only)")
	outFlag := fs.String("o", "", "write the -json/-sarif/-fixdiff output to this file instead of stdout")
	fixFlag := fs.Bool("fix", false, "apply the analyzers' suggested fixes to the source files (package-pattern mode only)")
	fixdiffFlag := fs.Bool("fixdiff", false, "render the suggested fixes as a diff without applying them (package-pattern mode only)")
	enabled := map[string]*bool{}
	for _, a := range suite {
		enabled[a.Name] = fs.Bool(a.Name, true, a.Doc)
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *vFlag != "" {
		// cmd/go runs `jxlint -V=full` and parses "<name> version devel ...
		// buildID=<content id>" to compute the tool's build ID.
		return printVersion(progname)
	}
	if *flagsFlag {
		return printFlags(suite)
	}

	active := make([]*jxanalysis.Analyzer, 0, len(suite))
	var disabled []string
	for _, a := range suite {
		if *enabled[a.Name] {
			active = append(active, a)
		} else {
			disabled = append(disabled, "-"+a.Name+"=false")
		}
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return unitchecker.Run(rest[0], active)
	}
	if len(rest) == 0 {
		fs.Usage()
		return 1
	}
	modes := 0
	for _, on := range []bool{*jsonFlag, *sarifFlag, *fixFlag, *fixdiffFlag} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "jxlint: -json, -sarif, -fix, and -fixdiff are mutually exclusive")
		return 1
	}
	if *fixFlag || *fixdiffFlag {
		return runFix(disabled, rest, *fixFlag, *outFlag)
	}
	if *jsonFlag || *sarifFlag {
		return runStructured(disabled, rest, *sarifFlag, *outFlag, active)
	}
	return delegate(disabled, rest)
}

// delegate re-invokes the tool through go vet so cmd/go does the package
// loading and export-data plumbing. extraEnv entries are appended to the
// child's environment (the -json/-sarif modes pass the findings
// directory through it).
func delegate(flags, patterns []string, extraEnv ...string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jxlint: %v\n", err)
		return 1
	}
	args := append([]string{"vet", "-vettool=" + exe}, flags...)
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	if len(extraEnv) > 0 {
		cmd.Env = append(os.Environ(), extraEnv...)
	}
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "jxlint: running go vet: %v\n", err)
		return 1
	}
	return 0
}

func printVersion(progname string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jxlint: %v\n", err)
		return 1
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jxlint: %v\n", err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintf(os.Stderr, "jxlint: %v\n", err)
		return 1
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, h.Sum(nil))
	return 0
}

// printFlags describes the tool's flags in the JSON form go vet's flag
// resolution expects.
func printFlags(suite []*jxanalysis.Analyzer) int {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var out []jsonFlag
	for _, a := range suite {
		out = append(out, jsonFlag{Name: a.Name, Bool: true, Usage: a.Doc})
	}
	data, err := json.MarshalIndent(out, "", "\t")
	if err != nil {
		fmt.Fprintf(os.Stderr, "jxlint: %v\n", err)
		return 1
	}
	os.Stdout.Write(append(data, '\n'))
	return 0
}
