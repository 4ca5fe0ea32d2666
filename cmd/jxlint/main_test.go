package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles jxlint into a temp dir and returns the binary path.
func buildTool(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "jxlint")
	cmd := exec.Command("go", "build", "-o", exe, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building jxlint: %v\n%s", err, out)
	}
	return exe
}

// writeModule materializes a throwaway module for go vet to analyze.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func vet(t *testing.T, tool, dir string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+tool, "./...")
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	return buf.String(), err
}

const modfile = "module scratch\n\ngo 1.22\n"

func TestVettoolFlagsViolation(t *testing.T) {
	tool := buildTool(t)
	dir := writeModule(t, map[string]string{
		"go.mod": modfile,
		"hot.go": `package scratch

import "fmt"

//jx:hotpath
func Describe(v int) string {
	return fmt.Sprintf("%d", v)
}
`,
	})
	out, err := vet(t, tool, dir)
	if err == nil {
		t.Fatalf("go vet -vettool=jxlint succeeded on a violating package; output:\n%s", out)
	}
	if !strings.Contains(out, "hotpathalloc") || !strings.Contains(out, "references fmt") {
		t.Fatalf("diagnostic missing from output:\n%s", out)
	}
}

func TestVettoolPassesCleanPackage(t *testing.T) {
	tool := buildTool(t)
	dir := writeModule(t, map[string]string{
		"go.mod": modfile,
		"ok.go": `package scratch

import "fmt"

// Describe is cold; untagged functions may allocate freely.
func Describe(v int) string {
	return fmt.Sprintf("%d", v)
}
`,
	})
	out, err := vet(t, tool, dir)
	if err != nil {
		t.Fatalf("go vet -vettool=jxlint failed on a clean package: %v\n%s", err, out)
	}
}

func TestVettoolHonorsIgnoreDirective(t *testing.T) {
	tool := buildTool(t)
	dir := writeModule(t, map[string]string{
		"go.mod": modfile,
		"hot.go": `package scratch

//jx:hotpath
func Key(b []byte) string {
	//jx:lint-ignore hotpathalloc startup-only, measured off the hot loop
	return string(b)
}
`,
	})
	out, err := vet(t, tool, dir)
	if err != nil {
		t.Fatalf("go vet -vettool=jxlint rejected a suppressed diagnostic: %v\n%s", err, out)
	}
}

func TestVettoolAnalyzerOptOut(t *testing.T) {
	tool := buildTool(t)
	dir := writeModule(t, map[string]string{
		"go.mod": modfile,
		"hot.go": `package scratch

import "fmt"

//jx:hotpath
func Describe(v int) string {
	return fmt.Sprintf("%d", v)
}
`,
	})
	// hotpathcall flags the same fixture (fmt.Sprintf is not a qualified
	// callee), so both checks are opted out to isolate the flag plumbing.
	cmd := exec.Command("go", "vet", "-vettool="+tool, "-hotpathalloc=false", "-hotpathcall=false", "./...")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("-hotpathalloc=false should disable the analyzer: %v\n%s", err, out)
	}
}

// TestVettoolCrossPackageFacts drives the full vet protocol over a
// two-package module: the AllocFree fact exported by package a's unit must
// reach package b's unit through the .vetx plumbing, qualifying a.Fast
// while still flagging the untagged a.Alloc.
func TestVettoolCrossPackageFacts(t *testing.T) {
	tool := buildTool(t)
	dir := writeModule(t, map[string]string{
		"go.mod": modfile,
		"a/a.go": `package a

// Fast is verified allocation-free.
//
//jx:hotpath
func Fast(x int) int { return x + 1 }

// Alloc is untagged.
func Alloc(n int) []int { return make([]int, n) }
`,
		"b/b.go": `package b

import "scratch/a"

// Use relies on a.Fast's AllocFree fact crossing the unit boundary.
//
//jx:hotpath
func Use(x int) int { return a.Fast(x) }

// Bad calls an untagged dependency function.
//
//jx:hotpath
func Bad(n int) []int { return a.Alloc(n) }
`,
	})
	out, err := vet(t, tool, dir)
	if err == nil {
		t.Fatalf("go vet -vettool=jxlint missed the cross-package violation; output:\n%s", out)
	}
	if !strings.Contains(out, "hotpathcall") || !strings.Contains(out, "scratch/a.Alloc") {
		t.Fatalf("expected a hotpathcall diagnostic naming scratch/a.Alloc:\n%s", out)
	}
	if strings.Contains(out, "scratch/a.Fast") {
		t.Fatalf("a.Fast was flagged despite its AllocFree fact:\n%s", out)
	}
}

func captureStdout(t *testing.T, f func() int) (string, int) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := f()
	w.Close()
	os.Stdout = old
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), code
}

// TestVersionHandshake pins the -V=full output cmd/go parses to compute
// the tool's build ID; a format drift silently breaks vet caching.
func TestVersionHandshake(t *testing.T) {
	out, code := captureStdout(t, func() int { return run([]string{"-V=full"}) })
	if code != 0 {
		t.Fatalf("-V=full exited %d\n%s", code, out)
	}
	if !strings.Contains(out, " version devel ") || !strings.Contains(out, "buildID=") {
		t.Fatalf("-V=full output does not match cmd/go's expected shape: %q", out)
	}
}

// TestFlagsHandshake pins the -flags JSON go vet uses to resolve
// -<analyzer>=false on the command line.
func TestFlagsHandshake(t *testing.T) {
	out, code := captureStdout(t, func() int { return run([]string{"-flags"}) })
	if code != 0 {
		t.Fatalf("-flags exited %d\n%s", code, out)
	}
	var flags []struct {
		Name string
		Bool bool
	}
	if err := json.Unmarshal([]byte(out), &flags); err != nil {
		t.Fatalf("-flags output is not valid JSON: %v\n%s", err, out)
	}
	byName := map[string]bool{}
	for _, f := range flags {
		if !f.Bool {
			t.Errorf("flag %s is not boolean; go vet only forwards bool analyzer flags", f.Name)
		}
		byName[f.Name] = true
	}
	if len(flags) != 7 {
		t.Errorf("-flags lists %d analyzers, want 7", len(flags))
	}
	for _, want := range []string{"interncheck", "hotpathalloc", "hotpathcall", "detorder", "mergepure", "decodebound", "ignoreaudit"} {
		if !byName[want] {
			t.Errorf("-flags output is missing analyzer %s", want)
		}
	}
}
