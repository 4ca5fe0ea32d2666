package main

import (
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"jxplain/internal/lint/analyzers"
	"jxplain/internal/lint/unitchecker"
)

// TestSarifDocumentShape pins the structural invariants GitHub code
// scanning relies on: the 2.1.0 schema/version pair, one rule per active
// analyzer plus the framework pseudo-rule, every result's ruleId
// resolving through ruleIndex, and regions with startLine >= 1 even for
// positionless findings.
func TestSarifDocumentShape(t *testing.T) {
	suite := analyzers.All()
	findings := []unitchecker.Finding{
		{Position: token.Position{Filename: "a.go", Line: 3, Column: 7}, Analyzer: "detorder", Message: "m1"},
		{Position: token.Position{Filename: "b.go"}, Analyzer: "someplugin", Message: "m2"},
	}
	doc := sarifDocument(suite, findings)

	if doc.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", doc.Version)
	}
	if doc.Schema == "" {
		t.Error("$schema is empty")
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "jxlint" {
		t.Errorf("driver name = %q, want jxlint", run.Tool.Driver.Name)
	}

	// One rule per analyzer, the framework pseudo-rule, and the unknown
	// analyzer carried by a finding.
	byID := map[string]int{}
	for i, r := range run.Tool.Driver.Rules {
		if _, dup := byID[r.ID]; dup {
			t.Errorf("duplicate rule id %q", r.ID)
		}
		byID[r.ID] = i
	}
	for _, a := range suite {
		if _, ok := byID[a.Name]; !ok {
			t.Errorf("no rule for analyzer %s", a.Name)
		}
	}
	for _, id := range []string{"jxlint", "someplugin"} {
		if _, ok := byID[id]; !ok {
			t.Errorf("no rule for %s", id)
		}
	}

	if len(run.Results) != len(findings) {
		t.Fatalf("results = %d, want %d", len(run.Results), len(findings))
	}
	for i, r := range run.Results {
		if got := byID[r.RuleID]; got != r.RuleIndex {
			t.Errorf("result %d: ruleIndex %d does not match rules[%q] = %d", i, r.RuleIndex, r.RuleID, got)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result %d: locations = %d, want 1", i, len(r.Locations))
		}
		region := r.Locations[0].PhysicalLocation.Region
		if region.StartLine < 1 {
			t.Errorf("result %d: startLine %d < 1", i, region.StartLine)
		}
	}

	// The document must serialize with the exact field spellings the
	// schema wants; spot-check the casing through a JSON round trip.
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"$schema", "version", "runs"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("serialized log is missing %q", key)
		}
	}
}

// TestDedupeSort pins the merge order (file, line, column, analyzer,
// message) and that identical findings from test-variant re-analysis
// collapse to one.
func TestDedupeSort(t *testing.T) {
	f := func(file string, line int, analyzer, msg string) unitchecker.Finding {
		return unitchecker.Finding{
			Position: token.Position{Filename: file, Line: line},
			Analyzer: analyzer,
			Message:  msg,
		}
	}
	in := []unitchecker.Finding{
		f("b.go", 1, "x", "m"),
		f("a.go", 9, "x", "m"),
		f("a.go", 2, "x", "m"),
		f("a.go", 2, "x", "m"), // duplicate of the one above
		f("a.go", 2, "a", "m"),
	}
	out := dedupeSort(in)
	if len(out) != 4 {
		t.Fatalf("dedupeSort kept %d findings, want 4", len(out))
	}
	wantOrder := []unitchecker.Finding{
		f("a.go", 2, "a", "m"),
		f("a.go", 2, "x", "m"),
		f("a.go", 9, "x", "m"),
		f("b.go", 1, "x", "m"),
	}
	for i, w := range wantOrder {
		if out[i] != w {
			t.Errorf("out[%d] = %+v, want %+v", i, out[i], w)
		}
	}
}

// TestSarifURI checks the %SRCROOT%-relative rendering: paths under the
// working directory become relative with forward slashes; paths outside
// it stay as they are.
func TestSarifURI(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if got := sarifURI(filepath.Join(cwd, "pkg", "file.go")); got != "pkg/file.go" {
		t.Errorf("sarifURI(cwd-relative) = %q, want pkg/file.go", got)
	}
	if got := sarifURI("already/relative.go"); got != "already/relative.go" {
		t.Errorf("sarifURI(relative) = %q, want unchanged", got)
	}
	outside := filepath.Join(filepath.Dir(cwd), "elsewhere", "x.go")
	if got := sarifURI(outside); got != filepath.ToSlash(outside) {
		t.Errorf("sarifURI(outside cwd) = %q, want %q", got, filepath.ToSlash(outside))
	}
}
