package main

import (
	"strings"
	"testing"
)

func small(extra ...string) []string {
	return append([]string{"-scale", "0.05", "-trials", "1", "-datasets", "yelp-photos,yelp-tip"}, extra...)
}

func TestRunSingleTable(t *testing.T) {
	var out strings.Builder
	if err := run(small("-table", "1"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Recall") || !strings.Contains(out.String(), "yelp-photos") {
		t.Errorf("output = %q", out.String())
	}
}

func TestRunFigure(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scale", "0.05", "-trials", "1", "-figure", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Feature-vector memory") {
		t.Errorf("output = %q", out.String())
	}
}

func TestRunCSV(t *testing.T) {
	var out strings.Builder
	if err := run(small("-table", "4", "-csv"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "dataset,") {
		t.Errorf("CSV output = %q", out.String())
	}
}

func TestRunAblations(t *testing.T) {
	for _, name := range []string{"edits", "threshold", "staged", "iterative"} {
		var out strings.Builder
		if err := run(small("-table", name), &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Len() == 0 {
			t.Errorf("%s: empty output", name)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil, &strings.Builder{}); err == nil {
		t.Error("no selection should fail")
	}
	for _, name := range []string{"99", "window"} {
		if err := run([]string{"-table", name}, &strings.Builder{}); err == nil {
			t.Errorf("unknown table %q should fail", name)
		}
	}
	if err := run([]string{"-table", "1", "-datasets", "bogus"}, &strings.Builder{}); err == nil {
		t.Error("unknown dataset should fail")
	}
}
