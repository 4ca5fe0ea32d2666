package analyzers

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readDirectives is every //jx:<word> directive some part of the suite
// reads: hotpath (hotpathalloc, hotpathcall), coldpath (hotpathcall),
// monoid and immutable (mergepure), and lint-ignore (the framework's
// suppression filter, audited by ignoreaudit).
var readDirectives = map[string]bool{
	"hotpath":     true,
	"coldpath":    true,
	"monoid":      true,
	"immutable":   true,
	"lint-ignore": true,
}

// TestNoOrphanDirectives walks every .go file of the module outside
// testdata and checks that each //jx: directive is one the suite reads and
// that each //jx:lint-ignore names a registered analyzer. The lint run
// itself cannot catch either: unknown directives are plain comments, and
// the framework skips ignore directives for analyzers that are not in the
// run, so a directive left behind by a deleted analyzer would pass
// silently.
func TestNoOrphanDirectives(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	registered := map[string]bool{}
	for _, a := range All() {
		registered[a.Name] = true
	}

	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//jx:")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) == 0 || !readDirectives[fields[0]] {
					t.Errorf("%s: %q is not a directive any jxlint analyzer reads", pos, c.Text)
					continue
				}
				if fields[0] == "lint-ignore" && (len(fields) < 2 || !registered[fields[1]]) {
					t.Errorf("%s: %q does not name a registered analyzer", pos, c.Text)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
