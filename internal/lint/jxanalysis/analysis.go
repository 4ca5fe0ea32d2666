// Package jxanalysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework: an Analyzer is a named check
// that runs over one type-checked package (a Pass) and reports
// position-tagged Diagnostics. The module deliberately has no external
// dependencies, so the handful of framework concepts jxlint needs —
// analyzers, passes, diagnostics, an ancestor-stack AST walker, and the
// //jx:lint-ignore suppression directive — are implemented here on top of
// go/ast and go/types alone.
//
// The analyzers themselves live under internal/lint/analyzers; the drivers
// (the go vet -vettool protocol and the analysistest-style fixture runner)
// live in internal/lint/unitchecker and internal/lint/checktest.
package jxanalysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check. Name identifies it in diagnostics and in
// //jx:lint-ignore directives; Doc says what invariant it enforces.
// FactTypes declares the Fact types the analyzer exports or imports; an
// analyzer with facts also runs over dependency units (facts-only, no
// diagnostics) so its results reach dependents.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass) error
	FactTypes []Fact
}

// A Pass is one analyzer's view of one type-checked compilation unit.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
	facts *Facts
}

// ExportObjectFact attaches fact to obj, which must belong to the package
// under analysis. The driver serializes it with the unit so dependent
// units can import it.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("%s: ExportObjectFact on object %v outside package %v", p.Analyzer.Name, obj, p.Pkg))
	}
	p.facts.setObject(obj, fact)
}

// ImportObjectFact copies the fact of fact's type attached to obj — by
// this unit or by a dependency unit — into fact, reporting whether one
// exists.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.facts.getObject(obj, fact)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported violation. SuggestedFix, when non-nil, is
// a mechanical rewrite that resolves it (see fix.go); drivers surface it
// through -fix, the findings protocol, and SARIF fixes objects.
type Diagnostic struct {
	Pos          token.Pos
	Analyzer     string
	Message      string
	SuggestedFix *SuggestedFix
}

// Package bundles a parsed, type-checked compilation unit — the input the
// drivers hand to Run.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// IgnoreAuditName is the name of the ignoreaudit analyzer. Its check is
// implemented here rather than in its Run function because only the
// framework knows, after Filter, which //jx:lint-ignore directives
// suppressed a diagnostic and which went stale.
const IgnoreAuditName = "ignoreaudit"

// Run executes the analyzers over pkg with a fresh fact store. See
// RunFacts.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunFacts(pkg, analyzers, NewFacts())
}

// RunFacts executes the analyzers over pkg against the shared fact store,
// applies the //jx:lint-ignore directives, audits them when the
// ignoreaudit analyzer is active, and returns the surviving diagnostics in
// a deterministic order (position, then analyzer, then message).
func RunFacts(pkg *Package, analyzers []*Analyzer, facts *Facts) ([]Diagnostic, error) {
	var diags []Diagnostic
	active := map[string]bool{}
	for _, a := range analyzers {
		active[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &diags,
			facts:     facts,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	diags, directives := filterTrack(pkg.Fset, pkg.Files, diags)
	if active[IgnoreAuditName] {
		byFile := map[string]*ast.File{}
		for _, f := range pkg.Files {
			if tf := pkg.Fset.File(f.Pos()); tf != nil {
				byFile[tf.Name()] = f
			}
		}
		for _, dir := range directives {
			// Directives in test files are exempt: several analyzers skip
			// _test.go, so suppressions there cannot be validated. A
			// directive naming an analyzer not in this run is skipped too —
			// it may be validated by a run with that analyzer enabled.
			if strings.HasSuffix(dir.file, "_test.go") || !active[dir.analyzer] || dir.used {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:          dir.pos,
				Analyzer:     IgnoreAuditName,
				Message:      fmt.Sprintf("ignore directive for %s suppresses no diagnostic; delete %q or fix the reason", dir.analyzer, dir.normalized()),
				SuggestedFix: deleteDirectiveFix(pkg.Fset, byFile[dir.file], dir),
			})
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}
