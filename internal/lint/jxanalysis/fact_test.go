package jxanalysis

import (
	"go/token"
	"go/types"
	"testing"
)

type testFact struct{ N int }

func (*testFact) AFact() {}

type otherFact struct{}

func (*otherFact) AFact() {}

type valueFact struct{}

func (valueFact) AFact() {}

// buildPkg constructs a synthetic package with a package-level function F
// and a method T.M — the two serializable object shapes.
func buildPkg() (*types.Package, *types.Func, *types.Func) {
	pkg := types.NewPackage("example.com/p", "p")
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	fn := types.NewFunc(token.NoPos, pkg, "F", sig)
	pkg.Scope().Insert(fn)
	tn := types.NewTypeName(token.NoPos, pkg, "T", nil)
	named := types.NewNamed(tn, types.NewStruct(nil, nil), nil)
	pkg.Scope().Insert(tn)
	recv := types.NewVar(token.NoPos, pkg, "r", named)
	msig := types.NewSignatureType(recv, nil, nil, nil, nil, false)
	m := types.NewFunc(token.NoPos, pkg, "M", msig)
	named.AddMethod(m)
	return pkg, fn, m
}

func TestFactRoundTrip(t *testing.T) {
	reg := []*Analyzer{{Name: "test", FactTypes: []Fact{new(testFact), new(otherFact)}}}
	if err := RegisterFactTypes(reg); err != nil {
		t.Fatal(err)
	}
	pkg, fn, m := buildPkg()
	src := NewFacts()
	src.setObject(fn, &testFact{N: 7})
	src.setObject(m, &testFact{N: 9})
	// A fact on a local cannot cross units and must be dropped by Encode.
	local := types.NewVar(token.NoPos, pkg, "local", types.Typ[types.Int])
	src.setObject(local, &testFact{N: 1})

	data, err := src.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("Encode returned no data for a non-empty store")
	}

	// Decode against a fresh reconstruction of the package, the way a
	// dependent unit sees it through export data: distinct objects, same
	// paths and names.
	pkg2, fn2, m2 := buildPkg()
	dst := NewFacts()
	find := func(path string) *types.Package {
		if path == pkg2.Path() {
			return pkg2
		}
		return nil
	}
	if err := dst.Decode(data, find); err != nil {
		t.Fatal(err)
	}
	var got testFact
	if !dst.getObject(fn2, &got) || got.N != 7 {
		t.Errorf("fact on F: got (%v, %+v), want N=7", dst.getObject(fn2, &got), got)
	}
	if !dst.getObject(m2, &got) || got.N != 9 {
		t.Errorf("fact on T.M: got (%v, %+v), want N=9", dst.getObject(m2, &got), got)
	}
	if n := len(dst.ObjectFacts()); n != 2 {
		t.Errorf("decoded %d object facts, want 2 (the local-variable fact must not serialize)", n)
	}
}

func TestFactGetCopies(t *testing.T) {
	pkg, fn, _ := buildPkg()
	_ = pkg
	f := NewFacts()
	f.setObject(fn, &testFact{N: 3})
	var a, b testFact
	f.getObject(fn, &a)
	a.N = 99
	f.getObject(fn, &b)
	if b.N != 3 {
		t.Errorf("stored fact mutated through an imported copy: N=%d, want 3", b.N)
	}
}

func TestEncodeEmpty(t *testing.T) {
	data, err := NewFacts().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if data != nil {
		t.Errorf("empty store encoded to %d bytes, want nil", len(data))
	}
	if err := NewFacts().Decode(nil, func(string) *types.Package { return nil }); err != nil {
		t.Errorf("decoding nil data: %v", err)
	}
}

func TestRegisterFactTypesRejectsNonPointer(t *testing.T) {
	err := RegisterFactTypes([]*Analyzer{{Name: "bad", FactTypes: []Fact{valueFact{}}}})
	if err == nil {
		t.Fatal("RegisterFactTypes accepted a non-pointer fact type")
	}
}

func TestFactName(t *testing.T) {
	if got := FactName(&testFact{}); got != "testFact" {
		t.Errorf("FactName = %q, want testFact", got)
	}
}
