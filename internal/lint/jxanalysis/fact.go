package jxanalysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// A Fact is a typed message an analyzer attaches to a types.Object
// during one pass and reads back — possibly in a different
// compilation unit — during a later pass. Facts are how interprocedural
// results cross package boundaries under the go vet protocol: the driver
// serializes every fact of a unit (gob) into the unit's .vetx output next
// to the gc export data, and dependent units decode it before their
// analyzers run. Mirrors golang.org/x/tools/go/analysis.Fact.
//
// A fact type must be a pointer, must be gob-encodable, and must be
// declared in Analyzer.FactTypes so drivers can register it. Object facts
// can be serialized only for package-level objects and for methods of
// package-level named types; facts on other objects still work within the
// in-memory store of a single driver run but do not cross units.
type Fact interface {
	// AFact is a marker method; it has no behavior.
	AFact()
}

// Facts is a fact store shared by every analyzer of one driver run. The
// vet driver seeds it from the .vetx files of the unit's dependencies; the
// fixture driver (checktest) shares one store across the fixture's
// packages, analyzed in dependency order.
type Facts struct {
	objects map[types.Object]map[reflect.Type]Fact
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts {
	return &Facts{objects: map[types.Object]map[reflect.Type]Fact{}}
}

// An ObjectFact is one (object, fact) pair from the store.
type ObjectFact struct {
	Object types.Object
	Fact   Fact
}

func (f *Facts) setObject(obj types.Object, fact Fact) {
	m := f.objects[obj]
	if m == nil {
		m = map[reflect.Type]Fact{}
		f.objects[obj] = m
	}
	m[reflect.TypeOf(fact)] = fact
}

// getObject copies the stored fact of fact's type into fact and reports
// whether one was present.
func (f *Facts) getObject(obj types.Object, fact Fact) bool {
	stored, ok := f.objects[obj][reflect.TypeOf(fact)]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// ObjectFacts returns every object fact in the store in a deterministic
// order (package path, object key, fact type name).
func (f *Facts) ObjectFacts() []ObjectFact {
	var out []ObjectFact
	for obj, m := range f.objects {
		for _, fact := range m {
			out = append(out, ObjectFact{Object: obj, Fact: fact})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := pkgPathOf(out[i].Object), pkgPathOf(out[j].Object)
		if pi != pj {
			return pi < pj
		}
		ki, _ := objectKey(out[i].Object)
		kj, _ := objectKey(out[j].Object)
		if ki != kj {
			return ki < kj
		}
		return factName(out[i].Fact) < factName(out[j].Fact)
	})
	return out
}

func pkgPathOf(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// FactName returns the bare type name of a fact ("AllocFree" for
// *hotpathcall.AllocFree) — the name // want-fact expectations use.
func FactName(fact Fact) string { return factName(fact) }

func factName(fact Fact) string {
	t := reflect.TypeOf(fact)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// RegisterFactTypes registers every fact type declared by the analyzers
// with gob, and validates that each is a pointer. Drivers that serialize
// facts must call it before Encode/Decode.
func RegisterFactTypes(analyzers []*Analyzer) error {
	for _, a := range analyzers {
		for _, fact := range a.FactTypes {
			if reflect.TypeOf(fact).Kind() != reflect.Pointer {
				return fmt.Errorf("analyzer %s: fact type %T is not a pointer", a.Name, fact)
			}
			gob.Register(fact)
		}
	}
	return nil
}

// objectKey returns the serializable within-package name of obj: the bare
// name for package-level objects, "Recv.Name" for methods of package-level
// named types. The second result is false for objects that cannot cross
// units (locals, closures, methods of unnamed types).
func objectKey(obj types.Object) (string, bool) {
	pkg := obj.Pkg()
	if pkg == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := types.Unalias(t).(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := types.Unalias(t).(*types.Named)
			if !ok {
				return "", false
			}
			return named.Obj().Name() + "." + fn.Name(), true
		}
	}
	if obj.Parent() != pkg.Scope() {
		return "", false
	}
	return obj.Name(), true
}

// lookupObject resolves a key produced by objectKey inside pkg.
func lookupObject(pkg *types.Package, key string) types.Object {
	if recv, method, ok := strings.Cut(key, "."); ok {
		tn, okT := pkg.Scope().Lookup(recv).(*types.TypeName)
		if !okT {
			return nil
		}
		named, okN := types.Unalias(tn.Type()).(*types.Named)
		if !okN {
			return nil
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == method {
				return m
			}
		}
		return nil
	}
	return pkg.Scope().Lookup(key)
}

// gobFact is the serialized form of one object fact. The concrete fact
// type must be gob-registered on both ends (RegisterFactTypes).
type gobFact struct {
	PkgPath string
	Object  string
	Fact    Fact
}

// Encode serializes every serializable fact in the store — the unit's own
// exports and the facts imported from its dependencies, so propagation is
// transitive without re-reading upstream units.
func (f *Facts) Encode() ([]byte, error) {
	var gfs []gobFact
	for _, of := range f.ObjectFacts() {
		key, ok := objectKey(of.Object)
		if !ok {
			continue
		}
		gfs = append(gfs, gobFact{PkgPath: pkgPathOf(of.Object), Object: key, Fact: of.Fact})
	}
	if len(gfs) == 0 {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(gfs); err != nil {
		return nil, fmt.Errorf("encoding facts: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode merges serialized facts into the store. find maps a package path
// to its type-checked *types.Package; facts whose package or object cannot
// be resolved are skipped (the current unit cannot reference them anyway).
func (f *Facts) Decode(data []byte, find func(path string) *types.Package) error {
	if len(data) == 0 {
		return nil
	}
	var gfs []gobFact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&gfs); err != nil {
		return fmt.Errorf("decoding facts: %w", err)
	}
	for _, gf := range gfs {
		pkg := find(gf.PkgPath)
		if pkg == nil {
			continue
		}
		if obj := lookupObject(pkg, gf.Object); obj != nil {
			f.setObject(obj, gf.Fact)
		}
	}
	return nil
}
