package schema

import "sort"

// Fuse combines two schemas into one admitting (at least) every type
// either admits, without access to the underlying data — the schema-level
// fusion in the style of Baazizi et al. that the paper's grammar builds
// on. It is the tool for incremental maintenance: re-learn a schema over
// the records a drift monitor flagged, then fuse it into the stale
// baseline instead of re-running discovery over the full history.
//
// Fusion respects JXPLAIN's semantics: object tuples merge *only* when
// their key sets coincide (they describe the same entity; fields required
// on both sides stay required, everything else becomes optional) — tuples
// with different key sets remain separate union alternatives, preserving
// entity partitioning. Collections of like kind always fuse. Without data
// the entropy heuristics cannot re-run, so fusion never converts between
// tuples and collections; mixed interpretations coexist in the union.
//
// Fuse is commutative up to Simplify, but not idempotent: collections of
// one kind, and all array tuples, fuse, so Fuse(a, a) can widen a union
// of them — ([[𝕊]]* | [(𝕊)]*) fuses to [(𝕊 | [𝕊])]*. What holds is that
// Fuse(a, a) accepts everything a accepts, and that f = Fuse(a, a) is a
// fixpoint: Fuse(f, f) accepts exactly what f accepts.
func Fuse(a, b Schema) Schema {
	return Simplify(fuseUnion(collectAlts(a), collectAlts(b)))
}

// collectAlts flattens a schema into its top-level alternatives.
func collectAlts(s Schema) []Schema {
	if u, ok := s.(*Union); ok {
		var out []Schema
		for _, alt := range u.Alts {
			out = append(out, collectAlts(alt)...)
		}
		return out
	}
	return []Schema{s}
}

func fuseUnion(as, bs []Schema) Schema {
	var prims []Schema
	var arrColls []*ArrayCollection
	var objColls []*ObjectCollection
	var arrTuples []*ArrayTuple
	objTuples := map[string][]*ObjectTuple{} // keyed by sorted key set
	var objTupleOrder []string

	addAlt := func(s Schema) {
		switch n := s.(type) {
		case *Primitive:
			prims = append(prims, n)
		case *ArrayCollection:
			arrColls = append(arrColls, n)
		case *ObjectCollection:
			objColls = append(objColls, n)
		case *ArrayTuple:
			arrTuples = append(arrTuples, n)
		case *ObjectTuple:
			k := keySetKey(n)
			if _, seen := objTuples[k]; !seen {
				objTupleOrder = append(objTupleOrder, k)
			}
			objTuples[k] = append(objTuples[k], n)
		}
	}
	for _, s := range as {
		addAlt(s)
	}
	for _, s := range bs {
		addAlt(s)
	}

	var alts []Schema
	alts = append(alts, prims...)
	if len(arrColls) > 0 {
		alts = append(alts, fuseArrayColls(arrColls))
	}
	if len(arrTuples) > 0 {
		alts = append(alts, fuseArrayTuples(arrTuples))
	}
	if len(objColls) > 0 {
		alts = append(alts, fuseObjectColls(objColls))
	}
	for _, k := range objTupleOrder {
		alts = append(alts, fuseObjectTuples(objTuples[k]))
	}
	return NewUnion(alts...)
}

func keySetKey(o *ObjectTuple) string {
	keys := o.Keys()
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k + "\x00"
	}
	return out
}

func fuseArrayColls(cs []*ArrayCollection) Schema {
	maxLen := 0
	elems := make([]Schema, 0, len(cs))
	for _, c := range cs {
		if c.MaxLen > maxLen {
			maxLen = c.MaxLen
		}
		if !IsEmpty(c.Elem) {
			elems = append(elems, c.Elem)
		}
	}
	elem := Empty()
	if len(elems) == 1 {
		elem = elems[0]
	} else if len(elems) > 1 {
		elem = Fuse(elems[0], NewUnion(elems[1:]...))
	}
	return &ArrayCollection{Elem: elem, MaxLen: maxLen}
}

func fuseObjectColls(cs []*ObjectCollection) Schema {
	domain := 0
	values := make([]Schema, 0, len(cs))
	for _, c := range cs {
		if c.Domain > domain {
			domain = c.Domain
		}
		if !IsEmpty(c.Value) {
			values = append(values, c.Value)
		}
	}
	value := Empty()
	if len(values) == 1 {
		value = values[0]
	} else if len(values) > 1 {
		value = Fuse(values[0], NewUnion(values[1:]...))
	}
	return &ObjectCollection{Value: value, Domain: domain}
}

func fuseArrayTuples(ts []*ArrayTuple) Schema {
	minLen := -1
	maxLen := 0
	for _, t := range ts {
		if minLen < 0 || t.MinLen < minLen {
			minLen = t.MinLen
		}
		if len(t.Elems) > maxLen {
			maxLen = len(t.Elems)
		}
	}
	elems := make([]Schema, maxLen)
	for i := range elems {
		var pos []Schema
		for _, t := range ts {
			if i < len(t.Elems) {
				pos = append(pos, t.Elems[i])
			}
		}
		if len(pos) == 1 {
			elems[i] = pos[0]
		} else {
			elems[i] = Fuse(pos[0], NewUnion(pos[1:]...))
		}
	}
	if minLen < 0 {
		minLen = 0
	}
	return &ArrayTuple{Elems: elems, MinLen: minLen}
}

func fuseObjectTuples(ts []*ObjectTuple) Schema {
	// All inputs share one key set; a key stays required iff required in
	// every input, and each field's schema is the fusion of the inputs'.
	type fieldInfo struct {
		schemas  []Schema
		required bool
	}
	fields := map[string]*fieldInfo{}
	var order []string
	record := func(key string, s Schema, required bool) {
		fi := fields[key]
		if fi == nil {
			fi = &fieldInfo{required: true}
			fields[key] = fi
			order = append(order, key)
		}
		fi.schemas = append(fi.schemas, s)
		if !required {
			fi.required = false
		}
	}
	for _, t := range ts {
		for _, f := range t.Required {
			record(f.Key, f.Schema, true)
		}
		for _, f := range t.Optional {
			record(f.Key, f.Schema, false)
		}
	}
	var required, optional []FieldSchema
	for _, key := range order {
		fi := fields[key]
		var fused Schema
		if len(fi.schemas) == 1 {
			fused = fi.schemas[0]
		} else {
			fused = Fuse(fi.schemas[0], NewUnion(fi.schemas[1:]...))
		}
		f := FieldSchema{Key: key, Schema: fused}
		if fi.required {
			required = append(required, f)
		} else {
			optional = append(optional, f)
		}
	}
	return NewObjectTuple(required, optional)
}
