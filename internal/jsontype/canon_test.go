package jsontype_test

import (
	"fmt"
	"testing"

	"jxplain/internal/dataset"
	"jxplain/internal/jsontype"
)

// requireCanonHash checks that the streamed hash of t equals FNV-1a over
// the rendered canonical form, first as t stands and then with its form
// cached, and reports whether t started without a cached form.
func requireCanonHash(tb testing.TB, t *jsontype.Type) (uncached bool) {
	tb.Helper()
	uncached = !jsontype.HasCachedCanon(t)
	for pass := 0; pass < 2; pass++ {
		if got, want := jsontype.CanonHash(t), jsontype.RenderedCanonHash(t); got != want {
			tb.Fatalf("%q (cached %t): streamed hash %#x, rendered %#x",
				t.Canon(), jsontype.HasCachedCanon(t), got, want)
		}
		t.Canon()
	}
	return uncached
}

// TestCanonHashMatchesAppendCanon pins the reservoir's streamed hash to
// the bytes appendCanon writes, on every generator's types and the churn
// shape, on keys that need escaping or hold multi-byte UTF-8, and on types
// with and without a cached canonical string — at the root or only in a
// subtree.
func TestCanonHashMatchesAppendCanon(t *testing.T) {
	uncached := 0
	check := func(typ *jsontype.Type) {
		t.Helper()
		if requireCanonHash(t, typ) {
			uncached++
		}
	}

	wide, ok := dataset.ByName("wide-64")
	if !ok {
		t.Fatal("no dataset wide-64")
	}
	// A seed no other test draws, so most types arrive uncached.
	for _, g := range append(dataset.Registry(), wide) {
		for _, typ := range dataset.Types(g.Generate(300, 29)) {
			check(typ)
		}
	}
	for i := 0; i < 100; i++ {
		check(mustType(t, fmt.Sprintf(
			`{"service":{"region":"eu-%d","build":%d,"flags":[true,false],"limits":{"cpu":1.5,"mem":4.0}},`+
				`"sess_canon_%08x":{"hits":%d,"geo":[%d.0,2.0],"tags":{"env":"prod"}}}`,
			i%3, i%7, i*2654435761, i, i%90)))
	}

	// Every byte appendCanonKey escapes, alone, inside a key and doubled,
	// beside multi-byte UTF-8; nested so escaped keys sit below the root.
	for _, c := range []string{`\`, `:`, `,`, `{`, `}`, `[`, `]`} {
		for _, key := range []string{c, "a" + c + "b", c + c, "é" + c + "日本", "\U0001F600" + c} {
			inner := jsontype.NewObject([]jsontype.Field{
				{Key: key, Type: jsontype.Number},
				{Key: "x" + key, Type: jsontype.NewArray([]*jsontype.Type{jsontype.String, jsontype.Null})},
			})
			check(inner)
			check(jsontype.NewObject([]jsontype.Field{
				{Key: key, Type: inner},
				{Key: "ü", Type: jsontype.NewArray([]*jsontype.Type{inner, jsontype.Bool})},
			}))
		}
	}

	// A parent whose subtree alone has a cached form.
	child := mustType(t, `{"cached_child_only":{"k[0]":true}}`)
	parent := jsontype.NewArray([]*jsontype.Type{child, jsontype.NewObject([]jsontype.Field{{Key: "p,q", Type: child}})})
	if jsontype.HasCachedCanon(parent) {
		t.Fatal("fresh parent already has a cached form")
	}
	child.Canon()
	check(parent)

	if uncached == 0 {
		t.Fatal("no type was hashed without a cached form")
	}
}

// FuzzCanonHash holds the streamed hash to FNV-1a over the rendered
// canonical form on types drawn from arbitrary bytes through FromJSON.
func FuzzCanonHash(f *testing.F) {
	for _, s := range []string{
		`null`, `[]`, `{}`, `[1,"two",true,null,{},[]]`,
		`{"a":{"b":[1,{"c":null}]}}`,
		`{"k:ey":1,"k,ey":[2],"{":{"}":[]},"[]":"s","\\":true}`,
		`{"é":{"日本":1,"😀":[{"x]":null}]}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, err := jsontype.FromJSON(data)
		if err != nil {
			return
		}
		requireCanonHash(t, typ)
	})
}

func mustType(tb testing.TB, src string) *jsontype.Type {
	tb.Helper()
	typ, err := jsontype.FromJSON([]byte(src))
	if err != nil {
		tb.Fatalf("FromJSON(%q): %v", src, err)
	}
	return typ
}
