package jsontype

import (
	"encoding/json"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzFromJSON exercises the type extractor against arbitrary bytes: it
// must never panic, and whenever it succeeds the result must be internally
// consistent (valid canon, stable re-extraction).
func FuzzFromJSON(f *testing.F) {
	seeds := []string{
		`null`, `true`, `3.5`, `"s"`, `[]`, `{}`,
		`{"ts":7,"event":"login","user":{"name":"bob","geo":[1.1,2.2]}}`,
		`[[[[1]]]]`, `{"a":{"b":{"c":{"d":null}}}}`,
		`{"a":1,"a":"x"}`, `[1,"two",true,null,{},[]]`,
		`{"esc":"esc","k:ey":1,"k,ey":2}`,
		`{`, `}`, `[1,`, `"unterminated`, `nul`, `1e999`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ty, err := FromJSON(data)
		if err != nil {
			return
		}
		if ty == nil {
			t.Fatal("nil type without error")
		}
		// Canon must be non-empty and stable.
		if ty.Canon() == "" {
			t.Fatal("empty canon")
		}
		// Re-parsing the same bytes must give a structurally equal type.
		ty2, err2 := FromJSON(data)
		if err2 != nil || !Equal(ty, ty2) {
			t.Fatalf("re-extraction diverged: %v vs %v (%v)", ty, ty2, err2)
		}
		// String rendering must terminate and be non-empty.
		if ty.String() == "" {
			t.Fatal("empty String()")
		}
	})
}

// FuzzScan is the differential test for the byte scanner: on every input
// encoding/json accepts, the scanner must also accept and derive exactly
// the type FromValue derives from the decoded value (same interned
// pointer), on a first scan and on a second one, which may read its
// objects from the scanner's shape cache. On inputs the oracle rejects the
// scanner may still accept — it is deliberately lenient inside numbers —
// but must not panic.
//
// Inputs with invalid UTF-8 are exempt from the comparison: encoding/json
// rewrites invalid bytes in strings to U+FFFD, while the scanner treats
// object keys as raw bytes; discovery never depends on that distinction.
func FuzzScan(f *testing.F) {
	seeds := []string{
		`null`, `true`, `false`, `0`, `-1.5e3`, `"s"`, `[]`, `{}`,
		`{"ts":7,"event":"login","user":{"name":"bob","geo":[1.1,2.2]}}`,
		`{"a":1,"a":"x","a":null}`,
		`{"escA":"v","plain":[true,null]}`,
		`[{"k":1},{"k":2,"j":[]}]`,
		` { "padded" : [ 1 , 2 ] } `,
		`{"":0}`, `[[[[1]]]]`,
		`01`, `1e999`, `{"a":`, `"unterminated`,
		// Word boundaries of the 8-byte string search (see scan_test.go).
		`"abcdefg\"ijklmnop"`, `{"abcdefg\\":"abcdefgh"}`,
		`{"abcdefgh\u00e9":1,"abcdefghé":2}`, `{"a\u0062":"x","ab":1}`,
		`["abcdefgé","abcdefghijklmno€"]`, `{"abcdefghijklmnop":{"abcdefghijklmnopq":[]}}`,
		`"abcdefgh`, `{"abcdefg\`, `"abcdefghijklmno\"`, `{"abcdefghijklmnop`,
		// The nesting bound: encoding/json's last accepted depth and its
		// first rejected one.
		strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		// One field multiset in two source orders shares a shape-cache
		// slot; with a duplicate key the order also picks the type.
		`{"b":1,"a":2}`, `{"a":2,"b":1}`,
		`{"a":1,"a":"x"}`, `{"a":"x","a":1}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !utf8.Valid(data) {
			if _, err := FromJSON(data); err == nil {
				return // lenient acceptance is fine; no oracle to compare
			}
			return
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			// Oracle rejects: the scanner may be more lenient (numbers) but
			// must stay total.
			_, _ = FromJSON(data)
			return
		}
		got, err := FromJSON(data)
		if err != nil {
			t.Fatalf("oracle accepts %q, scanner rejects: %v", data, err)
		}
		want, err := FromValue(v)
		if err != nil {
			t.Fatalf("FromValue on oracle output of %q: %v", data, err)
		}
		if got != want {
			t.Fatalf("scanner/oracle type mismatch for %q: %v vs %v", data, got, want)
		}
		if again, err := FromJSON(data); err != nil || again != want {
			t.Fatalf("second scan of %q: %v (%v), want %v", data, again, err, want)
		}
	})
}
