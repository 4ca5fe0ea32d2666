package jsontype

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// nestedDocs returns depth nested arrays and depth nested objects, each
// with the byte offset of the bracket that opens level depth.
func nestedDocs(depth int) (docs []string, last []int) {
	arrays := strings.Repeat("[", depth) + strings.Repeat("]", depth)
	objects := strings.Repeat(`{"a":`, depth) + "1" + strings.Repeat("}", depth)
	return []string{arrays, objects}, []int{depth - 1, 5 * (depth - 1)}
}

// TestScanNestingBound pins the scanner's depth limit to encoding/json's:
// 10,000 levels scan, and 10,001 or 10⁶ levels are an error naming the
// offset of the first bracket past the limit, not a fatal stack overflow.
func TestScanNestingBound(t *testing.T) {
	ok, _ := nestedDocs(MaxDepth)
	for _, doc := range ok {
		if _, err := FromJSON([]byte(doc)); err != nil {
			t.Fatalf("FromJSON at depth %d: %v", MaxDepth, err)
		}
		var v any
		if err := json.Unmarshal([]byte(doc), &v); err != nil {
			t.Fatalf("encoding/json rejects depth %d: %v", MaxDepth, err)
		}
	}
	_, offsets := nestedDocs(MaxDepth + 1)
	for _, depth := range []int{MaxDepth + 1, 1000000} {
		docs, _ := nestedDocs(depth)
		for i, doc := range docs {
			want := "jsontype: nesting exceeds 10000 levels at offset " + strconv.Itoa(offsets[i])
			if _, err := FromJSON([]byte(doc)); err == nil || err.Error() != want {
				t.Errorf("FromJSON at depth %d: err = %v, want %q", depth, err, want)
			}
			var v any
			if json.Unmarshal([]byte(doc), &v) == nil {
				t.Errorf("encoding/json accepts depth %d", depth)
			}
		}
	}
}

// wordBoundaryBodies returns string contents of 0 to 17 letters that put
// the scanner's 8-byte string search on its edges: each of the escapes
// \", \\ and \u00e9 at every offset, and multi-byte UTF-8 (bytes ≥ 0x80)
// right before the closing quote.
func wordBoundaryBodies() []string {
	const letters = "abcdefghijklmnopq"
	var bodies []string
	for n := 0; n <= len(letters); n++ {
		plain := letters[:n]
		bodies = append(bodies, plain, plain+"é", plain+"€")
		for _, esc := range []string{`\"`, `\\`, `\u00e9`} {
			for o := 0; o <= n; o++ {
				bodies = append(bodies, plain[:o]+esc+plain[o:])
			}
		}
	}
	return bodies
}

// TestScanWordBoundaries drives every body through the scanner as a key
// and as a string value, including a string that ends on the buffer's
// last byte so the final 8-byte load reaches past the data. Accepted
// documents must intern to the same pointer as FromValue of the
// encoding/json decoding; documents whose last string is unterminated
// must be rejected. One of them fails inside a nested object, with fields
// on the scanner's stack, so the scans after it check that the pooled
// scanner starts clean.
func TestScanWordBoundaries(t *testing.T) {
	for _, body := range wordBoundaryBodies() {
		str := `"` + body + `"`
		for _, doc := range []string{
			str,
			`{` + str + `:` + str + `}`,
			`[{` + str + `:1,"z":[` + str + `]},` + str + `]`,
			`{"k":0,` + str + `:null,` + str + `:true}`,
		} {
			var v any
			if err := json.Unmarshal([]byte(doc), &v); err != nil {
				t.Fatalf("test document %q is not JSON: %v", doc, err)
			}
			want := MustFromValue(v)
			// Twice: the second scan reads each key from the key table.
			for pass := 0; pass < 2; pass++ {
				got, err := FromJSON([]byte(doc))
				if err != nil {
					t.Fatalf("scanner rejects %q: %v", doc, err)
				}
				if got != want {
					t.Fatalf("%q: scanner %v, encoding/json %v", doc, got, want)
				}
			}
		}
		for _, doc := range []string{
			`"` + body,
			`{"` + body,
			`{"k":"` + body,
			`{"k":0,"o":{"k":0,"v":"` + body,
			`"` + body + `\`,
			`{"` + body + `\`,
		} {
			if _, err := FromJSON([]byte(doc)); err == nil {
				t.Errorf("unterminated %q accepted", doc)
			}
		}
	}
}

// TestShapeCacheMatchesFromValue cycles 1,000 distinct object shapes
// through FromJSON three times, each time in another key order, a third
// of them with a duplicate key, so the order also decides which value the
// key keeps. That is four objects per slot of the shape cache, so slots
// are shared and evicted throughout. Each shape is scanned twice in its
// order, then twice in the reverse order, which has the same hash and so
// meets the first order in its slot. Every scan must intern to the pointer
// FromValue gives for encoding/json's decoding.
func TestShapeCacheMatchesFromValue(t *testing.T) {
	values := []string{`1`, `"s"`, `[true,null]`, `{"c":[1],"d":null}`}
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 1000; i++ {
			fields := []string{
				fmt.Sprintf(`"s%d":%s`, i, values[i%4]),
				`"a":1`,
				`"b":` + values[(i/4)%4],
			}
			if i%3 == 0 {
				fields = append(fields, `"a":`+values[(i/12)%4])
			}
			for r := 0; r < i+cycle; r++ { // rotate the key order
				fields = append(fields[1:], fields[0])
			}
			for order := 0; order < 2; order++ {
				if order == 1 {
					for l, r := 0, len(fields)-1; l < r; l, r = l+1, r-1 {
						fields[l], fields[r] = fields[r], fields[l]
					}
				}
				doc := "{" + strings.Join(fields, ",") + "}"
				var v any
				if err := json.Unmarshal([]byte(doc), &v); err != nil {
					t.Fatalf("test document %q is not JSON: %v", doc, err)
				}
				want := MustFromValue(v)
				for pass := 0; pass < 2; pass++ {
					got, err := FromJSON([]byte(doc))
					if err != nil {
						t.Fatalf("scanner rejects %q: %v", doc, err)
					}
					if got != want {
						t.Fatalf("cycle %d, pass %d: %q scans to %v, want %v", cycle, pass, doc, got, want)
					}
				}
			}
		}
	}
}

// TestKeyTableCapped checks the scanner's key table bound. A scanner that
// reads keyTableMax+k distinct keys holds at most keyTableMax of them and
// never grows past 2*keyTableMax slots, and every object it scans still
// interns to the type NewObject builds. A 2,562-key vocabulary, the size of
// wide-256's, scanned twice fits without a clear: the second pass finds
// every key in the table.
func TestKeyTableCapped(t *testing.T) {
	// scan reads objects of up to 8 keys each, named by keys, plus one
	// escaped key, and compares each with the object NewObject builds.
	scan := func(s *typeScanner, keys []string) {
		t.Helper()
		for i := 0; i < len(keys); i += 8 {
			var doc strings.Builder
			var want []Field
			doc.WriteString(`{"e\u0073c":1`)
			want = append(want, Field{Key: "esc", Type: Number})
			for _, k := range keys[i:min(i+8, len(keys))] {
				fmt.Fprintf(&doc, ",%q:true", k)
				want = append(want, Field{Key: k, Type: Bool})
			}
			doc.WriteString("}")
			s.reset([]byte(doc.String()))
			got, err := s.value(0)
			if err != nil {
				t.Fatal(err)
			}
			if got != NewObject(want) {
				t.Fatalf("%s scanned as %s", doc.String(), got.Canon())
			}
			if s.keys.n > keyTableMax || len(s.keys.slots) > 2*keyTableMax {
				t.Fatalf("key table holds %d entries in %d slots, over its cap of %d",
					s.keys.n, len(s.keys.slots), keyTableMax)
			}
		}
	}
	keys := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = prefix + strconv.Itoa(i)
		}
		return out
	}

	novel := keys("sess_", keyTableMax+1000)
	s := new(typeScanner)
	scan(s, novel)
	if s.keys.n >= keyTableMax {
		t.Errorf("key table holds %d entries after %d distinct keys; it never cleared", s.keys.n, len(novel)+1)
	}
	scan(s, novel) // the cleared keys are read back in

	vocabulary := keys("field_", 2562)
	s = new(typeScanner)
	scan(s, vocabulary)
	if want := len(vocabulary) + 1; s.keys.n != want {
		t.Fatalf("key table holds %d entries after one pass, want %d", s.keys.n, want)
	}
	slots := &s.keys.slots[0]
	scan(s, vocabulary)
	if want := len(vocabulary) + 1; s.keys.n != want || &s.keys.slots[0] != slots {
		t.Errorf("second pass over %d keys changed the table: %d entries, want %d", want, s.keys.n, want)
	}
}
