package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"jxplain/internal/jsontype"
)

// ty parses one JSON document.
func ty(t *testing.T, doc string) *jsontype.Type {
	t.Helper()
	typ, err := jsontype.FromJSON([]byte(doc))
	if err != nil {
		t.Fatalf("FromJSON(%q): %v", doc, err)
	}
	return typ
}

func TestTypesJSONL(t *testing.T) {
	input := "{\"a\":1}\n\n  \n{\"a\":2,\"b\":\"x\"}\n[1,2]\n"
	types, err := Types(strings.NewReader(input), Options{JSONL: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(types) != 3 {
		t.Fatalf("got %d types", len(types))
	}
	if !jsontype.Equal(types[0], ty(t, `{"a":0}`)) ||
		!jsontype.Equal(types[1], ty(t, `{"a":0,"b":""}`)) ||
		!jsontype.Equal(types[2], ty(t, `[0,0]`)) {
		t.Errorf("types = %v", types)
	}
}

func TestTypesNamesLine(t *testing.T) {
	input := "{\"a\":1}\n{broken\n{\"a\":2}\n"
	_, err := Types(strings.NewReader(input), Options{JSONL: true})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line 2", err)
	}
}

func TestTypesSameInBothModes(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, `{"id":%d,"tags":["a","b"],"geo":[1.5,2.5]}`+"\n", i)
	}
	viaLines, err := Types(strings.NewReader(b.String()), Options{JSONL: true})
	if err != nil {
		t.Fatal(err)
	}
	viaValues, err := Types(strings.NewReader(b.String()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(viaLines) != len(viaValues) {
		t.Fatalf("lengths differ: %d vs %d", len(viaLines), len(viaValues))
	}
	for i := range viaLines {
		if !jsontype.Equal(viaLines[i], viaValues[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestTypesEmptyConcatenated(t *testing.T) {
	types, err := Types(strings.NewReader("  \n "), Options{})
	if err != nil || len(types) != 0 {
		t.Errorf("empty stream: %v, %v", types, err)
	}
}

func TestTypesEmptyJSONL(t *testing.T) {
	types, err := Types(strings.NewReader(""), Options{JSONL: true})
	if err != nil || len(types) != 0 {
		t.Errorf("empty input: %v %v", types, err)
	}
}

func TestTypesTrailingContentOnLine(t *testing.T) {
	// Two documents on one line violate JSONL.
	if _, err := Types(strings.NewReader(`{"a":1} {"b":2}`), Options{JSONL: true}); err == nil {
		t.Error("two documents per line should fail")
	}
}

func TestTypesConcatenated(t *testing.T) {
	input := "{\"a\":1}\n{\"a\":2,\"b\":\"x\"}\n[1,2]\n\"s\"\n"
	types, err := Types(strings.NewReader(input), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(types) != 4 {
		t.Fatalf("got %d types, want 4", len(types))
	}
	if !jsontype.Equal(types[0], ty(t, `{"a":0}`)) ||
		!jsontype.Equal(types[1], ty(t, `{"a":0,"b":""}`)) ||
		!jsontype.Equal(types[2], ty(t, `[0,0]`)) ||
		!jsontype.Equal(types[3], jsontype.String) {
		t.Errorf("Types mismatch: %v", types)
	}
}

// TestTypesNestingBound feeds concatenated records nested 10,000, 10,001
// and 10⁶ levels deep, in arrays and in objects. Two records of 10,000
// levels read as two types; a deeper second record fails naming it and
// the offset, in the record, of the first bracket past the limit.
func TestTypesNestingBound(t *testing.T) {
	nested := func(depth int) (docs []string, last []int) {
		arrays := strings.Repeat("[", depth) + strings.Repeat("]", depth)
		objects := strings.Repeat(`{"a":`, depth) + "1" + strings.Repeat("}", depth)
		return []string{arrays, objects}, []int{depth - 1, 5 * (depth - 1)}
	}
	ok, _ := nested(jsontype.MaxDepth)
	for _, doc := range ok {
		if types, err := Types(strings.NewReader(doc+"\n"+doc), Options{}); err != nil || len(types) != 2 {
			t.Fatalf("Types at depth %d: %d types, %v", jsontype.MaxDepth, len(types), err)
		}
	}
	_, offsets := nested(jsontype.MaxDepth + 1)
	for _, depth := range []int{jsontype.MaxDepth + 1, 1000000} {
		docs, _ := nested(depth)
		for i, doc := range docs {
			want := "record 2: jsontype: nesting exceeds 10000 levels at offset " + strconv.Itoa(offsets[i])
			if _, err := Types(strings.NewReader("1 "+doc), Options{}); err == nil || err.Error() != want {
				t.Errorf("Types at depth %d: err = %v, want %q", depth, err, want)
			}
		}
	}
}

// TestReadErrorIsReturned feeds two records and then a read error. Each,
// Records and Types must return the error in both formats: none may take
// it for the end of the input.
func TestReadErrorIsReturned(t *testing.T) {
	errDisk := errors.New("disk gone")
	input := func() io.Reader {
		return io.MultiReader(strings.NewReader("{\"a\":1}\n{\"a\":2}\n"), iotest.ErrReader(errDisk))
	}
	for _, jsonl := range []bool{false, true} {
		opts := Options{JSONL: jsonl}
		_, eachErr := Each(context.Background(), input(), opts, func(Chunk) error { return nil })
		recordsErr := Records(input(), opts, func([]byte) error { return nil })
		_, typesErr := Types(input(), opts)
		for name, err := range map[string]error{"Each": eachErr, "Records": recordsErr, "Types": typesErr} {
			if !errors.Is(err, errDisk) {
				t.Errorf("%s, JSONL %v: err = %v, want %v", name, jsonl, err, errDisk)
			}
		}
	}
}

// TestStrayCloserNamesItsRecord feeds concatenated input whose second
// record is a closing bracket outside any value. Each and Types must fail
// naming record 2 at every chunk size, instead of ending the input there.
func TestStrayCloserNamesItsRecord(t *testing.T) {
	for _, input := range []string{`{"a":1} ] {"b":2}`, `{"a":1} } x`} {
		for _, chunk := range []int{1, 2, 0} {
			_, err := Each(context.Background(), strings.NewReader(input), Options{ChunkSize: chunk}, func(Chunk) error { return nil })
			if err == nil || !strings.HasPrefix(err.Error(), "record 2: ") {
				t.Errorf("Each, %q, chunk %d: err = %v, want record 2", input, chunk, err)
			}
		}
		if _, err := Types(strings.NewReader(input), Options{}); err == nil || !strings.HasPrefix(err.Error(), "record 2: ") {
			t.Errorf("Types, %q: err = %v, want record 2", input, err)
		}
	}
}
