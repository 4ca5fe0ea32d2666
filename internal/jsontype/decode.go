package jsontype

import (
	"encoding/json"
	"fmt"
)

// FromValue derives the structural type of a decoded JSON value as produced
// by encoding/json (nil, bool, float64/json.Number, string, []any,
// map[string]any). Integers (int, int64) are accepted as numbers for
// convenience when building values programmatically.
func FromValue(v any) (*Type, error) {
	switch x := v.(type) {
	case nil:
		return Null, nil
	case bool:
		return Bool, nil
	case float64, json.Number, int, int64, float32:
		return Number, nil
	case string:
		return String, nil
	case []any:
		elems := make([]*Type, len(x))
		for i, e := range x {
			t, err := FromValue(e)
			if err != nil {
				return nil, err
			}
			elems[i] = t
		}
		return NewArray(elems), nil
	case map[string]any:
		fields := make([]Field, 0, len(x))
		//jx:lint-ignore detorder field order is erased before escape: NewObject sorts and canonicalizes
		for k, e := range x {
			t, err := FromValue(e)
			if err != nil {
				return nil, err
			}
			fields = append(fields, Field{Key: k, Type: t})
		}
		return NewObject(fields), nil
	}
	return nil, fmt.Errorf("jsontype: unsupported value of type %T", v)
}

// MustFromValue is FromValue but panics on error; intended for tests and
// examples building records from literals.
func MustFromValue(v any) *Type {
	t, err := FromValue(v)
	if err != nil {
		panic(err)
	}
	return t
}

// FromJSON derives the structural type of a single JSON document. Trailing
// content after the first value is an error. Decoding goes through the
// allocation-free scanner (scan.go): repeated structure costs no heap
// allocation once interned.
func FromJSON(data []byte) (*Type, error) {
	return scanOne(data)
}
