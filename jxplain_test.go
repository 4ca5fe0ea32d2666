package jxplain

import (
	"strings"
	"testing"
)

const figure1 = `
{"ts":7,"event":"login","user":{"name":"bob","geo":[1.1,2.2]}}
{"ts":8,"event":"serve","files":["a.txt","b.txt"]}
`

func TestDiscoverJSONFigure1(t *testing.T) {
	s, err := DiscoverJSON(strings.NewReader(figure1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, good := range []string{
		`{"ts":7,"event":"login","user":{"name":"bob","geo":[1.1,2.2]}}`,
		`{"ts":8,"event":"serve","files":["a.txt","b.txt"]}`,
	} {
		ok, err := Validate(s, []byte(good))
		if err != nil || !ok {
			t.Errorf("should validate %s (%v)", good, err)
		}
	}
	for _, bad := range []string{
		`{"ts":9,"event":"huh","user":{"name":"x","geo":[0,0]},"files":["f"]}`,
		`{"ts":10,"event":"wat"}`,
	} {
		ok, _ := Validate(s, []byte(bad))
		if ok {
			t.Errorf("should reject %s", bad)
		}
	}
}

func TestValidateMalformed(t *testing.T) {
	s, _ := DiscoverJSON(strings.NewReader(`{"a":1}`), DefaultConfig())
	if ok, err := Validate(s, []byte(`{"a":`)); ok || err == nil {
		t.Error("malformed JSON must fail with error")
	}
}

func TestDiscoverJSONDecodingError(t *testing.T) {
	if _, err := DiscoverJSON(strings.NewReader(`{"a":1} {broken`), DefaultConfig()); err == nil {
		t.Error("decode error should propagate")
	}
}

func TestKReduceConfigDiffers(t *testing.T) {
	records := strings.NewReader(figure1)
	k, err := DiscoverJSON(records, KReduceConfig())
	if err != nil {
		t.Fatal(err)
	}
	mixed := []byte(`{"ts":9,"event":"x","user":{"name":"y","geo":[1,2]},"files":["f"]}`)
	if ok, _ := Validate(k, mixed); !ok {
		t.Error("K-reduce admits the mixed record")
	}
}

func TestSchemaSerializationRoundTrip(t *testing.T) {
	s, _ := DiscoverJSON(strings.NewReader(figure1), DefaultConfig())
	data, err := MarshalSchema(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSchema(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Canon() != s.Canon() {
		t.Error("round trip changed the schema")
	}
	jsDoc, err := ToJSONSchema(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jsDoc), "json-schema.org") {
		t.Error("JSON Schema export missing header")
	}
}

func TestRecallAndEntropy(t *testing.T) {
	s, _ := DiscoverJSON(strings.NewReader(figure1), DefaultConfig())
	ty, _ := TypeOf([]byte(`{"ts":1,"event":"login","user":{"name":"x","geo":[0,1]}}`))
	bad, _ := TypeOf([]byte(`{"nope":true}`))
	if got := Recall(s, []*Type{ty, bad}); got != 0.5 {
		t.Errorf("recall = %v", got)
	}
	if SchemaEntropy(s) < 0 {
		t.Error("entropy should be non-negative here")
	}
}

func TestIterativeDiscoverFacade(t *testing.T) {
	var types []*Type
	for i := 0; i < 200; i++ {
		ty, _ := TypeOf([]byte(`{"a":1,"b":"x"}`))
		types = append(types, ty)
	}
	rare, _ := TypeOf([]byte(`{"a":1,"b":"x","rare":true}`))
	types = append(types, rare)
	s, report := IterativeDiscover(types, DefaultConfig(), 0.02, 5, 1)
	if !report.Converged {
		t.Fatal("should converge")
	}
	if !ValidateType(s, rare) {
		t.Error("rare record must be covered")
	}
}

func TestDriftFacade(t *testing.T) {
	s, _ := DiscoverJSON(strings.NewReader(`{"a":1}`+"\n"+`{"a":2}`), DefaultConfig())
	m := NewDriftMonitor(s, DriftConfig{Window: 5})
	var alert *DriftAlert
	for i := 0; i < 5; i++ {
		ty, _ := TypeOf([]byte(`{"a":1,"surprise":"x"}`))
		if a := m.Observe(ty); a != nil {
			alert = a
		}
	}
	if alert == nil || alert.Rejected != 5 {
		t.Fatalf("alert = %+v", alert)
	}
	newSchema, _ := DiscoverJSON(strings.NewReader(`{"a":1,"surprise":"x"}`), DefaultConfig())
	changes := DiffSchemas(s, newSchema)
	if len(changes) != 1 || changes[0].Path != "surprise" {
		t.Errorf("changes = %v", changes)
	}
}

func TestFuseSchemasFacade(t *testing.T) {
	old, _ := DiscoverJSON(strings.NewReader(`{"a":1}`+"\n"+`{"a":2}`), DefaultConfig())
	delta, _ := DiscoverJSON(strings.NewReader(`{"a":1,"b":"x"}`), DefaultConfig())
	fused := FuseSchemas(old, delta)
	for _, good := range []string{`{"a":9}`, `{"a":9,"b":"y"}`} {
		if ok, _ := Validate(fused, []byte(good)); !ok {
			t.Errorf("fused schema should accept %s", good)
		}
	}
}

func TestSampleValueFacade(t *testing.T) {
	s, _ := DiscoverJSON(strings.NewReader(figure1), DefaultConfig())
	v, ok := SampleValue(s, 7)
	if !ok {
		t.Fatal("inhabited schema must sample")
	}
	ty, err := TypeOfValue(v)
	if err != nil {
		t.Fatal(err)
	}
	if !ValidateType(s, ty) {
		t.Errorf("sampled value %v does not conform to its schema", v)
	}
	if _, ok := SampleValue(schemaEmptyForTest(), 1); ok {
		t.Error("empty schema is uninhabited")
	}
}

func schemaEmptyForTest() Schema {
	s, _ := UnmarshalSchema([]byte(`{"node":"union"}`))
	return s
}

func TestEditsToFullRecallFacade(t *testing.T) {
	s, _ := DiscoverJSON(strings.NewReader(`{"a":1}`), DefaultConfig())
	ty, _ := TypeOf([]byte(`{"a":1,"extra":"x"}`))
	n, edits := EditsToFullRecall(s, []*Type{ty})
	if n != 1 || len(edits) != 1 {
		t.Errorf("edits = %v", edits)
	}
}
