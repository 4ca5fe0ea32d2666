package drift

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"jxplain/internal/core"
	"jxplain/internal/jsontype"
	"jxplain/internal/metrics"
	"jxplain/internal/schema"
)

func ty(t *testing.T, src string) *jsontype.Type {
	t.Helper()
	typ, err := jsontype.FromJSON([]byte(src))
	if err != nil {
		t.Fatalf("FromJSON(%q): %v", src, err)
	}
	return typ
}

func baseline(t *testing.T, srcs ...string) schema.Schema {
	t.Helper()
	var types []*jsontype.Type
	for _, s := range srcs {
		types = append(types, ty(t, s))
	}
	return core.DiscoverTypes(types, core.Default())
}

func TestMonitorNoDriftStaysQuiet(t *testing.T) {
	s := baseline(t, `{"a":1,"b":"x"}`, `{"a":2,"b":"y"}`)
	m := NewMonitor(s, Config{Window: 10})
	for i := 0; i < 55; i++ {
		if alert := m.Observe(ty(t, `{"a":9,"b":"z"}`)); alert != nil {
			t.Fatalf("unexpected alert: %v", alert)
		}
	}
	if alert := m.Flush(); alert != nil {
		t.Fatalf("flush should be quiet: %v", alert)
	}
	seen, rejected, alerts := m.Totals()
	if seen != 55 || rejected != 0 || alerts != 0 {
		t.Errorf("totals = %d/%d/%d", seen, rejected, alerts)
	}
}

func TestMonitorDetectsNewField(t *testing.T) {
	s := baseline(t, `{"a":1,"b":"x"}`, `{"a":2,"b":"y"}`)
	m := NewMonitor(s, Config{Window: 20, RejectThreshold: 0.05})
	var alert *Alert
	for i := 0; i < 20; i++ {
		rec := `{"a":1,"b":"x"}`
		if i%4 == 0 { // 25% of the window carries a new field
			rec = `{"a":1,"b":"x","new_field":true}`
		}
		if a := m.Observe(ty(t, rec)); a != nil {
			alert = a
		}
	}
	if alert == nil {
		t.Fatal("expected a drift alert")
	}
	if alert.Rejected != 5 || alert.Records != 20 {
		t.Errorf("alert = %+v", alert)
	}
	found := false
	for _, e := range alert.Edits {
		if e.Op == "add-optional" && e.Detail == "new_field" {
			found = true
		}
	}
	if !found {
		t.Errorf("alert should name the new field: %v", alert.Edits)
	}
	if !strings.Contains(alert.String(), "new_field") {
		t.Error("String() should include the edit")
	}
	if len(alert.Samples) != 5 {
		t.Errorf("samples = %d", len(alert.Samples))
	}
}

// Edits that differ only in their detail — two new fields at the root —
// come out in detail order, not in the order the edit set's map yields
// them, so an alert prints the same on every run.
func TestAlertEditsInDetailOrder(t *testing.T) {
	s := baseline(t, `{"a":1}`)
	want := []metrics.Edit{
		{Path: "$", Op: "add-optional", Detail: "alpha"},
		{Path: "$", Op: "add-optional", Detail: "zeta"},
	}
	for run := 0; run < 50; run++ {
		m := NewMonitor(s, Config{Window: 1})
		alert := m.Observe(ty(t, `{"a":1,"zeta":true,"alpha":"x"}`))
		if alert == nil {
			t.Fatal("expected a drift alert")
		}
		if !reflect.DeepEqual(alert.Edits, want) {
			t.Fatalf("run %d: edits %v, want %v", run, alert.Edits, want)
		}
	}
}

func TestMonitorThresholdSuppressesNoise(t *testing.T) {
	s := baseline(t, `{"a":1}`)
	m := NewMonitor(s, Config{Window: 100, RejectThreshold: 0.05})
	// 2% bad records: below the 5% threshold.
	for i := 0; i < 100; i++ {
		rec := `{"a":1}`
		if i%50 == 0 {
			rec = `{"a":"oops"}`
		}
		if alert := m.Observe(ty(t, rec)); alert != nil {
			t.Fatalf("2%% rejects should not alert at 5%% threshold: %v", alert)
		}
	}
}

func TestMonitorFlushPartialWindow(t *testing.T) {
	s := baseline(t, `{"a":1}`)
	m := NewMonitor(s, Config{Window: 1000})
	m.Observe(ty(t, `{"a":1}`))
	m.Observe(ty(t, `{"zzz":true}`))
	alert := m.Flush()
	if alert == nil || alert.Rejected != 1 || alert.Records != 2 {
		t.Fatalf("flush alert = %+v", alert)
	}
	if m.Flush() != nil {
		t.Error("second flush should be a no-op")
	}
}

func TestMonitorRelearnCycle(t *testing.T) {
	s := baseline(t, `{"a":1}`)
	m := NewMonitor(s, Config{Window: 10})
	var alert *Alert
	for i := 0; i < 10; i++ {
		if a := m.Observe(ty(t, `{"a":1,"v2_field":"x"}`)); a != nil {
			alert = a
		}
	}
	if alert == nil {
		t.Fatal("expected alert on schema evolution")
	}
	// Re-learn from the baseline's coverage plus the alert samples.
	types := append([]*jsontype.Type{ty(t, `{"a":1}`)}, alert.Samples...)
	m.SetBaseline(core.DiscoverTypes(types, core.Default()))
	for i := 0; i < 20; i++ {
		if a := m.Observe(ty(t, `{"a":1,"v2_field":"y"}`)); a != nil {
			t.Fatalf("relearned baseline should accept v2 records: %v", a)
		}
	}
	if m.Baseline() == nil {
		t.Error("baseline accessor broken")
	}
}

func TestMonitorKeepRejectedBound(t *testing.T) {
	s := baseline(t, `{"a":1}`)
	m := NewMonitor(s, Config{Window: 50, KeepRejected: 3})
	var alert *Alert
	for i := 0; i < 50; i++ {
		if a := m.Observe(ty(t, fmt.Sprintf(`{"bad%d":1}`, i))); a != nil {
			alert = a
		}
	}
	if alert == nil {
		t.Fatal("expected alert")
	}
	if len(alert.Samples) != 3 {
		t.Errorf("samples should be capped at 3, got %d", len(alert.Samples))
	}
	if alert.Rejected != 50 {
		t.Errorf("Rejected must count every rejection, got %d", alert.Rejected)
	}
}

func TestMonitorAbsorb(t *testing.T) {
	s := baseline(t, `{"a":1}`)
	m := NewMonitor(s, Config{Window: 10})
	var alert *Alert
	for i := 0; i < 10; i++ {
		if a := m.Observe(ty(t, `{"a":1,"evolved":"x"}`)); a != nil {
			alert = a
		}
	}
	if alert == nil {
		t.Fatal("expected alert")
	}
	fused := m.Absorb(alert, core.Default())
	if fused == nil || m.Baseline() != fused {
		t.Fatal("Absorb should install the fused baseline")
	}
	// Both the old and the evolved shapes now validate.
	for _, good := range []string{`{"a":1}`, `{"a":2,"evolved":"y"}`} {
		if !m.Baseline().Accepts(ty(t, good)) {
			t.Errorf("fused baseline should accept %s", good)
		}
	}
	for i := 0; i < 20; i++ {
		if a := m.Observe(ty(t, `{"a":1,"evolved":"z"}`)); a != nil {
			t.Fatalf("no alerts after absorbing: %v", a)
		}
	}
	// Absorbing nil or empty alerts is a no-op.
	if m.Absorb(nil, core.Default()) != m.Baseline() {
		t.Error("Absorb(nil) should be identity")
	}
	if m.Absorb(&Alert{}, core.Default()) != m.Baseline() {
		t.Error("Absorb(empty) should be identity")
	}
}

func TestDiff(t *testing.T) {
	old := baseline(t, `{"a":1,"b":{"x":"s"}}`)
	new := baseline(t, `{"a":1,"b":{"y":"s"},"c":true}`)
	changes := Diff(old, new)
	got := map[string]ChangeKind{}
	for _, c := range changes {
		got[c.Path] = c.Kind
	}
	if got["b.x"] != PathRemoved || got["b.y"] != PathAdded || got["c"] != PathAdded {
		t.Errorf("changes = %v", changes)
	}
	if len(Diff(old, old)) != 0 {
		t.Error("self-diff must be empty")
	}
	if !strings.Contains(changes[0].String(), changes[0].Path) {
		t.Error("Change.String broken")
	}
	if PathAdded.String() != "added" || PathRemoved.String() != "removed" {
		t.Error("ChangeKind.String broken")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Window != 100 || c.KeepRejected != 100 || c.RejectThreshold != 0 {
		t.Errorf("defaults = %+v", c)
	}
	c2 := Config{RejectThreshold: -1}.withDefaults()
	if c2.RejectThreshold != 0 {
		t.Error("negative threshold should clamp to 0")
	}
}
