// Package drift turns discovered schemas into a structural-change monitor
// — the paper's motivating use case (§1): "an operations engineer
// monitoring JSON log data may want to be warned when the structure of
// newly arriving events changes, as this may signify errors, or the
// addition of new event types." Precise schemas are what make this work:
// a permissive K-reduction schema accepts malformed mixtures silently,
// while a JXPLAIN schema flags them.
//
// A Monitor validates a stream against a baseline schema in fixed-size
// windows; when a window's rejection rate crosses the configured
// threshold it raises an Alert carrying the rejection rate, the distinct
// structural repairs (§7.5 edits) explaining the rejections, and the
// offending types, which the caller can feed back into rediscovery.
package drift

import (
	"fmt"
	"sort"

	"jxplain/internal/core"
	"jxplain/internal/jsontype"
	"jxplain/internal/metrics"
	"jxplain/internal/schema"
)

// Config parameterizes a Monitor.
type Config struct {
	// Window is the number of records per evaluation window (default 100).
	Window int
	// RejectThreshold is the window rejection-rate fraction above which an
	// Alert is raised (default 0.01; 0 alerts on any rejection).
	RejectThreshold float64
	// KeepRejected bounds how many rejected types each Alert retains
	// (default 100; the distinct edits are always complete).
	KeepRejected int
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 100
	}
	if c.RejectThreshold < 0 {
		c.RejectThreshold = 0
	}
	if c.KeepRejected <= 0 {
		c.KeepRejected = 100
	}
	return c
}

// Alert describes structural drift detected in one window.
type Alert struct {
	// Window is the 0-based index of the closed window.
	Window int
	// Records and Rejected are the window's totals.
	Records, Rejected int
	// RejectRate is Rejected / Records.
	RejectRate float64
	// Edits are the distinct structural repairs explaining the rejections
	// (new fields, missing mandatory fields, widened types, …).
	Edits []metrics.Edit
	// Samples holds up to Config.KeepRejected rejected types.
	Samples []*jsontype.Type
}

// String renders the alert for logs.
func (a *Alert) String() string {
	out := fmt.Sprintf("drift: window %d rejected %d/%d records (%.1f%%); %d structural changes",
		a.Window, a.Rejected, a.Records, 100*a.RejectRate, len(a.Edits))
	for _, e := range a.Edits {
		out += fmt.Sprintf("\n  %-13s %-40s %s", e.Op, e.Path, e.Detail)
	}
	return out
}

// Monitor validates a record stream against a baseline schema. Not safe
// for concurrent use; wrap with a mutex if observed from multiple
// goroutines.
type Monitor struct {
	baseline schema.Schema
	cfg      Config

	window      int
	inWindow    int
	rejectCount int
	rejected    []*jsontype.Type
	editSet     map[string]metrics.Edit
	totalSeen   int
	totalRej    int
	alertCount  int
}

// NewMonitor returns a Monitor watching against the baseline schema.
func NewMonitor(baseline schema.Schema, cfg Config) *Monitor {
	return &Monitor{
		baseline: baseline,
		cfg:      cfg.withDefaults(),
		editSet:  map[string]metrics.Edit{},
	}
}

// Baseline returns the schema currently being enforced.
func (m *Monitor) Baseline() schema.Schema { return m.baseline }

// Totals returns the lifetime observed/rejected record counts and the
// number of alerts raised.
func (m *Monitor) Totals() (seen, rejected, alerts int) {
	return m.totalSeen, m.totalRej, m.alertCount
}

// Observe folds one record into the current window. When the record
// closes a window whose rejection rate exceeds the threshold, the window's
// Alert is returned; otherwise Observe returns nil.
func (m *Monitor) Observe(t *jsontype.Type) *Alert {
	m.totalSeen++
	m.inWindow++
	if !m.baseline.Accepts(t) {
		m.totalRej++
		m.rejectCount++
		if len(m.rejected) < m.cfg.KeepRejected {
			m.rejected = append(m.rejected, t)
		}
		_, edits := metrics.EditsToFullRecall(m.baseline, []*jsontype.Type{t})
		for _, e := range edits {
			m.editSet[e.Op+"\x00"+e.Path+"\x00"+e.Detail] = e
		}
	}
	if m.inWindow < m.cfg.Window {
		return nil
	}
	return m.closeWindow()
}

// Flush closes the current partial window, returning its Alert if the
// threshold is crossed. Useful at stream end.
func (m *Monitor) Flush() *Alert {
	if m.inWindow == 0 {
		return nil
	}
	return m.closeWindow()
}

func (m *Monitor) closeWindow() *Alert {
	records := m.inWindow
	rejected := m.rejectCount
	rate := float64(rejected) / float64(records)
	windowIdx := m.window

	var alert *Alert
	if rejected > 0 && rate > m.cfg.RejectThreshold {
		edits := make([]metrics.Edit, 0, len(m.editSet))
		for _, e := range m.editSet {
			edits = append(edits, e)
		}
		// Path, op and detail together are an edit's identity, so the
		// order is total and never falls back to the map's.
		sort.Slice(edits, func(i, j int) bool {
			if edits[i].Path != edits[j].Path {
				return edits[i].Path < edits[j].Path
			}
			if edits[i].Op != edits[j].Op {
				return edits[i].Op < edits[j].Op
			}
			return edits[i].Detail < edits[j].Detail
		})
		alert = &Alert{
			Window:     windowIdx,
			Records:    records,
			Rejected:   rejected,
			RejectRate: rate,
			Edits:      edits,
			Samples:    m.rejected,
		}
		m.alertCount++
	}
	m.window++
	m.inWindow = 0
	m.rejectCount = 0
	m.rejected = nil
	m.editSet = map[string]metrics.Edit{}
	return alert
}

// Absorb folds an alert's structural changes into the baseline: a schema
// is discovered over the alert's rejected samples with the given
// configuration and fused into the current baseline (schema.Fuse), so the
// evolved structure validates from now on without re-reading history. The
// new baseline is returned.
func (m *Monitor) Absorb(alert *Alert, cfg core.Config) schema.Schema {
	if alert == nil || len(alert.Samples) == 0 {
		return m.baseline
	}
	delta := core.DiscoverTypes(alert.Samples, cfg)
	m.SetBaseline(schema.Fuse(m.baseline, delta))
	return m.baseline
}

// SetBaseline replaces the enforced schema (e.g. after rediscovery over an
// Alert's samples) and resets the current window.
func (m *Monitor) SetBaseline(s schema.Schema) {
	m.baseline = s
	m.inWindow = 0
	m.rejectCount = 0
	m.rejected = nil
	m.editSet = map[string]metrics.Edit{}
}
