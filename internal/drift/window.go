package drift

import (
	"fmt"
	"sort"

	"jxplain/internal/core"
)

// Windowed drift: the structural counterpart of the record-level Monitor
// for bounded streams. A stream accumulator running with a window ring
// (core.Bounds) closes a pass-① sketch epoch every WindowRecords records;
// a WindowMonitor diffs consecutive closed windows' derived statistics
// and reports structural movement — paths that appeared, paths that
// retired, and tuple/collection rulings that flipped — without holding
// any schema or record state of its own. Where Monitor answers "does the
// stream still validate against the baseline?", WindowMonitor answers
// "is the stream's shape itself moving?" — a question the ring answers
// for free, since each closed window is a read-only sketch of exactly
// the records it observed, handed to the hook as it closes.

// WindowChange is one structural difference between consecutive windows.
type WindowChange struct {
	// Kind is PathAdded, PathRemoved, or DecisionChanged.
	Kind ChangeKind
	// Path is the kind-qualified stats path the change is anchored at.
	Path string
	// From and To carry the old and new tuple/collection rulings; set
	// only for DecisionChanged.
	From, To string
}

func (c WindowChange) String() string {
	if c.Kind == DecisionChanged {
		return fmt.Sprintf("%-8s %s (%s → %s)", c.Kind, c.Path, c.From, c.To)
	}
	return fmt.Sprintf("%-8s %s", c.Kind, c.Path)
}

// WindowEvent describes the structural movement observed at one closed
// window, relative to the window before it.
type WindowEvent struct {
	// Window is the closed window's 0-based index.
	Window int
	// Records is the closed window's record count.
	Records int
	// Changes are the differences against the previous window, sorted by
	// path then kind.
	Changes []WindowChange
}

// String renders the event for logs.
func (e *WindowEvent) String() string {
	out := fmt.Sprintf("drift: window %d (%d records): %d structural changes",
		e.Window, e.Records, len(e.Changes))
	for _, c := range e.Changes {
		out += "\n  " + c.String()
	}
	return out
}

// WindowMonitor diffs the pass-① statistics of consecutive stream
// windows. Not safe for concurrent use.
type WindowMonitor struct {
	cfg    core.Config
	prev   map[string]string // kind-qualified path -> decision
	primed bool
	events int
}

// NewWindowMonitor returns a monitor deriving each window's statistics
// under cfg (the discovery configuration the stream itself runs with, so
// rulings match what synthesis would do).
func NewWindowMonitor(cfg core.Config) *WindowMonitor {
	return &WindowMonitor{cfg: cfg}
}

// Events returns how many non-empty events the monitor has raised.
func (m *WindowMonitor) Events() int { return m.events }

// ObserveSketch derives the closed window's statistics and diffs them
// against the previous window — the natural callback for
// core.Accumulator.OnWindowClose. The first window primes the baseline
// and returns nil; later windows return nil when nothing moved.
func (m *WindowMonitor) ObserveSketch(index, records int, sketch *core.PathSketch) *WindowEvent {
	return m.ObserveStats(sketch.Stats(m.cfg), index, records)
}

// ObserveStats is ObserveSketch for statistics the caller already
// derived.
func (m *WindowMonitor) ObserveStats(stats []core.PathStat, index, records int) *WindowEvent {
	cur := make(map[string]string, len(stats))
	for _, st := range stats {
		cur[st.Kind.String()+":"+st.Path] = st.Decision.String()
	}
	defer func() { m.prev, m.primed = cur, true }()
	if !m.primed {
		return nil
	}

	var changes []WindowChange
	for path, dec := range cur {
		old, ok := m.prev[path]
		switch {
		case !ok:
			changes = append(changes, WindowChange{Kind: PathAdded, Path: path})
		case old != dec:
			changes = append(changes, WindowChange{Kind: DecisionChanged, Path: path, From: old, To: dec})
		}
	}
	for path := range m.prev {
		if _, ok := cur[path]; !ok {
			changes = append(changes, WindowChange{Kind: PathRemoved, Path: path})
		}
	}
	if len(changes) == 0 {
		return nil
	}
	sort.Slice(changes, func(i, j int) bool {
		if changes[i].Path != changes[j].Path {
			return changes[i].Path < changes[j].Path
		}
		return changes[i].Kind < changes[j].Kind
	})
	m.events++
	return &WindowEvent{Window: index, Records: records, Changes: changes}
}

// Bind registers the monitor on a bounded accumulator's window hook,
// forwarding every non-nil event to onEvent. The accumulator must be
// ring-configured (core.Bounds.WindowCount > 0) for the hook to fire.
func (m *WindowMonitor) Bind(acc *core.Accumulator, onEvent func(*WindowEvent)) {
	acc.OnWindowClose(func(index, records int, sketch *core.PathSketch) {
		if ev := m.ObserveSketch(index, records, sketch); ev != nil && onEvent != nil {
			onEvent(ev)
		}
	})
}
