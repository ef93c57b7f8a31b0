package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"wbcast/internal/mcast"
)

// Event is one timestamped trace record: a lifecycle stage of a sampled
// message, a recovery event, or an injected fault.
type Event struct {
	// At is the observability timestamp (virtual time on the simulator).
	At time.Duration
	// Proc is the process that recorded the event (NoProcess for faults).
	Proc mcast.ProcessID
	// ID is the message concerned; 0 for system events (step-downs,
	// elections, faults).
	ID mcast.MsgID
	// Stage is a Stage* or Event* constant.
	Stage string
	// Note carries free-form detail (fault description, ballot, ...).
	Note string
}

// Tracer records message-lifecycle events for a deterministic sample of
// messages plus every rare system event. One Tracer is shared by a whole
// deployment; its buffer is bounded, and overflow increments a dropped
// counter instead of growing without bound.
//
// Sampling is deterministic: a message is sampled iff its sender-local
// sequence number is divisible by the sampling interval — never by RNG or
// time — so two runs of the same seeded simulation trace the same
// messages. All methods are nil-safe; a nil *Tracer is "tracing off".
type Tracer struct {
	every uint32
	limit int
	clock Clock
	// Dropped counts events discarded on buffer overflow.
	Dropped Counter

	mu     sync.Mutex
	events []Event
}

// traceBuffer bounds the events a tracer retains.
const traceBuffer = 65536

// NewTracer builds a tracer sampling every sample-th message (1 = every
// message; ≤ 0 disables tracing and returns nil), retaining at most 65536
// events. clock supplies event timestamps; events recorded with explicit
// times (EventAt, Fault) work with a nil clock.
func NewTracer(sample int, clock Clock) *Tracer {
	if sample <= 0 {
		return nil
	}
	return &Tracer{every: uint32(sample), limit: traceBuffer, clock: clock}
}

// Sampled reports whether events for this message are recorded.
func (t *Tracer) Sampled(id mcast.MsgID) bool {
	return t != nil && id.Seq()%t.every == 0
}

func (t *Tracer) record(ev Event) {
	t.mu.Lock()
	if len(t.events) >= t.limit {
		t.mu.Unlock()
		t.Dropped.Inc()
		return
	}
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Message records a lifecycle event for id at the current clock time, if
// id is sampled.
func (t *Tracer) Message(proc mcast.ProcessID, id mcast.MsgID, stage, note string) {
	if !t.Sampled(id) {
		return
	}
	t.record(Event{At: t.clock.Now(), Proc: proc, ID: id, Stage: stage, Note: note})
}

// EventAt is Message with an explicit timestamp (still sampling-gated).
func (t *Tracer) EventAt(at time.Duration, proc mcast.ProcessID, id mcast.MsgID, stage, note string) {
	if !t.Sampled(id) {
		return
	}
	t.record(Event{At: at, Proc: proc, ID: id, Stage: stage, Note: note})
}

// System records a rare, message-independent event (step-down, election,
// catch-up) unconditionally.
func (t *Tracer) System(proc mcast.ProcessID, stage, note string) {
	if t == nil {
		return
	}
	t.record(Event{At: t.clock.Now(), Proc: proc, Stage: stage, Note: note})
}

// Fault records an injected fault action (crash/partition/heal/...) at its
// firing time, unconditionally, so a chaos failure's trace shows faults
// interleaved with protocol stages.
func (t *Tracer) Fault(at time.Duration, desc string) {
	if t == nil {
		return
	}
	t.record(Event{At: at, Proc: mcast.NoProcess, Stage: EventFault, Note: desc})
}

// Events returns a copy of the recorded events in recording order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// formatEvent renders one canonical trace line. The format is part of the
// determinism contract: two runs of the same seeded schedule must render
// byte-identical timelines.
func formatEvent(ev Event) string {
	who := "fault"
	if ev.Proc != mcast.NoProcess {
		who = fmt.Sprintf("p%d", ev.Proc)
	}
	line := fmt.Sprintf("t=%-12s %-6s %-10s", ev.At, who, ev.Stage)
	if ev.ID != 0 {
		line += " " + ev.ID.String()
	}
	if ev.Note != "" {
		line += " " + ev.Note
	}
	return line
}

// FormatTimeline renders events as one canonical line each, in recording
// order (chronological under the single-threaded simulator).
func FormatTimeline(events []Event) string {
	var b strings.Builder
	for _, ev := range events {
		b.WriteString(formatEvent(ev))
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatMessageTimelines renders a per-message stage timeline: events are
// grouped by message ID in order of first appearance, each line annotated
// with the delta since the message's first event; system and fault events
// follow in their own section. This is the wbcast-sim -trace output.
func FormatMessageTimelines(events []Event) string {
	var order []mcast.MsgID
	byID := make(map[mcast.MsgID][]Event)
	var system []Event
	for _, ev := range events {
		if ev.ID == 0 {
			system = append(system, ev)
			continue
		}
		if _, seen := byID[ev.ID]; !seen {
			order = append(order, ev.ID)
		}
		byID[ev.ID] = append(byID[ev.ID], ev)
	}
	var b strings.Builder
	for _, id := range order {
		evs := byID[id]
		fmt.Fprintf(&b, "%v:\n", id)
		t0 := evs[0].At
		for _, ev := range evs {
			fmt.Fprintf(&b, "  +%-12s p%-3d %s", ev.At-t0, ev.Proc, ev.Stage)
			if ev.Note != "" {
				b.WriteString(" " + ev.Note)
			}
			b.WriteByte('\n')
		}
	}
	if len(system) > 0 {
		b.WriteString("system events:\n")
		for _, ev := range system {
			b.WriteString("  " + formatEvent(ev) + "\n")
		}
	}
	return b.String()
}
