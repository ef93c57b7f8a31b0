package rsm

import (
	"slices"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/ordering"
)

// Machine is the Fig. 1 process state: clock, per-message phase and
// timestamps, and the delivery queue.
type Machine struct {
	group mcast.GroupID
	clock uint64
	state map[mcast.MsgID]*entry
	queue *ordering.Queue
	// assigned tracks the clock values already used by applied
	// assignments, to keep local timestamps unique within the group even
	// when leaders issue them speculatively across leader changes.
	assigned map[uint64]bool
}

type entry struct {
	app       mcast.AppMsg
	phase     msgs.Phase
	lts       mcast.Timestamp
	gts       mcast.Timestamp
	delivered bool
}

// New constructs the machine for one group.
func New(group mcast.GroupID) *Machine {
	return &Machine{
		group:    group,
		state:    make(map[mcast.MsgID]*entry),
		queue:    ordering.NewQueue(),
		assigned: make(map[uint64]bool),
	}
}

// Clock returns the machine's logical clock.
func (m *Machine) Clock() uint64 { return m.clock }

// Phase returns the phase of message id (PhaseStart if unknown).
func (m *Machine) Phase(id mcast.MsgID) msgs.Phase {
	if e, ok := m.state[id]; ok {
		return e.phase
	}
	return msgs.PhaseStart
}

// LTS returns the local timestamp assigned to id, if any.
func (m *Machine) LTS(id mcast.MsgID) (mcast.Timestamp, bool) {
	if e, ok := m.state[id]; ok && e.phase != msgs.PhaseStart {
		return e.lts, true
	}
	return mcast.Timestamp{}, false
}

// GTS returns the committed global timestamp of id, if committed.
func (m *Machine) GTS(id mcast.MsgID) (mcast.Timestamp, bool) {
	if e, ok := m.state[id]; ok && e.phase == msgs.PhaseCommitted {
		return e.gts, true
	}
	return mcast.Timestamp{}, false
}

// Delivered returns the IDs of delivered messages, sorted by ascending
// global timestamp (the order in which re-deliveries must be announced).
func (m *Machine) Delivered() []mcast.MsgID {
	var out []mcast.MsgID
	for id, e := range m.state {
		if e.delivered {
			out = append(out, id)
		}
	}
	slices.SortFunc(out, func(a, b mcast.MsgID) int { return m.state[a].gts.Compare(m.state[b].gts) })
	return out
}

// IsDelivered reports whether id was delivered.
func (m *Machine) IsDelivered(id mcast.MsgID) bool {
	e, ok := m.state[id]
	return ok && e.delivered
}

// App returns the application message of id, if known.
func (m *Machine) App(id mcast.MsgID) (mcast.AppMsg, bool) {
	if e, ok := m.state[id]; ok {
		return e.app, true
	}
	return mcast.AppMsg{}, false
}

// ApplyAssignClock assigns app the next clock timestamp — Fig. 1 lines 9–10
// verbatim: clock++; lts = (clock, g). Because the timestamp is computed at
// apply time, it is always above the global timestamp of every previously
// committed message, so the delivery rule can never be surprised by a
// late-appearing lower timestamp. FT-Skeen uses this variant. Idempotent.
func (m *Machine) ApplyAssignClock(app mcast.AppMsg) (mcast.Timestamp, bool) {
	if e, ok := m.state[app.ID]; ok && e.phase != msgs.PhaseStart {
		return e.lts, false
	}
	m.clock++
	return m.ApplyAssign(app, mcast.Timestamp{Time: m.clock, Group: m.group})
}

// ApplyAssign installs local timestamp lts for app (Fig. 1 lines 9–11 as a
// deterministic step; the timestamp was chosen by the proposing leader —
// FastCast's speculative variant, whose delivery gate must account for
// timestamps issued but not yet applied). It is idempotent: re-assignments
// of an already-assigned message are ignored. It returns the effective
// local timestamp and whether this call was fresh.
func (m *Machine) ApplyAssign(app mcast.AppMsg, lts mcast.Timestamp) (mcast.Timestamp, bool) {
	e, ok := m.state[app.ID]
	if ok && e.phase != msgs.PhaseStart {
		return e.lts, false
	}
	if !ok {
		e = &entry{}
		m.state[app.ID] = e
	}
	// A timestamp issued speculatively by a deposed leader may collide with
	// one already applied; remap collisions to the next clock value so
	// local timestamps stay unique within the group (the caller's
	// confirmation protocol propagates the effective value). Low-but-unique
	// timestamps are deliberately KEPT: they stay pending below committed
	// global timestamps, producing FastCast's convoy window of C = 4δ that
	// the paper quotes (§VI).
	if m.assigned[lts.Time] {
		lts = mcast.Timestamp{Time: m.clock + 1, Group: m.group}
	}
	m.assigned[lts.Time] = true
	// The machine retains app: messages are immutable, so sharing the
	// Paxos log's copy is safe and costs nothing.
	e.app = app
	e.phase = msgs.PhaseProposed
	e.lts = lts
	if m.clock < lts.Time {
		m.clock = lts.Time
	}
	m.queue.SetPending(app.ID, lts)
	return lts, true
}

// ApplyCommit installs the full local-timestamp vector for id and computes
// its global timestamp (Fig. 1 lines 14–16). Re-commits of an undelivered
// message update the vector (FastCast's speculation-correction path);
// commits of delivered messages are ignored. It returns the effective global
// timestamp and whether the state changed.
func (m *Machine) ApplyCommit(id mcast.MsgID, ltss []msgs.GroupTS) (mcast.Timestamp, bool) {
	e, ok := m.state[id]
	if !ok || e.phase == msgs.PhaseStart {
		// A commit for a message this group never assigned cannot be
		// ordered; the caller's retry machinery re-runs assignment first.
		return mcast.Timestamp{}, false
	}
	if e.delivered {
		return e.gts, false
	}
	gts := msgs.MaxGroupTS(ltss)
	e.gts = gts
	e.phase = msgs.PhaseCommitted
	if m.clock < gts.Time {
		m.clock = gts.Time
	}
	m.queue.Commit(id, gts)
	return gts, true
}

// Deliverable reports the next message allowed out by the delivery rule
// (Fig. 1 line 17) without removing it.
func (m *Machine) Deliverable() (mcast.MsgID, mcast.Timestamp, bool) {
	return m.queue.PeekDeliverable()
}

// Deliver pops the next deliverable message, marks it delivered and returns
// the delivery record. It returns false when the delivery rule blocks.
func (m *Machine) Deliver() (mcast.Delivery, bool) {
	id, gts, ok := m.queue.PopDeliverable()
	if !ok {
		return mcast.Delivery{}, false
	}
	e := m.state[id]
	e.delivered = true
	return mcast.Delivery{Msg: e.app, GTS: gts}, true
}

// MarkDelivered forces id out of the queue and marks it delivered at gts
// (used by FastCast followers, whose deliveries are driven by leader DELIVER
// messages rather than by the local queue). The DELIVER may outrun the
// commit in the log — a replay vouches for nothing and leaves its leader at
// once, the commit's Learn waits for a sync — and a delivered message
// ignores its commit, so the global timestamp, and the clock advance that
// comes with it, are taken from here: a follower that takes over
// re-announces its deliveries in that order and proposes above them.
func (m *Machine) MarkDelivered(id mcast.MsgID, gts mcast.Timestamp) {
	if e, ok := m.state[id]; ok {
		e.delivered, e.gts, e.phase = true, gts, msgs.PhaseCommitted
		m.clock = max(m.clock, gts.Time)
	}
	m.queue.Remove(id)
}

// Pending returns the IDs of messages assigned but not committed, for
// leader-side retry scheduling, by ascending local timestamp: a new leader
// re-announces them in this order, which must not follow map iteration or
// a seeded run would not replay.
func (m *Machine) Pending() []mcast.MsgID {
	var out []mcast.MsgID
	for id, e := range m.state {
		if e.phase == msgs.PhaseProposed {
			out = append(out, id)
		}
	}
	slices.SortFunc(out, func(a, b mcast.MsgID) int { return m.state[a].lts.Compare(m.state[b].lts) })
	return out
}

// CommittedUndelivered returns the IDs of committed, undelivered messages,
// by ascending global timestamp (see Pending).
func (m *Machine) CommittedUndelivered() []mcast.MsgID {
	var out []mcast.MsgID
	for id, e := range m.state {
		if e.phase == msgs.PhaseCommitted && !e.delivered {
			out = append(out, id)
		}
	}
	slices.SortFunc(out, func(a, b mcast.MsgID) int { return m.state[a].gts.Compare(m.state[b].gts) })
	return out
}
