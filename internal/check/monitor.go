package check

import (
	"fmt"

	"wbcast/internal/mcast"
)

// Monitor is the incremental safety checker used during chaos runs: it
// verifies every delivery as it happens, in O(1) amortised per delivery,
// so an invariant violation is caught at the moment (and virtual time) it
// occurs rather than at the end of the run. A delivery costs one lookup in
// a map keyed by message, one more keyed by stamp for a message's first
// delivery, and indexing into slices by process and group; appends grow
// those slices and maps by doubling. It checks, continuously:
//
//   - validity: only submitted messages are delivered, and only at members
//     of an addressed group;
//   - exactly-once: no process delivers the same message twice;
//   - total order: each process's deliveries carry strictly increasing
//     (GTS, Sub) stamps, all processes agree on every message's stamp, and
//     no two messages share a stamp — together these imply the existence
//     of a global total order consistent with every delivery sequence;
//   - gap-freedom: all members of a group deliver exactly the same
//     sequence of messages — each member's delivery log is a prefix of the
//     group's canonical log, so nobody skips over (or reorders within) the
//     group's projection of the total order.
//
// Liveness (Termination) is inherently a quiescence property and stays in
// History.Check; run both, pouring the same records into each.
//
// A monitor built with NewPartialMonitor instead checks the partial-order
// contract of the conflict-aware (genmcast) protocol: validity, exactly-once
// and the stamp invariants are unchanged, but per-process delivery order is
// only required between *conflicting* deliveries — every pair of conflicting
// deliveries must appear in stamp order at every process that delivers both,
// while commuting deliveries may interleave freely (so the strict
// stamp-monotonicity and group gap-freedom checks do not apply).
type Monitor struct {
	top *mcast.Topology
	// msgs holds what is known of each message: its submission, its stamp
	// and who delivered it.
	msgs      map[mcast.MsgID]*msgState
	stampUsed map[stampKey]mcast.MsgID
	// procs is each process's delivery state, indexed by pid.
	procs []monProc
	// groupLog[g] is group g's canonical delivery sequence, grown by
	// whichever member is furthest ahead.
	groupLog [][]groupEntry

	// conflicts is the conflict relation over delivered payloads in
	// partial-order mode (NewPartialMonitor), nil in total-order mode.
	conflicts func(a, b mcast.AppMsg) bool

	errs errList
}

// monProc is the monitor's state of one process.
type monProc struct {
	last    stampKey // the stamp of its latest delivery, in total-order mode
	hasLast bool
	pos     int // its index into its group's log
	// plog is its full delivery log in partial-order mode: every new
	// delivery is checked for stamp order against all prior conflicting
	// deliveries at the process.
	plog []pdeliv
}

type pdeliv struct {
	stamp stampKey
	msg   mcast.AppMsg
}

type stampKey struct {
	gts mcast.Timestamp
	sub int
}

type groupEntry struct {
	id    mcast.MsgID
	stamp stampKey
}

// NewMonitor builds an empty monitor over the topology.
func NewMonitor(top *mcast.Topology) *Monitor {
	return &Monitor{
		top:       top,
		msgs:      make(map[mcast.MsgID]*msgState),
		stampUsed: make(map[stampKey]mcast.MsgID),
		procs:     make([]monProc, top.NumReplicas()),
		groupLog:  make([][]groupEntry, top.NumGroups()),
	}
}

// NewPartialMonitor builds a monitor for the conflict-aware delivery
// contract: conflicting deliveries must be stamp-ordered at every common
// process, commuting deliveries are unconstrained. A nil conflicts relation
// treats every pair as conflicting (ordering every pair without requiring
// the strict per-process sequence).
func NewPartialMonitor(top *mcast.Topology, conflicts func(a, b mcast.AppMsg) bool) *Monitor {
	mo := NewMonitor(top)
	if conflicts == nil {
		conflicts = func(a, b mcast.AppMsg) bool { return true }
	}
	mo.conflicts = conflicts
	return mo
}

// msg returns id's state, adding it if it is new.
func (mo *Monitor) msg(id mcast.MsgID) *msgState {
	m := mo.msgs[id]
	if m == nil {
		m = &msgState{id: id}
		mo.msgs[id] = m
	}
	return m
}

// NoteSubmit records that sender multicast m.
func (mo *Monitor) NoteSubmit(sender mcast.ProcessID, m mcast.AppMsg) {
	if st := mo.msg(m.ID); !st.submitted {
		st.info, st.submitted = submitInfo{sender: sender, dest: m.Dest.Clone()}, true
	}
}

// NoteDelivery checks one delivery at process p against every continuous
// invariant, accumulating violations (retrieve them with Errs).
func (mo *Monitor) NoteDelivery(p mcast.ProcessID, d mcast.Delivery) {
	id := d.Msg.ID
	st := stampKey{gts: d.GTS, sub: d.Sub}
	m := mo.msg(id)
	mo.errs.add(m.validity(mo.top, p))
	if m.by.Has(p) {
		mo.fail("integrity: p%d delivered %v twice", p, id)
		return // the sequence checks below would only cascade
	}
	m.by = m.by.Add(p)

	if int(p) >= len(mo.procs) {
		mo.procs = append(mo.procs, make([]monProc, int(p)+1-len(mo.procs))...)
	}
	pr := &mo.procs[p]
	if mo.conflicts == nil {
		if pr.hasLast && !less(pr.last, st) {
			mo.fail("gts: p%d delivered %v with (GTS,sub) (%v,%d) not above previous (%v,%d)",
				p, id, st.gts, st.sub, pr.last.gts, pr.last.sub)
		}
		pr.last, pr.hasLast = st, true
	}

	mo.errs.add(m.stampAt(p, st, mo.stampUsed))

	if mo.conflicts != nil {
		// Partial order: every prior conflicting delivery at p must carry a
		// smaller stamp. Commuting deliveries may interleave freely, so the
		// strict sequence and gap checks below do not apply.
		for _, prev := range pr.plog {
			if less(st, prev.stamp) && mo.conflicts(prev.msg, d.Msg) {
				mo.fail("order: p%d delivered conflicting %v (GTS,sub) (%v,%d) after %v (%v,%d) — stamp order inverted",
					p, id, st.gts, st.sub, prev.msg.ID, prev.stamp.gts, prev.stamp.sub)
			}
		}
		pr.plog = append(pr.plog, pdeliv{stamp: st, msg: d.Msg.Clone()})
		return
	}

	// Gap-freedom: p's next delivery must be the next entry of its group's
	// canonical log (extending the log if p is the frontier member).
	g := mo.top.GroupOf(p)
	if g == mcast.NoGroup {
		return // validity violation reported above
	}
	i := pr.pos
	log := mo.groupLog[g]
	if i < len(log) {
		if log[i].id != id {
			mo.fail("gap: p%d delivered %v at group position %d where %v (GTS %v) was delivered by its peers",
				p, id, i, log[i].id, log[i].stamp.gts)
		}
	} else {
		mo.groupLog[g] = append(log, groupEntry{id: id, stamp: st})
	}
	pr.pos = i + 1
}

// Errs returns every violation observed so far, in detection order.
func (mo *Monitor) Errs() []error { return mo.errs }

func (mo *Monitor) fail(format string, args ...any) {
	mo.errs.add(fmt.Errorf(format, args...))
}

func less(a, b stampKey) bool {
	if a.gts != b.gts {
		return a.gts.Less(b.gts)
	}
	return a.sub < b.sub
}
