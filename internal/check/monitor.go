// Package check verifies the atomic multicast specification of paper §II
// over recorded histories: Validity, Integrity, Ordering (existence of a
// global total order consistent with every process's delivery sequence)
// and Termination at quiescence, together with the timestamp invariants
// (agreement and uniqueness of timestamps, Fig. 6 Invariants 3(b) and 4)
// and gap-freedom within each group. Monitor checks delivery histories;
// WbAudit checks the white-box protocol's messages.
package check

import (
	"fmt"

	"wbcast/internal/mcast"
)

// Monitor is the one history checker, of simulated runs and of kv
// histories alike. It checks every delivery as it is recorded, in O(1)
// amortised per delivery, so an invariant violation is caught at the
// moment (and virtual time) it occurs rather than at the end of the run.
// A delivery costs one lookup in a map keyed by message, one more keyed by
// stamp for a message's first delivery, and indexing into slices by
// number, process and group; appends grow those slices and maps by
// doubling. It checks, continuously:
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
// The Sub component sub-sequences payloads that were ordered as one
// protocol-level batch and therefore share a GTS (internal/batch);
// unbatched histories have Sub ≡ 0, reducing these to the paper's pure
// GTS invariants. Check adds the two properties that need the whole
// history: Ordering, as the acyclicity of the delivery precedence graph,
// and Termination at quiescence.
//
// A monitor built with a conflict relation instead checks the
// partial-order contract of the conflict-aware (genmcast) protocol:
// validity, exactly-once, the stamp invariants and Termination are
// unchanged, but per-process delivery order is only required between
// *conflicting* deliveries — every pair of conflicting deliveries must
// appear in stamp order at every process that delivers both, while
// commuting deliveries may interleave freely (so the strict
// stamp-monotonicity and group gap-freedom checks do not apply).
type Monitor struct {
	groupOf func(mcast.ProcessID) mcast.GroupID
	// conflicts is the conflict relation in partial-order mode, nil in
	// total-order mode.
	conflicts func(a, b mcast.AppMsg) bool
	// num numbers the messages 0, 1, … in the order the monitor first
	// meets them; msgs holds each one's state by number.
	num       map[mcast.MsgID]int32
	msgs      []msgState
	stampUsed map[stampKey]int32
	// procs is each process's delivery state, indexed by pid.
	procs []monProc
	// groupLog[g] is group g's canonical delivery sequence, grown by
	// whichever member is furthest ahead.
	groupLog [][]int32
	errs     errList
}

// msgState is what the monitor knows of one message.
type msgState struct {
	id        mcast.MsgID
	sender    mcast.ProcessID
	dest      mcast.GroupSet // as submitted
	submitted bool
	by        mcast.ProcSet // the processes that delivered it
	stamp     stampKey      // the stamp of its first delivery
	// msg is the message as first delivered, kept in partial-order mode
	// for the conflict relation.
	msg mcast.AppMsg
}

// monProc is the monitor's state of one process.
type monProc struct {
	group mcast.GroupID
	// seq is its delivery sequence by message number, duplicates included:
	// the Ordering graph's input.
	seq  []int32
	last stampKey // the stamp of its latest delivery, in total-order mode
	pos  int      // its index into its group's log
}

type stampKey struct {
	gts mcast.Timestamp
	sub int
}

// NewMonitor builds an empty monitor. groupOf maps each process to its
// group (mcast.NoGroup for a process in none). A nil conflicts checks the
// total-order contract; a non-nil one the partial-order contract over that
// relation.
func NewMonitor(groupOf func(mcast.ProcessID) mcast.GroupID, conflicts func(a, b mcast.AppMsg) bool) *Monitor {
	return &Monitor{
		groupOf:   groupOf,
		conflicts: conflicts,
		num:       make(map[mcast.MsgID]int32),
		stampUsed: make(map[stampKey]int32),
	}
}

// number returns id's number, adding the message if it is new.
func (mo *Monitor) number(id mcast.MsgID) int32 {
	n, ok := mo.num[id]
	if !ok {
		n = int32(len(mo.msgs))
		mo.num[id] = n
		mo.msgs = append(mo.msgs, msgState{id: id})
	}
	return n
}

// proc returns p's state, adding the processes up to p if they are new.
func (mo *Monitor) proc(p mcast.ProcessID) *monProc {
	for int(p) >= len(mo.procs) {
		mo.procs = append(mo.procs, monProc{group: mo.groupOf(mcast.ProcessID(len(mo.procs)))})
	}
	return &mo.procs[p]
}

// NoteSubmit records that sender multicast m.
func (mo *Monitor) NoteSubmit(sender mcast.ProcessID, m mcast.AppMsg) {
	if st := &mo.msgs[mo.number(m.ID)]; !st.submitted {
		st.sender, st.dest, st.submitted = sender, m.Dest.Clone(), true
	}
}

// NoteDelivery checks one delivery at process p against every continuous
// invariant, accumulating violations (retrieve them with Errs).
func (mo *Monitor) NoteDelivery(p mcast.ProcessID, d mcast.Delivery) {
	pr := mo.proc(p)
	n := mo.number(d.Msg.ID)
	pr.seq = append(pr.seq, n)
	m := &mo.msgs[n]
	id, st := m.id, stampKey{gts: d.GTS, sub: d.Sub}
	if !m.submitted {
		mo.fail("validity: %v delivered at p%d but never multicast", id, p)
	} else if pr.group == mcast.NoGroup || !m.dest.Contains(pr.group) {
		mo.fail("validity: p%d (group %d) delivered %v addressed to %v", p, pr.group, id, m.dest)
	}
	if m.by.Has(p) {
		mo.fail("integrity: p%d delivered %v twice", p, id)
		return // the sequence checks below would only cascade
	}
	first := m.by == nil
	m.by = m.by.Add(p)

	if mo.conflicts != nil {
		// Partial order: every prior conflicting delivery at p must carry a
		// smaller stamp. Commuting deliveries may interleave freely, so the
		// strict sequence and gap checks do not apply.
		if first {
			m.msg = d.Msg.Clone()
		}
		for _, k := range pr.seq[:len(pr.seq)-1] {
			prev := &mo.msgs[k]
			if less(st, prev.stamp) && mo.conflicts(prev.msg, d.Msg) {
				mo.fail("order: p%d delivered conflicting %v (GTS,sub) (%v,%d) after %v (%v,%d) — stamp order inverted",
					p, id, st.gts, st.sub, prev.id, prev.stamp.gts, prev.stamp.sub)
			}
		}
	} else {
		if len(pr.seq) > 1 && !less(pr.last, st) {
			mo.fail("gts: p%d delivered %v with (GTS,sub) (%v,%d) not above previous (%v,%d)",
				p, id, st.gts, st.sub, pr.last.gts, pr.last.sub)
		}
		pr.last = st
		mo.gap(p, pr, n)
	}

	// Stamp agreement (Invariant 3b) and uniqueness (Invariant 4).
	if !first {
		if m.stamp != st {
			mo.fail("gts: %v has (GTS,sub) (%v,%d) at p%d but (%v,%d) elsewhere (Invariant 3b)",
				id, st.gts, st.sub, p, m.stamp.gts, m.stamp.sub)
		}
		return
	}
	m.stamp = st
	other, clash := mo.stampUsed[st]
	mo.stampUsed[st] = n
	if clash && other != n {
		mo.fail("gts: %v and %v share (GTS,sub) (%v,%d) (Invariant 4)", id, mo.msgs[other].id, st.gts, st.sub)
	}
}

// gap checks that message n, p's next delivery, is the next entry of its
// group's canonical log, extending the log if p is the frontier member.
func (mo *Monitor) gap(p mcast.ProcessID, pr *monProc, n int32) {
	g := pr.group
	if g == mcast.NoGroup {
		return // validity violation reported above
	}
	for int(g) >= len(mo.groupLog) {
		mo.groupLog = append(mo.groupLog, nil)
	}
	i := pr.pos
	if log := mo.groupLog[g]; i < len(log) {
		if log[i] != n {
			peer := &mo.msgs[log[i]]
			mo.fail("gap: p%d delivered %v at group position %d where %v (GTS %v) was delivered by its peers",
				p, mo.msgs[n].id, i, peer.id, peer.stamp.gts)
		}
	} else {
		mo.groupLog[g] = append(log, n)
	}
	pr.pos = i + 1
}

// Errs returns every violation observed so far, in detection order.
func (mo *Monitor) Errs() []error { return mo.errs }

// Check returns every violation of the whole history: those Errs holds,
// then Ordering's, then — when members is non-nil, at quiescence —
// Termination's. members lists each group's processes; crashed marks the
// processes (replicas and clients) that were crashed at the end of the
// run, of which Termination is not required. Check records nothing, so a
// run may be checked again after more deliveries.
func (mo *Monitor) Check(members func(mcast.GroupID) []mcast.ProcessID, crashed map[mcast.ProcessID]bool) []error {
	errs := append(errList(nil), mo.errs...)
	mo.ordering(&errs)
	if members != nil {
		mo.termination(&errs, members, crashed)
	}
	return errs
}

// ordering builds the precedence graph (m1 precedes m2 when some process
// delivers m1 before m2) over each process's delivery sequence and reports
// cycles: each pair two processes deliver in opposite orders that the
// graph links directly (in total order, a pair adjacent at both), then how
// many messages lie on or behind a cycle.
//
// In total order the graph holds only each process's chain of consecutive
// deliveries, Σ nₚ edges rather than Σ nₚ²/2. A process's precedence is the
// transitive closure of its chain, so the union of the closures and the
// union of the chains reach the same messages from every message: one is
// acyclic exactly when the other is, and Kahn's algorithm leaves the same
// messages unvisited in both. With a conflict relation the graph omits
// commuting pairs — processes may disagree on their relative order without
// creating a cycle — and that relation is not transitive, so every
// conflicting pair keeps its edge.
func (mo *Monitor) ordering(errs *errList) {
	// edges maps the edge a → b, keyed a<<32 | b by message number, to the
	// first process that delivered a before b.
	edges := make(map[uint64]mcast.ProcessID, len(mo.msgs))
	adj := make([][]int32, len(mo.msgs))
	indeg := make([]int32, len(mo.msgs))
	for p := range mo.procs {
		seq := mo.procs[p].seq
		for i := range seq {
			for j := i + 1; j < len(seq); j++ {
				if mo.conflicts == nil && j > i+1 {
					break // the chain edge is enough (see above)
				}
				a, b := seq[i], seq[j]
				if a == b {
					continue // integrity violation reported already
				}
				if mo.conflicts != nil && !mo.conflicts(mo.msgs[a].msg, mo.msgs[b].msg) {
					continue // commuting pair: order unconstrained
				}
				if q, rev := edges[uint64(b)<<32|uint64(a)]; rev {
					errs.add(fmt.Errorf("ordering: p%d delivers %v before %v but p%d delivers them in the opposite order",
						p, mo.msgs[a].id, mo.msgs[b].id, q))
				}
				if _, dup := edges[uint64(a)<<32|uint64(b)]; !dup {
					edges[uint64(a)<<32|uint64(b)] = mcast.ProcessID(p)
					adj[a] = append(adj[a], b)
					indeg[b]++
				}
			}
		}
	}
	// Kahn's algorithm over the delivered messages: leftover nodes lie on a
	// cycle or behind one.
	var queue []int32
	nodes := 0
	for n := range mo.msgs {
		if mo.msgs[n].by != nil {
			nodes++
			if indeg[n] == 0 {
				queue = append(queue, int32(n))
			}
		}
	}
	visited := 0
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		visited++
		for _, m := range adj[n] {
			if indeg[m]--; indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if visited != nodes {
		errs.add(fmt.Errorf("ordering: delivery precedence graph has a cycle (%d of %d messages in cycles)", nodes-visited, nodes))
	}
}

// termination verifies the paper's Termination property at quiescence. A
// message is required everywhere it is addressed once it was delivered
// anywhere or multicast by a correct client; one delivered but never
// multicast is a validity violation, reported already.
func (mo *Monitor) termination(errs *errList, members func(mcast.GroupID) []mcast.ProcessID, crashed map[mcast.ProcessID]bool) {
	for n := range mo.msgs {
		m := &mo.msgs[n]
		if !m.submitted || (m.by == nil && crashed[m.sender]) {
			continue
		}
		for _, g := range m.dest {
			for _, p := range members(g) {
				if !crashed[p] && !m.by.Has(p) {
					errs.add(fmt.Errorf("termination: correct p%d (group %d) never delivered %v", p, g, m.id))
				}
			}
		}
	}
}

func (mo *Monitor) fail(format string, args ...any) {
	mo.errs.add(fmt.Errorf(format, args...))
}

func less(a, b stampKey) bool {
	if a.gts != b.gts {
		return a.gts.Less(b.gts)
	}
	return a.sub < b.sub
}

// errList collects violations.
type errList []error

func (l *errList) add(err error) {
	if err != nil {
		*l = append(*l, err)
	}
}
