package check

import (
	"strings"
	"testing"

	"wbcast/internal/mcast"
)

func monitorFixture() (*Monitor, []mcast.AppMsg) {
	top := mcast.UniformTopology(2, 3)
	mo := NewMonitor(top.GroupOf, nil)
	msgs := make([]mcast.AppMsg, 3)
	for i := range msgs {
		msgs[i] = mcast.AppMsg{ID: mcast.MakeMsgID(9, uint32(i+1)), Dest: mcast.NewGroupSet(0, 1)}
		mo.NoteSubmit(9, msgs[i])
	}
	return mo, msgs
}

func del(m mcast.AppMsg, t uint64) mcast.Delivery {
	return mcast.Delivery{Msg: m, GTS: mcast.Timestamp{Time: t, Group: 0}}
}

func firstErr(mo *Monitor) string {
	if errs := mo.Errs(); len(errs) > 0 {
		return errs[0].Error()
	}
	return ""
}

func TestMonitorCleanRun(t *testing.T) {
	mo, ms := monitorFixture()
	for _, p := range []mcast.ProcessID{0, 1, 3} {
		for i, m := range ms {
			mo.NoteDelivery(p, del(m, uint64(i+1)))
		}
	}
	if e := firstErr(mo); e != "" {
		t.Fatalf("clean run flagged: %v", e)
	}
}

func TestMonitorCatchesDuplicate(t *testing.T) {
	mo, ms := monitorFixture()
	mo.NoteDelivery(0, del(ms[0], 1))
	mo.NoteDelivery(0, del(ms[0], 1))
	if e := firstErr(mo); !strings.Contains(e, "integrity") {
		t.Fatalf("duplicate not flagged: %q", e)
	}
}

func TestMonitorCatchesGap(t *testing.T) {
	mo, ms := monitorFixture()
	// p0 establishes the group-0 log [m0, m1]; p1 skips m0.
	mo.NoteDelivery(0, del(ms[0], 1))
	mo.NoteDelivery(0, del(ms[1], 2))
	mo.NoteDelivery(1, del(ms[1], 2))
	if e := firstErr(mo); !strings.Contains(e, "gap") {
		t.Fatalf("gap not flagged: %q", e)
	}
}

func TestMonitorCatchesStampDisagreement(t *testing.T) {
	mo, ms := monitorFixture()
	mo.NoteDelivery(0, del(ms[0], 1))
	mo.NoteDelivery(3, del(ms[0], 2)) // different group, different GTS claim
	if e := firstErr(mo); !strings.Contains(e, "Invariant 3b") {
		t.Fatalf("stamp disagreement not flagged: %q", e)
	}
}

func TestMonitorCatchesStampReuse(t *testing.T) {
	mo, ms := monitorFixture()
	mo.NoteDelivery(0, del(ms[0], 1))
	mo.NoteDelivery(3, del(ms[1], 1)) // same (GTS, Sub) for another message
	if e := firstErr(mo); !strings.Contains(e, "Invariant 4") {
		t.Fatalf("stamp reuse not flagged: %q", e)
	}
}

func TestMonitorCatchesUnsubmittedAndMisaddressed(t *testing.T) {
	top := mcast.UniformTopology(2, 3)
	mo := NewMonitor(top.GroupOf, nil)
	ghost := mcast.AppMsg{ID: mcast.MakeMsgID(9, 99), Dest: mcast.NewGroupSet(0)}
	mo.NoteDelivery(0, del(ghost, 1))
	if e := firstErr(mo); !strings.Contains(e, "validity") {
		t.Fatalf("unsubmitted delivery not flagged: %q", e)
	}

	mo2 := NewMonitor(top.GroupOf, nil)
	only0 := mcast.AppMsg{ID: mcast.MakeMsgID(9, 1), Dest: mcast.NewGroupSet(0)}
	mo2.NoteSubmit(9, only0)
	mo2.NoteDelivery(3, del(only0, 1)) // p3 is in group 1, not addressed
	if e := firstErr(mo2); !strings.Contains(e, "validity") {
		t.Fatalf("misaddressed delivery not flagged: %q", e)
	}
}

// partialFixture builds a partial-order monitor over a first-byte conflict
// relation: payloads conflict iff their first bytes match. Messages a1, a2
// conflict with each other; b commutes with both.
func partialFixture() (*Monitor, mcast.AppMsg, mcast.AppMsg, mcast.AppMsg) {
	top := mcast.UniformTopology(2, 3)
	conflicts := func(x, y mcast.AppMsg) bool {
		return len(x.Payload) > 0 && len(y.Payload) > 0 && x.Payload[0] == y.Payload[0]
	}
	mo := NewMonitor(top.GroupOf, conflicts)
	mk := func(seq uint32, payload string) mcast.AppMsg {
		m := mcast.AppMsg{ID: mcast.MakeMsgID(9, seq), Dest: mcast.NewGroupSet(0, 1), Payload: []byte(payload)}
		mo.NoteSubmit(9, m)
		return m
	}
	return mo, mk(1, "a1"), mk(2, "a2"), mk(3, "b")
}

// TestPartialMonitorCatchesConflictingInversion: two destinations deliver a
// conflicting pair in opposite orders; the process that violates stamp
// order must be flagged.
func TestPartialMonitorCatchesConflictingInversion(t *testing.T) {
	mo, a1, a2, _ := partialFixture()
	mo.NoteDelivery(0, del(a1, 1))
	mo.NoteDelivery(0, del(a2, 2)) // p0: stamp order — fine
	mo.NoteDelivery(3, del(a2, 2))
	mo.NoteDelivery(3, del(a1, 1)) // p3: conflicting pair inverted
	if e := firstErr(mo); !strings.Contains(e, "stamp order inverted") {
		t.Fatalf("conflicting inversion not flagged: %q", e)
	}
}

// TestPartialMonitorAllowsCommutingReorder is the false-positive guard:
// commuting deliveries in different orders at different processes are the
// whole point of generic multicast and must not be flagged.
func TestPartialMonitorAllowsCommutingReorder(t *testing.T) {
	mo, a1, a2, b := partialFixture()
	// p0 delivers b (stamp 3) first, then the a's in stamp order.
	mo.NoteDelivery(0, del(b, 3))
	mo.NoteDelivery(0, del(a1, 1))
	mo.NoteDelivery(0, del(a2, 2))
	// p3 interleaves b between the a's; p4 delivers it last.
	mo.NoteDelivery(3, del(a1, 1))
	mo.NoteDelivery(3, del(b, 3))
	mo.NoteDelivery(3, del(a2, 2))
	mo.NoteDelivery(4, del(a1, 1))
	mo.NoteDelivery(4, del(a2, 2))
	mo.NoteDelivery(4, del(b, 3))
	if e := firstErr(mo); e != "" {
		t.Fatalf("commuting reorder falsely flagged: %q", e)
	}
}

// TestPartialMonitorNoGapCheck: in partial mode group members may expose
// genuinely different delivery sequences (commuting prefixes), so the
// strict per-group gap check must be off.
func TestPartialMonitorNoGapCheck(t *testing.T) {
	mo, a1, a2, b := partialFixture()
	mo.NoteDelivery(0, del(a1, 1))
	mo.NoteDelivery(0, del(a2, 2))
	mo.NoteDelivery(1, del(b, 3)) // p1 starts with a message p0 hasn't seen
	if e := firstErr(mo); e != "" {
		t.Fatalf("divergent commuting sequences falsely flagged: %q", e)
	}
}

// TestPartialMonitorKeepsStampInvariants: exactly-once, stamp agreement and
// stamp uniqueness are mode-independent and must survive the relaxation.
func TestPartialMonitorKeepsStampInvariants(t *testing.T) {
	mo, a1, _, _ := partialFixture()
	mo.NoteDelivery(0, del(a1, 1))
	mo.NoteDelivery(0, del(a1, 1))
	if e := firstErr(mo); !strings.Contains(e, "integrity") {
		t.Fatalf("duplicate not flagged in partial mode: %q", e)
	}

	mo2, b1, _, _ := partialFixture()
	mo2.NoteDelivery(0, del(b1, 1))
	mo2.NoteDelivery(3, del(b1, 2))
	if e := firstErr(mo2); !strings.Contains(e, "Invariant 3b") {
		t.Fatalf("stamp disagreement not flagged in partial mode: %q", e)
	}

	mo3, c1, c2, _ := partialFixture()
	mo3.NoteDelivery(0, del(c1, 1))
	mo3.NoteDelivery(3, del(c2, 1))
	if e := firstErr(mo3); !strings.Contains(e, "Invariant 4") {
		t.Fatalf("stamp reuse not flagged in partial mode: %q", e)
	}
}

// TestPartialMonitorNilRelationOrdersEverything: a conflict holder without
// a relation (the harness's genmcast adapter before one is installed) must
// mean all-conflict — any out-of-stamp-order pair is an inversion.
func TestPartialMonitorNilRelationOrdersEverything(t *testing.T) {
	top := mcast.UniformTopology(2, 3)
	mo := NewMonitor(top.GroupOf, new(mcast.ConflictHolder).Conflicts)
	m1 := mcast.AppMsg{ID: mcast.MakeMsgID(9, 1), Dest: mcast.NewGroupSet(0), Payload: []byte("x")}
	m2 := mcast.AppMsg{ID: mcast.MakeMsgID(9, 2), Dest: mcast.NewGroupSet(0), Payload: []byte("y")}
	mo.NoteSubmit(9, m1)
	mo.NoteSubmit(9, m2)
	mo.NoteDelivery(0, del(m2, 2))
	mo.NoteDelivery(0, del(m1, 1))
	if e := firstErr(mo); !strings.Contains(e, "stamp order inverted") {
		t.Fatalf("inversion under nil relation not flagged: %q", e)
	}
}
