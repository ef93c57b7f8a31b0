package rsm_test

import (
	"testing"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/rsm"
)

func app(seq uint32, dest ...mcast.GroupID) mcast.AppMsg {
	return mcast.AppMsg{ID: mcast.MakeMsgID(9, seq), Dest: mcast.NewGroupSet(dest...)}
}

func ts(t uint64, g mcast.GroupID) mcast.Timestamp { return mcast.Timestamp{Time: t, Group: g} }

func TestApplyAssignClock(t *testing.T) {
	m := rsm.New(0)
	lts1, fresh := m.ApplyAssignClock(app(1, 0))
	if !fresh || lts1 != ts(1, 0) {
		t.Fatalf("first assign = %v, %v", lts1, fresh)
	}
	lts2, _ := m.ApplyAssignClock(app(2, 0))
	if lts2 != ts(2, 0) {
		t.Fatalf("second assign = %v", lts2)
	}
	// Idempotent: re-assigning returns the stored timestamp.
	ltsDup, fresh := m.ApplyAssignClock(app(1, 0))
	if fresh || ltsDup != lts1 {
		t.Fatalf("duplicate assign = %v, %v", ltsDup, fresh)
	}
	if m.Clock() != 2 {
		t.Errorf("clock = %d", m.Clock())
	}
	if m.Phase(app(1, 0).ID) != msgs.PhaseProposed {
		t.Errorf("phase = %v", m.Phase(app(1, 0).ID))
	}
}

func TestApplyAssignCollisionRemap(t *testing.T) {
	m := rsm.New(0)
	// A speculative leader issued (1,g0) and it applied.
	lts1, _ := m.ApplyAssign(app(1, 0), ts(1, 0))
	if lts1 != ts(1, 0) {
		t.Fatalf("lts1 = %v", lts1)
	}
	// A different leader (post-recovery) also issued (1,g0) for another
	// message: the machine must remap it to keep timestamps unique.
	lts2, fresh := m.ApplyAssign(app(2, 0), ts(1, 0))
	if !fresh {
		t.Fatal("second assign not fresh")
	}
	if lts2 == lts1 {
		t.Fatal("collision not remapped")
	}
	if lts2 != ts(2, 0) {
		t.Errorf("remapped lts = %v, want (2,g0)", lts2)
	}
	// A low-but-unique timestamp is kept as-is (FastCast semantics).
	m2 := rsm.New(0)
	m2.ApplyAssign(app(1, 0), ts(5, 0))
	low, _ := m2.ApplyAssign(app(2, 0), ts(3, 0))
	if low != ts(3, 0) {
		t.Errorf("unique low timestamp remapped to %v", low)
	}
}

func TestApplyCommitAndDeliveryRule(t *testing.T) {
	m := rsm.New(0)
	a, b := app(1, 0), app(2, 0)
	m.ApplyAssignClock(a) // lts (1,g0)
	m.ApplyAssignClock(b) // lts (2,g0)
	// Commit b first with gts (5,g1): blocked by pending a (lts (1,g0)).
	gtsB, changed := m.ApplyCommit(b.ID, []msgs.GroupTS{{Group: 0, TS: ts(2, 0)}, {Group: 1, TS: ts(5, 1)}})
	if !changed || gtsB != ts(5, 1) {
		t.Fatalf("commit b = %v, %v", gtsB, changed)
	}
	if _, _, ok := m.Deliverable(); ok {
		t.Fatal("b deliverable despite lower pending a")
	}
	// Commit a with gts (1,g0): both become deliverable, a first.
	m.ApplyCommit(a.ID, []msgs.GroupTS{{Group: 0, TS: ts(1, 0)}})
	d1, ok := m.Deliver()
	if !ok || d1.Msg.ID != a.ID {
		t.Fatalf("first delivery = %v, %v", d1, ok)
	}
	d2, ok := m.Deliver()
	if !ok || d2.Msg.ID != b.ID || d2.GTS != ts(5, 1) {
		t.Fatalf("second delivery = %v, %v", d2, ok)
	}
	if _, ok := m.Deliver(); ok {
		t.Fatal("extra delivery")
	}
	if m.Clock() != 5 {
		t.Errorf("clock = %d, want 5 (advanced past gts)", m.Clock())
	}
}

func TestApplyCommitUnknownMessageIgnored(t *testing.T) {
	m := rsm.New(0)
	if _, changed := m.ApplyCommit(app(1, 0).ID, []msgs.GroupTS{{Group: 0, TS: ts(1, 0)}}); changed {
		t.Fatal("commit of unassigned message changed state")
	}
}

func TestRecommitUpdatesUndelivered(t *testing.T) {
	m := rsm.New(0)
	a := app(1, 0, 1)
	m.ApplyAssignClock(a)
	m.ApplyCommit(a.ID, []msgs.GroupTS{{Group: 0, TS: ts(1, 0)}, {Group: 1, TS: ts(3, 1)}})
	// Speculation correction: re-commit with a different vector.
	gts, changed := m.ApplyCommit(a.ID, []msgs.GroupTS{{Group: 0, TS: ts(1, 0)}, {Group: 1, TS: ts(7, 1)}})
	if !changed || gts != ts(7, 1) {
		t.Fatalf("recommit = %v, %v", gts, changed)
	}
	// After delivery, commits are frozen.
	if _, ok := m.Deliver(); !ok {
		t.Fatal("not deliverable")
	}
	if _, changed := m.ApplyCommit(a.ID, []msgs.GroupTS{{Group: 0, TS: ts(9, 0)}}); changed {
		t.Fatal("commit after delivery changed state")
	}
}

func TestPendingAndCommittedViews(t *testing.T) {
	m := rsm.New(0)
	a, b, c := app(1, 0), app(2, 0), app(3, 0)
	m.ApplyAssignClock(a)
	m.ApplyAssignClock(b)
	m.ApplyAssignClock(c)
	m.ApplyCommit(c.ID, []msgs.GroupTS{{Group: 0, TS: ts(3, 0)}})
	if got := len(m.Pending()); got != 2 {
		t.Errorf("pending = %d, want 2", got)
	}
	if got := len(m.CommittedUndelivered()); got != 1 {
		t.Errorf("committed-undelivered = %d, want 1", got)
	}
	if gts, ok := m.GTS(c.ID); !ok || gts != ts(3, 0) {
		t.Errorf("GTS = %v, %v", gts, ok)
	}
	if _, ok := m.GTS(a.ID); ok {
		t.Error("GTS of uncommitted message reported")
	}
	m.MarkDelivered(c.ID, ts(3, 0))
	// A DELIVER that outran its commit in the log still orders the message:
	// b is marked delivered at the DELIVER's timestamp while only assigned,
	// and the commit that follows is ignored.
	m.MarkDelivered(b.ID, ts(2, 0))
	m.ApplyCommit(b.ID, []msgs.GroupTS{{Group: 0, TS: ts(2, 0)}})
	if gts, ok := m.GTS(b.ID); !ok || gts != ts(2, 0) {
		t.Errorf("GTS of the message delivered ahead of its commit = %v, %v", gts, ok)
	}
	if got := m.Delivered(); len(got) != 2 || got[0] != b.ID || got[1] != c.ID {
		t.Errorf("delivered = %v, want b then c (ascending global timestamp)", got)
	}
	if !m.IsDelivered(c.ID) || m.IsDelivered(a.ID) {
		t.Errorf("IsDelivered(c) = %v, IsDelivered(a) = %v", m.IsDelivered(c.ID), m.IsDelivered(a.ID))
	}
	if lts, ok := m.LTS(b.ID); !ok || lts != ts(2, 0) {
		t.Errorf("LTS = %v, %v", lts, ok)
	}
	if _, ok := m.App(b.ID); !ok {
		t.Error("App lookup failed")
	}
}
