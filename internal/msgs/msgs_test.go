package msgs_test

import (
	"testing"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
)

func TestKindStrings(t *testing.T) {
	kinds := []msgs.Kind{
		msgs.KindMulticast, msgs.KindClientReply, msgs.KindPropose,
		msgs.KindAccept, msgs.KindAcceptAck, msgs.KindDeliver,
		msgs.KindNewLeader, msgs.KindNewLeaderAck, msgs.KindNewState,
		msgs.KindNewStateAck, msgs.KindHeartbeat, msgs.KindHeartbeatAck,
		msgs.KindPrune, msgs.KindGCMark, msgs.KindP1a, msgs.KindP1b,
		msgs.KindP2a, msgs.KindP2b, msgs.KindLearn, msgs.KindConfirm,
		msgs.KindBatch, msgs.KindClientReplies,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if msgs.Kind(200).String() != "Kind(200)" {
		t.Errorf("unknown kind = %q", msgs.Kind(200).String())
	}
	// Kind numbers are the wire format: slot 22 stays reserved.
	if msgs.KindBatch != 21 || msgs.KindClientReplies != 23 || msgs.Kind(22).String() != "Kind(22)" {
		t.Errorf("BATCH = %d, CLIENT_REPLIES = %d, slot 22 = %q; want 21, 23 and no kind", msgs.KindBatch, msgs.KindClientReplies, msgs.Kind(22))
	}
}

func TestPhaseStrings(t *testing.T) {
	want := map[msgs.Phase]string{
		msgs.PhaseStart:     "START",
		msgs.PhaseProposed:  "PROPOSED",
		msgs.PhaseAccepted:  "ACCEPTED",
		msgs.PhaseCommitted: "COMMITTED",
	}
	for ph, s := range want {
		if ph.String() != s {
			t.Errorf("%d.String() = %q, want %q", ph, ph.String(), s)
		}
	}
}

func TestMaxGroupTS(t *testing.T) {
	if !msgs.MaxGroupTS(nil).IsZero() {
		t.Error("empty vector should give ⊥")
	}
	v := []msgs.GroupTS{
		{Group: 0, TS: mcast.Timestamp{Time: 3, Group: 0}},
		{Group: 1, TS: mcast.Timestamp{Time: 3, Group: 1}},
		{Group: 2, TS: mcast.Timestamp{Time: 1, Group: 2}},
	}
	got := msgs.MaxGroupTS(v)
	if got != (mcast.Timestamp{Time: 3, Group: 1}) {
		t.Errorf("MaxGroupTS = %v", got)
	}
}

func TestConcerns(t *testing.T) {
	id := mcast.MakeMsgID(3, 7)
	app := mcast.AppMsg{ID: id, Dest: mcast.NewGroupSet(0)}
	concerning := []msgs.Message{
		msgs.Multicast{M: app},
		msgs.ClientReply{ID: id},
		msgs.Propose{ID: id},
		msgs.Confirm{ID: id},
		msgs.Accept{M: app},
		msgs.AcceptAck{ID: id},
		msgs.Deliver{ID: id},
		msgs.P2a{Cmd: msgs.Command{Op: msgs.CmdAssign, M: app}},
		msgs.Learn{Cmd: msgs.Command{Op: msgs.CmdCommit, ID: id}},
		msgs.ClientReplies{IDs: []mcast.MsgID{id, mcast.MakeMsgID(3, 8)}},
	}
	for _, m := range concerning {
		c, ok := m.(msgs.Concerner)
		if !ok {
			t.Errorf("%v does not implement Concerner", m.Kind())
			continue
		}
		got, ok := c.Concerns()
		if !ok || got != id {
			t.Errorf("%v.Concerns() = %v, %v", m.Kind(), got, ok)
		}
	}
	// Noop commands and recovery/election traffic concern no message.
	if _, ok := (msgs.P2a{Cmd: msgs.Command{Op: msgs.CmdNoop}}).Concerns(); ok {
		t.Error("noop P2a claims to concern a message")
	}
	if _, ok := (msgs.ClientReplies{}).Concerns(); ok {
		t.Error("empty ClientReplies claims to concern a message")
	}
	if _, ok := interface{}(msgs.Heartbeat{}).(msgs.Concerner); ok {
		t.Error("Heartbeat should not implement Concerner")
	}
	if _, ok := interface{}(msgs.NewLeader{}).(msgs.Concerner); ok {
		t.Error("NewLeader should not implement Concerner")
	}
}

func TestCmdMsgID(t *testing.T) {
	id := mcast.MakeMsgID(1, 2)
	if got, ok := (msgs.Command{Op: msgs.CmdAssign, M: mcast.AppMsg{ID: id}}).CmdMsgID(); !ok || got != id {
		t.Errorf("assign CmdMsgID = %v, %v", got, ok)
	}
	if got, ok := (msgs.Command{Op: msgs.CmdCommit, ID: id}).CmdMsgID(); !ok || got != id {
		t.Errorf("commit CmdMsgID = %v, %v", got, ok)
	}
	if _, ok := (msgs.Command{Op: msgs.CmdNoop}).CmdMsgID(); ok {
		t.Error("noop CmdMsgID should be false")
	}
}
