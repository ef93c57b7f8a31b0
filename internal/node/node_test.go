package node_test

import (
	"testing"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/wal"
)

func TestEffectsCollectAndReset(t *testing.T) {
	var fx node.Effects
	fx.Send(1, msgs.Heartbeat{Group: 0})
	fx.SendAll([]mcast.ProcessID{2, 3}, msgs.Heartbeat{Group: 0})
	fx.Deliver(mcast.Delivery{GTS: mcast.Timestamp{Time: 1}, Msg: mcast.AppMsg{Dest: mcast.NewGroupSet(0), Payload: []byte("x")}})
	fx.SetTimer(time.Second, node.TimerRetry, 42)
	fx.Persist(wal.Entry{Kind: wal.EntryPrune, IDs: []mcast.MsgID{mcast.MakeMsgID(1, 1)}})
	// SendAll collapses into ONE fan-out Send carrying both recipients.
	if len(fx.Sends) != 2 || len(fx.Deliveries) != 1 || len(fx.Timers) != 1 {
		t.Fatalf("effects = %d sends, %d deliveries, %d timers",
			len(fx.Sends), len(fx.Deliveries), len(fx.Timers))
	}
	if fx.Sends[0].NumRecipients() != 1 || fx.Sends[0].Recipient(0) != 1 {
		t.Errorf("unicast send wrong: %+v", fx.Sends[0])
	}
	if fx.Sends[1].NumRecipients() != 2 || fx.Sends[1].Recipient(0) != 2 || fx.Sends[1].Recipient(1) != 3 {
		t.Errorf("SendAll targets wrong: %v", fx.Sends)
	}
	if fx.Timers[0] != (node.SetTimer{After: time.Second, Kind: node.TimerRetry, Data: 42}) {
		t.Errorf("timer = %+v", fx.Timers[0])
	}
	fx.Reset()
	if len(fx.Sends) != 0 || len(fx.Deliveries) != 0 || len(fx.Timers) != 0 {
		t.Error("Reset did not clear effects")
	}
	// Capacity is retained for reuse, but no reference: a reused Effects
	// must not pin the messages, payloads or entries of an earlier call.
	if cap(fx.Sends) == 0 {
		t.Error("Reset dropped capacity")
	}
	for _, s := range fx.Sends[:cap(fx.Sends)] {
		if s.Msg != nil || s.Tos != nil {
			t.Errorf("Reset left a send reference behind: %+v", s)
		}
	}
	for _, d := range fx.Deliveries[:cap(fx.Deliveries)] {
		if d.Msg.Payload != nil || d.Msg.Dest != nil {
			t.Errorf("Reset left a delivery reference behind: %+v", d)
		}
	}
	for _, e := range fx.Persists[:cap(fx.Persists)] {
		if e.IDs != nil {
			t.Errorf("Reset left a persist-entry reference behind: %+v", e)
		}
	}
}

func TestSendGroupsSingleFanout(t *testing.T) {
	top := mcast.UniformTopology(3, 3)
	var fx node.Effects
	fx.SendGroups(top, mcast.NewGroupSet(0, 1, 2), msgs.Heartbeat{Group: 0})
	if len(fx.Sends) != 1 {
		t.Fatalf("sends = %d, want 1 (multi-group fan-out must be one Send)", len(fx.Sends))
	}
	s := fx.Sends[0]
	if s.NumRecipients() != 9 {
		t.Fatalf("recipients = %d, want 9", s.NumRecipients())
	}
	seen := map[mcast.ProcessID]bool{}
	for i := 0; i < s.NumRecipients(); i++ {
		seen[s.Recipient(i)] = true
	}
	for p := mcast.ProcessID(0); p < 9; p++ {
		if !seen[p] {
			t.Errorf("recipient %d missing", p)
		}
	}
	// A single-group fan-out aliases the topology's member slice: no copy.
	fx.Reset()
	fx.SendGroups(top, mcast.NewGroupSet(1), msgs.Heartbeat{Group: 1})
	if len(fx.Sends) != 1 || fx.Sends[0].NumRecipients() != 3 {
		t.Fatalf("single-group fan-out = %+v", fx.Sends)
	}
	if &fx.Sends[0].Tos[0] != &top.Members(1)[0] {
		t.Error("single-group fan-out should alias Topology.Members")
	}
}

func TestFuncAdapter(t *testing.T) {
	called := 0
	h := node.Func{PID: 7, F: func(in node.Input, fx *node.Effects) {
		called++
		if _, ok := in.(node.Start); ok {
			fx.Send(1, msgs.Heartbeat{})
		}
	}}
	if h.ID() != 7 {
		t.Errorf("ID = %d", h.ID())
	}
	var fx node.Effects
	h.Handle(node.Start{}, &fx)
	h.Handle(node.Timer{Kind: node.TimerGC}, &fx)
	if called != 2 || len(fx.Sends) != 1 {
		t.Errorf("called=%d sends=%d", called, len(fx.Sends))
	}
}

func TestInputTypes(t *testing.T) {
	// Compile-time coverage that all input kinds satisfy the interface and
	// can be distinguished by type switch.
	inputs := []node.Input{
		node.Start{},
		node.Recv{From: 1, Msg: msgs.Heartbeat{}},
		node.Timer{Kind: node.TimerSuspect, Data: 9},
		node.Submit{Msg: mcast.AppMsg{ID: mcast.MakeMsgID(1, 1)}},
	}
	var kinds []string
	for _, in := range inputs {
		switch in.(type) {
		case node.Start:
			kinds = append(kinds, "start")
		case node.Recv:
			kinds = append(kinds, "recv")
		case node.Timer:
			kinds = append(kinds, "timer")
		case node.Submit:
			kinds = append(kinds, "submit")
		}
	}
	if len(kinds) != 4 {
		t.Fatalf("kinds = %v", kinds)
	}
}
