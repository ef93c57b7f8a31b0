package client_test

import (
	"testing"
	"time"

	"wbcast/internal/client"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
)

func newClient(retry time.Duration, completions *[]mcast.MsgID) *client.Client {
	return client.New(client.Config{
		PID: 100,
		Contacts: func(g mcast.GroupID) []mcast.ProcessID {
			return []mcast.ProcessID{mcast.ProcessID(g * 10)} // leader guess
		},
		RetryContacts: func(g mcast.GroupID) []mcast.ProcessID {
			return []mcast.ProcessID{mcast.ProcessID(g * 10), mcast.ProcessID(g*10 + 1)}
		},
		Retry: retry,
		OnComplete: func(id mcast.MsgID) {
			*completions = append(*completions, id)
		},
	})
}

func submit(cl *client.Client, seq uint32, dest ...mcast.GroupID) (mcast.MsgID, *node.Effects) {
	m := mcast.AppMsg{ID: mcast.MakeMsgID(100, seq), Dest: mcast.NewGroupSet(dest...)}
	var fx node.Effects
	cl.Handle(node.Submit{Msg: m}, &fx)
	return m.ID, &fx
}

func TestSubmitSendsToContacts(t *testing.T) {
	var completions []mcast.MsgID
	cl := newClient(0, &completions)
	_, fx := submit(cl, 1, 0, 2)
	if len(fx.Sends) != 2 {
		t.Fatalf("sends = %d, want 2", len(fx.Sends))
	}
	if fx.Sends[0].To != 0 || fx.Sends[1].To != 20 {
		t.Errorf("targets = %d, %d", fx.Sends[0].To, fx.Sends[1].To)
	}
	if len(fx.Timers) != 0 {
		t.Error("timer armed with Retry=0")
	}
	if cl.Inflight() != 1 {
		t.Errorf("inflight = %d", cl.Inflight())
	}
}

func TestCompletionRequiresAllGroups(t *testing.T) {
	var completions []mcast.MsgID
	cl := newClient(0, &completions)
	id, _ := submit(cl, 1, 0, 1)
	var fx node.Effects
	cl.Handle(node.Recv{From: 0, Msg: msgs.ClientReply{ID: id, Group: 0}}, &fx)
	if len(completions) != 0 {
		t.Fatal("completed with one of two groups")
	}
	// Duplicate replies from the same group don't complete either.
	cl.Handle(node.Recv{From: 1, Msg: msgs.ClientReply{ID: id, Group: 0}}, &fx)
	if len(completions) != 0 {
		t.Fatal("completed on duplicate group reply")
	}
	cl.Handle(node.Recv{From: 10, Msg: msgs.ClientReply{ID: id, Group: 1}}, &fx)
	if len(completions) != 1 || completions[0] != id {
		t.Fatalf("completions = %v", completions)
	}
	if cl.Inflight() != 0 || cl.Completed() != 1 {
		t.Errorf("inflight=%d completed=%d", cl.Inflight(), cl.Completed())
	}
	// Late replies after completion are ignored.
	cl.Handle(node.Recv{From: 11, Msg: msgs.ClientReply{ID: id, Group: 1}}, &fx)
	if len(completions) != 1 {
		t.Error("late reply re-completed")
	}
}

func TestRetryUsesRetryContactsAndRearms(t *testing.T) {
	var completions []mcast.MsgID
	cl := newClient(time.Second, &completions)
	id, fx := submit(cl, 1, 1)
	if len(fx.Timers) != 1 || fx.Timers[0].Kind != node.TimerClient {
		t.Fatalf("timers = %v", fx.Timers)
	}
	var fx2 node.Effects
	cl.Handle(node.Timer{Kind: node.TimerClient, Data: uint64(id)}, &fx2)
	// Blanket retry: both members of group 1.
	if len(fx2.Sends) != 2 {
		t.Fatalf("retry sends = %d, want 2", len(fx2.Sends))
	}
	if len(fx2.Timers) != 1 {
		t.Fatal("retry did not re-arm")
	}
	// After completion, the stale timer is a no-op.
	var fx3 node.Effects
	cl.Handle(node.Recv{From: 10, Msg: msgs.ClientReply{ID: id, Group: 1}}, &fx3)
	var fx4 node.Effects
	cl.Handle(node.Timer{Kind: node.TimerClient, Data: uint64(id)}, &fx4)
	if len(fx4.Sends) != 0 || len(fx4.Timers) != 0 {
		t.Error("stale timer re-sent")
	}
}

func TestDuplicateSubmitIgnored(t *testing.T) {
	var completions []mcast.MsgID
	cl := newClient(0, &completions)
	id, _ := submit(cl, 1, 0)
	m := mcast.AppMsg{ID: id, Dest: mcast.NewGroupSet(0)}
	var fx node.Effects
	cl.Handle(node.Submit{Msg: m}, &fx)
	if len(fx.Sends) != 0 {
		t.Error("duplicate submit re-sent")
	}
	if cl.Inflight() != 1 {
		t.Errorf("inflight = %d", cl.Inflight())
	}
}

// TestClientRepliesCompletesSeveral: one follower message answers for every
// ID it carries in a single Handle call; IDs already completed or never
// submitted are skipped, and a two-group message still waits for its other
// group.
func TestClientRepliesCompletesSeveral(t *testing.T) {
	var completions []mcast.MsgID
	cl := newClient(0, &completions)
	a, _ := submit(cl, 1, 0)
	b, _ := submit(cl, 2, 0)
	both, _ := submit(cl, 3, 0, 1)
	var fx node.Effects
	cl.Handle(node.Recv{From: 0, Msg: msgs.ClientReply{ID: a, Group: 0}}, &fx) // the leader's reply came first
	unknown := mcast.MakeMsgID(100, 99)
	cl.Handle(node.Recv{From: 1, Msg: msgs.ClientReplies{Group: 0, IDs: []mcast.MsgID{a, b, unknown, both, b}}}, &fx)
	if len(completions) != 2 || completions[0] != a || completions[1] != b {
		t.Fatalf("completions = %v, want [%v %v]", completions, a, b)
	}
	if cl.Inflight() != 1 {
		t.Fatalf("inflight = %d, want the two-group message only", cl.Inflight())
	}
	cl.Handle(node.Recv{From: 11, Msg: msgs.ClientReplies{Group: 1, IDs: []mcast.MsgID{both}}}, &fx)
	if len(completions) != 3 || completions[2] != both || cl.Inflight() != 0 {
		t.Fatalf("completions = %v, inflight = %d", completions, cl.Inflight())
	}
	if len(fx.Sends) != 0 || len(fx.Timers) != 0 {
		t.Errorf("replies caused effects: %+v", fx)
	}
}
