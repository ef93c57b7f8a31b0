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

// submit hands the client one submission in a drain of its own.
func submit(cl *client.Client, seq uint32, dest ...mcast.GroupID) (mcast.MsgID, *node.Effects) {
	m := mcast.AppMsg{ID: mcast.MakeMsgID(100, seq), Dest: mcast.NewGroupSet(dest...)}
	var fx node.Effects
	cl.Handle(node.Submit{Msg: m}, &fx)
	cl.EndDrain(&fx)
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
	if cl.Inflight() != 0 {
		t.Errorf("inflight=%d", cl.Inflight())
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
	cl.EndDrain(&fx)
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

// targets returns the recipients of fx's MULTICASTs of id, in send order.
func targets(fx *node.Effects, id mcast.MsgID) []mcast.ProcessID {
	var out []mcast.ProcessID
	for _, s := range fx.Sends {
		if m, ok := s.Msg.(msgs.Multicast); ok && m.M.ID == id {
			out = append(out, s.To)
		}
	}
	return out
}

// TestClientFollowsTheLeader: Cur_leader at the multicasting process. A reply
// naming a new leader of group 1 redirects later first attempts, and every
// request still waiting for group 1 is sent again at once — in full, to every
// destination group's current leader, in MsgID order — while requests group 1
// has answered, or that never addressed it, are left alone. That is no retry:
// the timers and the retry path stay as they were.
func TestClientFollowsTheLeader(t *testing.T) {
	var completions []mcast.MsgID
	cl := newClient(50*time.Millisecond, &completions)
	if cl.Leader(1) != 10 {
		t.Fatalf("Leader(1) = %d before any reply, want the configured contact", cl.Leader(1))
	}
	b1, b2 := mcast.Ballot{N: 1, Proc: 10}, mcast.Ballot{N: 2, Proc: 11}
	answered, _ := submit(cl, 1, 0, 1)
	waiting, _ := submit(cl, 2, 0, 1)
	waiting2, _ := submit(cl, 3, 1)
	elsewhere, _ := submit(cl, 4, 0)
	var fx node.Effects
	// The first ballot names the process the client was sending to anyway.
	cl.Handle(node.Recv{From: 10, Msg: msgs.ClientReply{ID: answered, Group: 1, Bal: b1}}, &fx)
	if len(fx.Sends) != 0 || cl.Leader(1) != 10 {
		t.Fatalf("learning the initial leader sent %+v, Leader(1) = %d", fx.Sends, cl.Leader(1))
	}
	// A follower's coalesced replies carry the ballot too.
	cl.Handle(node.Recv{From: 12, Msg: msgs.ClientReplies{Group: 1, Bal: b2, IDs: []mcast.MsgID{answered}}}, &fx)
	if cl.Leader(1) != 11 {
		t.Fatalf("Leader(1) = %d after ballot %v, want 11", cl.Leader(1), b2)
	}
	var resent []mcast.MsgID
	for _, s := range fx.Sends {
		resent = append(resent, s.Msg.(msgs.Multicast).M.ID)
	}
	if want := []mcast.MsgID{waiting, waiting, waiting2}; len(resent) != 3 || resent[0] != want[0] || resent[1] != want[1] || resent[2] != want[2] {
		t.Fatalf("re-sent %v, want %v", resent, want)
	}
	if got := targets(&fx, waiting); len(got) != 2 || got[0] != 0 || got[1] != 11 {
		t.Errorf("%v re-sent to %v, want group 0's contact and p11", waiting, got)
	}
	if got := targets(&fx, elsewhere); len(got) != 0 {
		t.Errorf("a request for group 0 alone was re-sent to %v", got)
	}
	if len(fx.Timers) != 0 {
		t.Errorf("the re-send armed %+v", fx.Timers)
	}
	// Stale and zero ballots teach nothing.
	fx.Reset()
	cl.Handle(node.Recv{From: 10, Msg: msgs.ClientReply{ID: answered, Group: 1, Bal: b1}}, &fx)
	cl.Handle(node.Recv{From: 10, Msg: msgs.ClientReply{ID: answered, Group: 1}}, &fx)
	cl.Handle(node.Recv{From: 0, Msg: msgs.ClientReply{ID: answered, Group: 0}}, &fx)
	if len(fx.Sends) != 0 || cl.Leader(1) != 11 || cl.Leader(0) != 0 {
		t.Errorf("stale or zero ballots: sends %+v, Leader(1) = %d, Leader(0) = %d", fx.Sends, cl.Leader(1), cl.Leader(0))
	}
	// First attempts go to the new leader; retries still blanket.
	id, sfx := submit(cl, 5, 1)
	if got := targets(sfx, id); len(got) != 1 || got[0] != 11 {
		t.Errorf("first attempt went to %v, want p11", got)
	}
	fx.Reset()
	cl.Handle(node.Timer{Kind: node.TimerClient, Data: uint64(id)}, &fx)
	if got := targets(&fx, id); len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Errorf("retry went to %v, want the whole group", got)
	}
	if len(completions) != 1 || completions[0] != answered {
		t.Errorf("completions = %v", completions)
	}
}

// TestClientLearnsAChangedLeaderFirst: a client whose very first reply of a
// group names somebody other than its configured contact re-sends as well.
func TestClientLearnsAChangedLeaderFirst(t *testing.T) {
	var completions []mcast.MsgID
	cl := newClient(0, &completions)
	a, _ := submit(cl, 1, 1)
	b, _ := submit(cl, 2, 1)
	var fx node.Effects
	cl.Handle(node.Recv{From: 11, Msg: msgs.ClientReply{ID: a, Group: 1, Bal: mcast.Ballot{N: 2, Proc: 11}}}, &fx)
	if got := targets(&fx, b); len(got) != 1 || got[0] != 11 {
		t.Errorf("%v re-sent to %v, want p11", b, got)
	}
	if got := targets(&fx, a); len(got) != 0 {
		t.Errorf("the answered request was re-sent to %v", got)
	}
}

// TestRetryWithoutRetryContactsFollowsTheLeader: a client configured with no
// RetryContacts retries where first attempts go — the leader it has learnt,
// not the configured contact that may have stopped long ago.
func TestRetryWithoutRetryContactsFollowsTheLeader(t *testing.T) {
	cl := client.New(client.Config{
		PID:      100,
		Contacts: func(g mcast.GroupID) []mcast.ProcessID { return []mcast.ProcessID{mcast.ProcessID(g * 10)} },
		Retry:    50 * time.Millisecond,
	})
	a, _ := submit(cl, 1, 1)
	b, _ := submit(cl, 2, 0, 1)
	var fx node.Effects
	cl.Handle(node.Recv{From: 11, Msg: msgs.ClientReply{ID: a, Group: 1, Bal: mcast.Ballot{N: 2, Proc: 11}}}, &fx)
	fx.Reset()
	cl.Handle(node.Timer{Kind: node.TimerClient, Data: uint64(b)}, &fx)
	if got := targets(&fx, b); len(got) != 2 || got[0] != 0 || got[1] != 11 {
		t.Errorf("retry went to %v, want group 0's contact and p11", got)
	}
	if len(fx.Timers) != 1 {
		t.Errorf("retry armed %+v, want the next retry", fx.Timers)
	}
}

// TestGatherBesideInflight: the client asks its runtime to gather only for a
// drain that holds a submission while another multicast is in flight — a
// caller that waits for each multicast never makes its loop yield.
func TestGatherBesideInflight(t *testing.T) {
	var completions []mcast.MsgID
	cl := newClient(0, &completions)
	var fx node.Effects
	first := mcast.AppMsg{ID: mcast.MakeMsgID(100, 1), Dest: mcast.NewGroupSet(0)}
	cl.Handle(node.Submit{Msg: first}, &fx)
	if cl.Gather() {
		t.Error("gathers with nothing in flight")
	}
	cl.EndDrain(&fx)
	if cl.Gather() {
		t.Error("gathers for a drain without a submission")
	}
	cl.Handle(node.Submit{Msg: mcast.AppMsg{ID: mcast.MakeMsgID(100, 2), Dest: mcast.NewGroupSet(0)}}, &fx)
	if !cl.Gather() {
		t.Error("does not gather beside a multicast in flight")
	}
	cl.EndDrain(&fx)
	cl.Handle(node.Recv{From: 0, Msg: msgs.ClientReply{ID: first.ID, Group: 0}}, &fx)
	if cl.Gather() {
		t.Error("gathers for a drain of replies")
	}
}

// TestCancel: a Cancel takes a submission out of the client's table — out of
// the drain in progress, or out of the request that carries it — so that no
// later send names a lone cancelled ID and its completion is never reported.
func TestCancel(t *testing.T) {
	// burst submits one drain of messages to group 0 with completion
	// channels; they leave as one envelope, whose ID it returns.
	burst := func(cl *client.Client, seqs ...uint32) (ids []mcast.MsgID, done []chan struct{}, env mcast.MsgID) {
		var fx node.Effects
		for _, seq := range seqs {
			m := mcast.AppMsg{ID: mcast.MakeMsgID(100, seq), Dest: mcast.NewGroupSet(0), Payload: []byte{byte(seq)}}
			ids, done = append(ids, m.ID), append(done, make(chan struct{}))
			cl.Handle(node.Submit{Msg: m, Done: done[len(done)-1]}, &fx)
		}
		cl.EndDrain(&fx)
		return ids, done, fx.Sends[0].Msg.(msgs.Multicast).M.ID
	}
	cancel := func(cl *client.Client, id mcast.MsgID) *node.Effects {
		var fx node.Effects
		cl.Handle(node.Cancel{ID: id}, &fx)
		cl.EndDrain(&fx)
		return &fx
	}
	retry := func(cl *client.Client, id mcast.MsgID) *node.Effects {
		var fx node.Effects
		cl.Handle(node.Timer{Kind: node.TimerClient, Data: uint64(id)}, &fx)
		return &fx
	}
	closed := func(ch chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, cl *client.Client, completions *[]mcast.MsgID)
	}{
		{"a lone multicast's retry timer sends nothing", func(t *testing.T, cl *client.Client, _ *[]mcast.MsgID) {
			id, _ := submit(cl, 1, 0, 1)
			if fx := cancel(cl, id); len(fx.Sends) != 0 || len(fx.Timers) != 0 {
				t.Errorf("the cancel caused %+v", fx)
			}
			if cl.Inflight() != 0 || cl.Awaiting(id) {
				t.Errorf("Inflight() = %d, Awaiting = %v after the cancel", cl.Inflight(), cl.Awaiting(id))
			}
			if fx := retry(cl, id); len(fx.Sends) != 0 || len(fx.Timers) != 0 {
				t.Errorf("the retry timer of a cancelled multicast caused %+v", fx)
			}
		}},
		{"one payload of an envelope", func(t *testing.T, cl *client.Client, completions *[]mcast.MsgID) {
			ids, done, env := burst(cl, 1, 2, 3)
			cancel(cl, ids[1])
			if fx := retry(cl, env); len(targets(fx, env)) != 2 || len(fx.Timers) != 1 {
				t.Fatalf("the envelope's retry caused %+v, want a re-send to group 0 and the next timer", fx)
			}
			var fx node.Effects
			cl.Handle(node.Recv{From: 0, Msg: msgs.ClientReply{ID: env, Group: 0}}, &fx)
			if got := *completions; len(got) != 2 || got[0] != ids[0] || got[1] != ids[2] {
				t.Errorf("completions = %v, want %v and %v", got, ids[0], ids[2])
			}
			if !closed(done[0]) || closed(done[1]) || !closed(done[2]) {
				t.Errorf("Done closed: %v %v %v, want the cancelled payload's alone open", closed(done[0]), closed(done[1]), closed(done[2]))
			}
			if cl.Inflight() != 0 {
				t.Errorf("Inflight() = %d after the envelope completed", cl.Inflight())
			}
		}},
		{"every payload of an envelope", func(t *testing.T, cl *client.Client, _ *[]mcast.MsgID) {
			ids, _, env := burst(cl, 1, 2)
			cancel(cl, ids[0])
			if !cl.Awaiting(env) {
				t.Fatal("the envelope left with one payload still carried")
			}
			cancel(cl, ids[1])
			if cl.Inflight() != 0 {
				t.Errorf("Inflight() = %d with every payload cancelled", cl.Inflight())
			}
			if fx := retry(cl, env); len(fx.Sends) != 0 || len(fx.Timers) != 0 {
				t.Errorf("the retry timer of a cancelled envelope caused %+v", fx)
			}
		}},
		{"in the drain of its Submit", func(t *testing.T, cl *client.Client, _ *[]mcast.MsgID) {
			m := mcast.AppMsg{ID: mcast.MakeMsgID(100, 1), Dest: mcast.NewGroupSet(0)}
			var fx node.Effects
			cl.Handle(node.Submit{Msg: m}, &fx)
			cl.Handle(node.Cancel{ID: m.ID}, &fx)
			cl.EndDrain(&fx)
			if len(fx.Sends) != 0 || len(fx.Timers) != 0 || cl.Inflight() != 0 || cl.BatchesSent() != 0 {
				t.Errorf("a multicast cancelled in its own drain caused %+v, Inflight() = %d", fx, cl.Inflight())
			}
		}},
		{"after completion", func(t *testing.T, cl *client.Client, completions *[]mcast.MsgID) {
			m := mcast.AppMsg{ID: mcast.MakeMsgID(100, 1), Dest: mcast.NewGroupSet(0)}
			done := make(chan struct{})
			var fx node.Effects
			cl.Handle(node.Submit{Msg: m, Done: done}, &fx)
			cl.EndDrain(&fx)
			cl.Handle(node.Recv{From: 0, Msg: msgs.ClientReply{ID: m.ID, Group: 0}}, &fx)
			if !closed(done) {
				t.Fatal("completion left Done open")
			}
			later, _ := submit(cl, 2, 0)
			if fx := cancel(cl, m.ID); len(fx.Sends) != 0 || len(fx.Timers) != 0 {
				t.Errorf("the cancel caused %+v", fx)
			}
			if len(*completions) != 1 || !cl.Awaiting(later) {
				t.Errorf("completions = %v, Awaiting(%v) = %v", *completions, later, cl.Awaiting(later))
			}
		}},
		{"before a leader change", func(t *testing.T, cl *client.Client, _ *[]mcast.MsgID) {
			answered, _ := submit(cl, 1, 1)
			gone, _ := submit(cl, 2, 0, 1)
			waiting, _ := submit(cl, 3, 1)
			cancel(cl, gone)
			var fx node.Effects
			cl.Handle(node.Recv{From: 11, Msg: msgs.ClientReply{ID: answered, Group: 1, Bal: mcast.Ballot{N: 2, Proc: 11}}}, &fx)
			if got := targets(&fx, gone); len(got) != 0 {
				t.Errorf("the cancelled %v was re-sent to %v", gone, got)
			}
			if got := targets(&fx, waiting); len(got) != 1 || got[0] != 11 {
				t.Errorf("%v re-sent to %v, want p11", waiting, got)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var completions []mcast.MsgID
			tc.run(t, newClient(time.Second, &completions), &completions)
		})
	}
}
