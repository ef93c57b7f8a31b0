package core_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"wbcast/internal/core"
	"wbcast/internal/faults"
	"wbcast/internal/harness"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/sim"
)

// Who answers the client, and when: the leader at once, a follower one
// heartbeat interval later with one message per client, a retry after
// delivery with a reply.

const (
	replyHB = 5 * delta
	clientA = mcast.ProcessID(3) // the two clients of a 1×3 topology
	clientB = mcast.ProcessID(4)
)

func newReplyReplica(t *testing.T, pid mcast.ProcessID, hb time.Duration) *core.Replica {
	t.Helper()
	r, err := core.NewReplica(core.Config{PID: pid, Top: mcast.UniformTopology(1, 3), HeartbeatInterval: hb})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// deliverTo hands r the leader's ACCEPT and DELIVER of message seq (its GTS
// is its position in the group's delivery chain) and returns the effects of
// the delivering Handle call.
func deliverTo(r *core.Replica, id mcast.MsgID, seq uint64) *node.Effects {
	bal := mcast.Ballot{N: 1, Proc: 0}
	m := mcast.AppMsg{ID: id, Dest: mcast.NewGroupSet(0)}
	ts := mcast.Timestamp{Time: seq, Group: 0}
	prev := mcast.Timestamp{}
	if seq > 1 {
		prev = mcast.Timestamp{Time: seq - 1, Group: 0}
	}
	r.Handle(node.Recv{From: 0, Msg: msgs.Accept{M: m, Group: 0, Bal: bal, LTS: ts}}, &node.Effects{})
	fx := &node.Effects{}
	r.Handle(node.Recv{From: 0, Msg: msgs.Deliver{ID: id, Bal: bal, LTS: ts, GTS: ts, Prev: prev}}, fx)
	return fx
}

// replySends returns the sends of fx addressed to clients.
func replySends(fx *node.Effects) []node.Send {
	var out []node.Send
	for _, s := range fx.Sends {
		switch s.Msg.(type) {
		case msgs.ClientReply, msgs.ClientReplies:
			out = append(out, s)
		}
	}
	return out
}

func replyTimers(fx *node.Effects) int {
	n := 0
	for _, tm := range fx.Timers {
		if tm.Kind == node.TimerReplies {
			n++
		}
	}
	return n
}

// interleaved returns n message IDs alternating between the two clients, and
// each client's share in that order.
func interleaved(n int) (all, ofA, ofB []mcast.MsgID) {
	for i := 1; i <= n; i++ {
		client, own := clientA, &ofA
		if i%2 == 0 {
			client, own = clientB, &ofB
		}
		id := mcast.MakeMsgID(client, uint32(i))
		all, *own = append(all, id), append(*own, id)
	}
	return
}

func TestLeaderRepliesInDeliveringCall(t *testing.T) {
	r := newReplyReplica(t, 0, replyHB)
	id := mcast.MakeMsgID(clientA, 1)
	fx := deliverTo(r, id, 1)
	if len(fx.Deliveries) != 1 {
		t.Fatalf("deliveries = %d", len(fx.Deliveries))
	}
	got := replySends(fx)
	if len(got) != 1 || got[0].To != clientA || got[0].Msg != (msgs.ClientReply{ID: id, Group: 0, Bal: r.CBallot()}) {
		t.Fatalf("leader's replies in the delivering call = %+v", got)
	}
	if replyTimers(fx) != 0 {
		t.Error("leader armed a reply flush")
	}
}

func TestFollowerRepliesCoalescePerClient(t *testing.T) {
	r := newReplyReplica(t, 1, replyHB)
	all, ofA, ofB := interleaved(9)
	armed := 0
	for i, id := range all {
		fx := deliverTo(r, id, uint64(i+1))
		if len(fx.Deliveries) != 1 {
			t.Fatalf("message %d: deliveries = %d", i, len(fx.Deliveries))
		}
		if got := replySends(fx); len(got) != 0 {
			t.Fatalf("message %d: follower replied at once: %+v", i, got)
		}
		armed += replyTimers(fx)
		if i == 0 && (len(fx.Timers) != 1 || fx.Timers[0].After != replyHB) {
			t.Fatalf("first queued ID armed %+v, want one flush after %v", fx.Timers, replyHB)
		}
	}
	if armed != 1 {
		t.Fatalf("flush timers armed inside one interval = %d, want 1", armed)
	}
	fx := &node.Effects{}
	r.Handle(node.Timer{Kind: node.TimerReplies}, fx)
	want := []node.Send{
		{To: clientA, Msg: msgs.ClientReplies{Group: 0, Bal: r.CBallot(), IDs: ofA}},
		{To: clientB, Msg: msgs.ClientReplies{Group: 0, Bal: r.CBallot(), IDs: ofB}},
	}
	if !reflect.DeepEqual(fx.Sends, want) {
		t.Fatalf("flush sent\n %+v\nwant\n %+v", fx.Sends, want)
	}
	// The next interval starts over: a new timer, only the new ID.
	id := mcast.MakeMsgID(clientB, 10)
	if fx := deliverTo(r, id, 10); replyTimers(fx) != 1 {
		t.Fatal("first ID of the next interval armed no flush")
	}
	fx = &node.Effects{}
	r.Handle(node.Timer{Kind: node.TimerReplies}, fx)
	want = []node.Send{{To: clientB, Msg: msgs.ClientReplies{Group: 0, Bal: r.CBallot(), IDs: []mcast.MsgID{id}}}}
	if !reflect.DeepEqual(fx.Sends, want) {
		t.Fatalf("second flush sent %+v", fx.Sends)
	}
	fx = &node.Effects{}
	r.Handle(node.Timer{Kind: node.TimerReplies}, fx) // stale: nothing queued
	if len(fx.Sends) != 0 || len(fx.Timers) != 0 {
		t.Fatalf("empty flush had effects: %+v", fx)
	}
}

// TestPromotedFollowerStillFlushes: replies queued as a follower leave on
// the armed timer even though the replica leads by then.
func TestPromotedFollowerStillFlushes(t *testing.T) {
	r := newReplyReplica(t, 1, replyHB)
	queued := []mcast.MsgID{mcast.MakeMsgID(clientA, 1), mcast.MakeMsgID(clientA, 2)}
	for i, id := range queued {
		deliverTo(r, id, uint64(i+1))
	}
	// Election of p1 with p2's vote: NEWLEADER to itself, both votes, p2's
	// NEWSTATE_ACK.
	bal := mcast.Ballot{N: 2, Proc: 1}
	fx := &node.Effects{}
	r.Handle(node.Timer{Kind: node.TimerCandidacy, Data: 1}, fx)
	r.Handle(node.Recv{From: 1, Msg: msgs.NewLeader{Bal: bal}}, fx)
	var own msgs.NewLeaderAck
	for _, s := range fx.Sends {
		if a, ok := s.Msg.(msgs.NewLeaderAck); ok {
			own = a
		}
	}
	r.Handle(node.Recv{From: 1, Msg: own}, fx)
	r.Handle(node.Recv{From: 2, Msg: msgs.NewLeaderAck{Bal: bal, CBal: mcast.Ballot{N: 1, Proc: 0}}}, fx)
	r.Handle(node.Recv{From: 2, Msg: msgs.NewStateAck{Bal: bal}}, fx)
	if r.Status() != core.StatusLeader {
		t.Fatalf("status after the election = %v", r.Status())
	}
	fx = &node.Effects{}
	r.Handle(node.Timer{Kind: node.TimerReplies}, fx)
	// The flush names the ballot this replica is in now: its own.
	want := []node.Send{{To: clientA, Msg: msgs.ClientReplies{Group: 0, Bal: bal, IDs: queued}}}
	if !reflect.DeepEqual(replySends(fx), want) {
		t.Fatalf("flush after promotion sent %+v, want %+v", replySends(fx), want)
	}
}

// TestNoHeartbeatRepliesAtOnce: without a heartbeat interval there is no
// timer to flush on, and a follower answers in the delivering call.
func TestNoHeartbeatRepliesAtOnce(t *testing.T) {
	r := newReplyReplica(t, 1, 0)
	id := mcast.MakeMsgID(clientA, 1)
	fx := deliverTo(r, id, 1)
	got := replySends(fx)
	if len(got) != 1 || got[0].Msg != (msgs.ClientReply{ID: id, Group: 0, Bal: r.CBallot()}) || len(fx.Timers) != 0 {
		t.Fatalf("sends = %+v timers = %+v", got, fx.Timers)
	}
}

// TestTimerlessRunsKeepPerReplicaReplies: simulator runs without timers
// (the deterministic configurations, sim-reference's episodes) carry the
// reply traffic they always did — one CLIENT_REPLY per delivery, no
// CLIENT_REPLIES — for seeds 1–10.
func TestTimerlessRunsKeepPerReplicaReplies(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		c, err := harness.NewCluster(core.Protocol{}, harness.Options{
			Groups: 3, GroupSize: 3, NumClients: 2, Seed: seed,
			Latency: sim.UniformJitter(delta, delta/4),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids := c.RandomWorkload(rand.New(rand.NewSource(seed)), 40, 2, time.Second)
		done := 0
		c.OnComplete(func(mcast.MsgID) { done++ })
		c.Sim.Run(time.Minute)
		if errs := c.Check(true); len(errs) > 0 {
			t.Fatalf("seed %d: %v", seed, errs[0])
		}
		if n := c.Sim.MessageCount(msgs.KindClientReplies); n != 0 {
			t.Errorf("seed %d: %d CLIENT_REPLIES in a timer-less run", seed, n)
		}
		if got, want := c.Sim.MessageCount(msgs.KindClientReply), len(c.Sim.Deliveries()); got != want {
			t.Errorf("seed %d: %d CLIENT_REPLY for %d deliveries", seed, got, want)
		}
		if done != len(ids) {
			t.Errorf("seed %d: %d of %d multicasts completed", seed, done, len(ids))
		}
	}
}

// TestRetryAfterDeliveryIsAnswered: every reply of one multicast is lost;
// the client's first retry reaches a leader that has delivered the message,
// and is answered. (The leader used to run another ACCEPT round and stay
// silent, so the client retried forever.)
func TestRetryAfterDeliveryIsAnswered(t *testing.T) {
	const retry = 20 * delta
	// Nothing a replica sends reaches the client until the client retries.
	plan := &faults.Plan{}
	plan.At(0, faults.OneWay{From: []mcast.ProcessID{0, 1, 2}, To: []mcast.ProcessID{clientA}})
	plan.At(retry, faults.Heal{})
	proto := core.Protocol{RetryInterval: 20 * delta, HeartbeatInterval: replyHB, SuspectTimeout: 20 * delta}
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 1, GroupSize: 3, NumClients: 1, Latency: sim.Uniform(delta), Retry: retry, Faults: plan,
	}, proto)
	var doneAt []time.Duration
	c.OnComplete(func(mcast.MsgID) { doneAt = append(doneAt, c.Sim.Now()) })
	c.Submit(0, 0, mcast.NewGroupSet(0), []byte("m"))
	c.Sim.Run(10 * retry)
	requireClean(t, c, audit, false)
	// The leader's reply at 3δ and both followers' flushes at 4δ + one
	// heartbeat interval.
	if c.Sim.TotalDropped() != 3 {
		t.Fatalf("replies lost = %d, want 3", c.Sim.TotalDropped())
	}
	// Retry at 20δ, one hop to the leader, one hop back.
	if len(doneAt) != 1 || doneAt[0] != retry+2*delta {
		t.Fatalf("completions at %v, want one at %v", doneAt, retry+2*delta)
	}
	if accepts, _ := audit.Counts(); accepts != 3 {
		t.Errorf("ACCEPT receptions = %d, want 3: the retry must not start another round", accepts)
	}
}

// TestRetryAfterDeliveryIsAnsweredAcrossTakeover: the same on the take-over
// path. Every reply of m is lost and then the leader stops, leaving m2
// ACCEPTED at its followers. p1 takes over and commits m2; its reply names
// p1's ballot, so the client sends m — still unanswered — again, at once and
// under its own name. p1 finds m delivered in the merged state and answers:
// the rule above applies and no second ACCEPT round runs for m.
func TestRetryAfterDeliveryIsAnsweredAcrossTakeover(t *testing.T) {
	const (
		suspect = 20 * delta
		crash   = 2 * replyHB
		// p0's last heartbeat left at one interval and arrived δ later; p1
		// (rank 1) suspects half an interval after the timeout, leads 4δ later.
		takeover = replyHB + delta + suspect + replyHB/2 + 4*delta
		// m2's ACCEPT to p2, the ACCEPT_ACK, the reply to the client.
		taught = takeover + 3*delta
	)
	plan := &faults.Plan{}
	plan.At(0, faults.OneWay{From: []mcast.ProcessID{0, 1, 2}, To: []mcast.ProcessID{clientA}})
	plan.At(takeover, faults.Heal{})
	proto := core.Protocol{RetryInterval: 20 * delta, HeartbeatInterval: replyHB, SuspectTimeout: suspect}
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 1, GroupSize: 3, NumClients: 1, Latency: sim.Uniform(delta), Retry: 10 * suspect, Faults: plan,
	}, proto)
	doneAt := make(map[mcast.MsgID]time.Duration)
	c.OnComplete(func(id mcast.MsgID) { doneAt[id] = c.Sim.Now() })
	m := c.Submit(0, 0, mcast.NewGroupSet(0), []byte("m")) // delivered everywhere by 4δ
	// p0 proposes m2 half a δ before it stops; the acks find it gone.
	m2 := c.Submit(crash-3*delta/2, 0, mcast.NewGroupSet(0), []byte("m2"))
	c.Sim.ControlAt(crash, func() { c.Crash(0) })
	c.Sim.Run(taught + delta/2)
	if replica(c, 1).Status() != core.StatusLeader || doneAt[m2] != taught {
		t.Fatalf("p1 is %v and m2 completed at %v, want LEADER and %v", replica(c, 1).Status(), doneAt[m2], taught)
	}
	before, _ := audit.Counts()
	c.Sim.Run(20 * suspect)
	requireClean(t, c, audit, true)
	if at, ok := doneAt[m]; !ok || at != taught+2*delta {
		t.Fatalf("m completed at %v (%v), want %v: re-sent on m2's reply, one hop to p1, one hop back", at, ok, taught+2*delta)
	}
	if after, _ := audit.Counts(); after != before {
		t.Errorf("ACCEPT receptions went from %d to %d: the client's re-send must not start another round", before, after)
	}
}
