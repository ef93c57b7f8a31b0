package live_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wbcast/internal/client"
	"wbcast/internal/core"
	"wbcast/internal/live"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
)

// echo replies to heartbeats and counts receptions.
type echo struct {
	pid   mcast.ProcessID
	seen  atomic.Int64
	first atomic.Int64 // unix nanos of first reception
}

func (e *echo) ID() mcast.ProcessID { return e.pid }
func (e *echo) Handle(in node.Input, fx *node.Effects) {
	if rcv, ok := in.(node.Recv); ok {
		if e.seen.Add(1) == 1 {
			e.first.Store(time.Now().UnixNano())
		}
		if hb, ok := rcv.Msg.(msgs.Heartbeat); ok {
			fx.Send(rcv.From, msgs.HeartbeatAck{Group: hb.Group, Bal: hb.Bal})
		}
	}
}

func TestRoundTrip(t *testing.T) {
	n := live.New(live.Config{})
	a := &echo{pid: 1}
	b := &echo{pid: 2}
	if err := n.Add(a, nil); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(b, nil); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Inject(2, node.Recv{From: 1, Msg: msgs.Heartbeat{Group: 0}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.seen.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.seen.Load() != 1 {
		t.Fatalf("node 1 received %d messages, want 1 (ack)", a.seen.Load())
	}
}

func TestLatencyInjection(t *testing.T) {
	const lat = 30 * time.Millisecond
	n := live.New(live.Config{Latency: func(from, to mcast.ProcessID) time.Duration { return lat }})
	b := &echo{pid: 2}
	if err := n.Add(&echo{pid: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(b, nil); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	start := time.Now()
	// Inject at node 1 a message that makes it send to node 2 — easier:
	// inject directly a Recv at node 1 that triggers an ack to node 2.
	if err := n.Inject(1, node.Recv{From: 2, Msg: msgs.Heartbeat{Group: 0}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for b.first.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.first.Load() == 0 {
		t.Fatal("delayed message never arrived")
	}
	elapsed := time.Duration(b.first.Load() - start.UnixNano())
	if elapsed < lat {
		t.Errorf("message arrived after %v, want ≥ %v", elapsed, lat)
	}
}

func TestCrashStopsDelivery(t *testing.T) {
	n := live.New(live.Config{})
	b := &echo{pid: 2}
	if err := n.Add(b, nil); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Crash(2)
	_ = n.Inject(2, node.Recv{From: 1, Msg: msgs.Heartbeat{}})
	time.Sleep(50 * time.Millisecond)
	if b.seen.Load() != 0 {
		t.Fatalf("crashed process handled %d messages", b.seen.Load())
	}
}

// TestWhiteBoxEndToEndLive runs the full white-box protocol on the live
// runtime: 2 groups × 3 replicas, several clients, real timers, LAN-style
// injected latency — and checks delivery counts and per-process (GTS, Sub)
// order: submissions a drain of the client holds share an envelope's GTS.
func TestWhiteBoxEndToEndLive(t *testing.T) {
	top := mcast.UniformTopology(2, 3)
	var mu sync.Mutex
	delivered := make(map[mcast.ProcessID][]mcast.Delivery)
	n := live.New(live.Config{
		Latency: live.LAN(),
		OnDeliver: func(p mcast.ProcessID, d mcast.Delivery) {
			mu.Lock()
			delivered[p] = append(delivered[p], d)
			mu.Unlock()
		},
	})
	for pid := mcast.ProcessID(0); int(pid) < top.NumReplicas(); pid++ {
		r, err := core.NewReplica(core.DefaultConfig(pid, top, 2*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Add(r, nil); err != nil {
			t.Fatal(err)
		}
	}
	const numMsgs = 50
	done := make(chan mcast.MsgID, numMsgs)
	cl := client.New(client.Config{
		PID: 100,
		Contacts: func(g mcast.GroupID) []mcast.ProcessID {
			return []mcast.ProcessID{top.InitialLeader(g)}
		},
		Retry:         200 * time.Millisecond,
		RetryContacts: func(g mcast.GroupID) []mcast.ProcessID { return top.Members(g) },
		OnComplete:    func(id mcast.MsgID) { done <- id },
	})
	if err := n.Add(cl, nil); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	dests := []mcast.GroupSet{mcast.NewGroupSet(0), mcast.NewGroupSet(1), mcast.NewGroupSet(0, 1)}
	for i := 0; i < numMsgs; i++ {
		m := mcast.AppMsg{ID: mcast.MakeMsgID(100, uint32(i+1)), Dest: dests[i%3], Payload: []byte{byte(i)}}
		if err := n.Submit(100, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < numMsgs; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out after %d completions", i)
		}
	}
	// Give followers a moment to apply trailing DELIVERs, then check.
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	for p, ds := range delivered {
		for i := 1; i < len(ds); i++ {
			if !ds[i-1].Before(ds[i]) {
				t.Errorf("p%d deliveries out of (GTS, Sub) order at %d", p, i)
			}
		}
	}
	// Each group's replicas must agree pairwise on their delivery sequence.
	for g := mcast.GroupID(0); g < 2; g++ {
		members := top.Members(g)
		ref := delivered[members[0]]
		for _, p := range members[1:] {
			got := delivered[p]
			if len(got) != len(ref) {
				t.Errorf("group %d: p%d delivered %d, p%d delivered %d", g, members[0], len(ref), p, len(got))
				continue
			}
			for i := range ref {
				if got[i].Msg.ID != ref[i].Msg.ID {
					t.Errorf("group %d: divergent delivery at %d", g, i)
					break
				}
			}
		}
	}
}
