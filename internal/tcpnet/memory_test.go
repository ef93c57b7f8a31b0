package tcpnet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wbcast/internal/client"
	"wbcast/internal/core"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
)

// memNet hosts handlers as in-memory nodes that find each other in one
// registry, as the public InProcess transport does.
type memNet struct {
	t       *testing.T
	latency func(from, to mcast.ProcessID) time.Duration
	nodes   sync.Map // mcast.ProcessID → *Node
}

func (m *memNet) peer(pid mcast.ProcessID) *Node {
	v, _ := m.nodes.Load(pid)
	n, _ := v.(*Node)
	return n
}

// add hosts h in memory until the test ends.
func (m *memNet) add(h node.Handler, onDeliver func(mcast.Delivery)) *Node {
	m.t.Helper()
	n, err := Serve(Config{PID: h.ID(), Handler: h, OnDeliver: onDeliver, Peer: m.peer, Latency: m.latency})
	if err != nil {
		m.t.Fatal(err)
	}
	m.t.Cleanup(n.Close)
	m.nodes.Store(h.ID(), n)
	return n
}

// echo acknowledges heartbeats and logs, per sender, the heartbeats'
// ballots in arrival order and when the first arrived.
type echo struct {
	pid   mcast.ProcessID
	seen  atomic.Int64
	mu    sync.Mutex
	order map[mcast.ProcessID][]uint64
	first map[mcast.ProcessID]time.Time
}

func (e *echo) ID() mcast.ProcessID { return e.pid }
func (e *echo) Handle(in node.Input, fx *node.Effects) {
	rcv, ok := in.(node.Recv)
	if !ok {
		return
	}
	e.mu.Lock()
	e.seen.Add(1)
	if hb, ok := rcv.Msg.(msgs.Heartbeat); ok {
		if e.order == nil {
			e.order, e.first = make(map[mcast.ProcessID][]uint64), make(map[mcast.ProcessID]time.Time)
		}
		if len(e.order[rcv.From]) == 0 {
			e.first[rcv.From] = time.Now()
		}
		e.order[rcv.From] = append(e.order[rcv.From], hb.Bal.N)
		fx.Send(rcv.From, msgs.HeartbeatAck{Group: hb.Group, Bal: hb.Bal})
	}
	e.mu.Unlock()
}

// TestInMemoryRoundTrip: a message and its reply cross two in-memory nodes
// as values — nothing is encoded, framed or read.
func TestInMemoryRoundTrip(t *testing.T) {
	m := &memNet{t: t}
	a, b := &echo{pid: 1}, &echo{pid: 2}
	na, nb := m.add(a, nil), m.add(b, nil)
	if err := nb.Inject(node.Recv{From: 1, Msg: msgs.Heartbeat{Group: 0}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the ack at node 1", func() bool { return a.seen.Load() == 1 })
	for _, s := range []Stats{na.Stats(), nb.Stats()} {
		if s.MessagesEncoded != 0 || s.FramesSent != 0 || s.FramesRead != 0 || s.OutboundDrops != 0 {
			t.Errorf("in-memory node counted wire I/O or drops: %+v", s)
		}
	}
	if na.Addr() != nil {
		t.Errorf("in-memory node listens on %v", na.Addr())
	}
}

// TestInMemoryLatencyKeepsLinkFIFO: an injected latency delays a message by
// at least its link's delay, and the messages of one link arrive in the
// order they were sent, whatever the other links' delays.
func TestInMemoryLatencyKeepsLinkFIFO(t *testing.T) {
	const slow, fast = 30 * time.Millisecond, time.Millisecond
	m := &memNet{t: t, latency: func(from, to mcast.ProcessID) time.Duration {
		if from == 1 {
			return slow
		}
		return fast
	}}
	b := &echo{pid: 2}
	m.add(b, nil)
	senders := map[mcast.ProcessID]*Node{}
	for _, pid := range []mcast.ProcessID{1, 3} {
		senders[pid] = m.add(node.Func{PID: pid, F: func(in node.Input, fx *node.Effects) {
			if tm, ok := in.(node.Timer); ok {
				fx.Send(2, msgs.Heartbeat{Bal: mcast.Ballot{N: tm.Data}})
			}
		}}, nil)
	}
	const perLink = 200
	start := time.Now()
	for k := uint64(1); k <= perLink; k++ {
		for _, n := range senders {
			if err := n.Inject(node.Timer{Kind: node.TimerApp, Data: k}); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, "every heartbeat at node 2", func() bool { return b.seen.Load() == 2*perLink })
	b.mu.Lock()
	defer b.mu.Unlock()
	for from, lat := range map[mcast.ProcessID]time.Duration{1: slow, 3: fast} {
		if elapsed := b.first[from].Sub(start); elapsed < lat {
			t.Errorf("link %d→2's first message arrived after %v, want ≥ %v", from, elapsed, lat)
		}
	}
	for from, got := range b.order {
		for i, k := range got {
			if k != uint64(i+1) {
				t.Fatalf("link %d→2 delivered heartbeat %d at position %d", from, k, i)
			}
		}
	}
}

// TestInMemoryCrashStopsDelivery: a closed node handles nothing more, an
// input injected into it is refused, and a send to it is a counted drop that
// leaves its mailbox as it was.
func TestInMemoryCrashStopsDelivery(t *testing.T) {
	m := &memNet{t: t}
	b := &echo{pid: 2}
	nb := m.add(b, nil)
	na := m.add(node.Func{PID: 1, F: func(in node.Input, fx *node.Effects) {
		if _, ok := in.(node.Timer); ok {
			fx.Send(2, msgs.Heartbeat{})
		}
	}}, nil)
	nb.Close()
	if err := nb.Inject(node.Recv{From: 1, Msg: msgs.Heartbeat{}}); err == nil {
		t.Error("a closed node accepted an input")
	}
	for k := uint64(1); k <= 10; k++ {
		if err := na.Inject(node.Timer{Kind: node.TimerApp, Data: k}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "ten drops", func() bool { return na.Stats().OutboundDrops == 10 })
	if seen, depth := b.seen.Load(), nb.MailboxDepth(); seen != 0 || depth != 0 {
		t.Fatalf("crashed process handled %d messages and holds %d", seen, depth)
	}
}

// TestWhiteBoxInMemory runs the full white-box protocol on in-memory nodes:
// 2 groups × 3 replicas, a client, real timers, LAN-style injected latency —
// and checks delivery counts and per-process (GTS, Sub) order: submissions a
// drain of the client holds share an envelope's GTS.
func TestWhiteBoxInMemory(t *testing.T) {
	top := mcast.UniformTopology(2, 3)
	var mu sync.Mutex
	delivered := make(map[mcast.ProcessID][]mcast.Delivery)
	m := &memNet{t: t, latency: func(from, to mcast.ProcessID) time.Duration { return 50 * time.Microsecond }}
	for pid := mcast.ProcessID(0); int(pid) < top.NumReplicas(); pid++ {
		r, err := core.NewReplica(core.DefaultConfig(pid, top, 2*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		m.add(r, func(d mcast.Delivery) {
			mu.Lock()
			delivered[pid] = append(delivered[pid], d)
			mu.Unlock()
		})
	}
	const numMsgs = 50
	done := make(chan mcast.MsgID, numMsgs)
	cl := m.add(client.New(client.Config{
		PID: 100,
		Contacts: func(g mcast.GroupID) []mcast.ProcessID {
			return []mcast.ProcessID{top.InitialLeader(g)}
		},
		Retry:         200 * time.Millisecond,
		RetryContacts: func(g mcast.GroupID) []mcast.ProcessID { return top.Members(g) },
		OnComplete:    func(id mcast.MsgID) { done <- id },
	}), nil)

	dests := []mcast.GroupSet{mcast.NewGroupSet(0), mcast.NewGroupSet(1), mcast.NewGroupSet(0, 1)}
	for i := 0; i < numMsgs; i++ {
		msg := mcast.AppMsg{ID: mcast.MakeMsgID(100, uint32(i+1)), Dest: dests[i%3], Payload: []byte{byte(i)}}
		if err := cl.Inject(node.Submit{Msg: msg}); err != nil {
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
