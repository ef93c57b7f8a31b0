package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
)

// echoNode replies to every Heartbeat with a HeartbeatAck and records
// received messages with their arrival times.
type echoNode struct {
	pid      mcast.ProcessID
	received []msgs.Kind
	froms    []mcast.ProcessID
	at       []time.Duration
	sim      *Sim
	started  bool
}

func (e *echoNode) ID() mcast.ProcessID { return e.pid }
func (e *echoNode) Handle(in node.Input, fx *node.Effects) {
	switch in := in.(type) {
	case node.Start:
		e.started = true
	case node.Recv:
		e.received = append(e.received, in.Msg.Kind())
		e.froms = append(e.froms, in.From)
		if e.sim != nil {
			e.at = append(e.at, e.sim.Now())
		}
		if hb, ok := in.Msg.(msgs.Heartbeat); ok {
			fx.Send(in.From, msgs.HeartbeatAck{Group: hb.Group, Bal: hb.Bal})
		}
	}
}

func TestStartDeliveredFirst(t *testing.T) {
	s := New(Config{Latency: Uniform(time.Millisecond)})
	n := &echoNode{pid: 1}
	s.Add(n)
	s.Run(time.Second)
	if !n.started {
		t.Fatal("Start input not delivered")
	}
}

func TestMessageExchangeAndLatency(t *testing.T) {
	const d = 10 * time.Millisecond
	s := New(Config{Latency: Uniform(d)})
	a := &echoNode{pid: 1}
	b := &echoNode{pid: 2}
	a.sim, b.sim = s, s
	s.Add(a)
	s.Add(b)
	// Pretend node 1 sent a heartbeat: inject its arrival at node 2 at t=0.
	// Node 2 replies; the ack takes exactly δ back to node 1.
	s.Inject(0, 2, node.Recv{From: 1, Msg: msgs.Heartbeat{Group: 0, Bal: mcast.Ballot{N: 1, Proc: 1}}})
	s.Run(time.Second)
	if len(b.received) != 1 || b.received[0] != msgs.KindHeartbeat {
		t.Fatalf("node 2 received %v", b.received)
	}
	if len(a.received) != 1 || a.received[0] != msgs.KindHeartbeatAck {
		t.Fatalf("node 1 received %v", a.received)
	}
	if a.at[0] != d {
		t.Errorf("ack arrived at %v, want %v", a.at[0], d)
	}
	if got := s.MessageCount(msgs.KindHeartbeatAck); got != 1 {
		t.Errorf("ack count = %d", got)
	}
	if s.TotalSent() != 1 {
		t.Errorf("TotalSent = %d, want 1", s.TotalSent())
	}
}

// senderNode sends two messages back-to-back when started.
type senderNode struct {
	pid  mcast.ProcessID
	to   mcast.ProcessID
	msgs []msgs.Message
}

func (s *senderNode) ID() mcast.ProcessID { return s.pid }
func (s *senderNode) Handle(in node.Input, fx *node.Effects) {
	if _, ok := in.(node.Start); ok {
		for _, m := range s.msgs {
			fx.Send(s.to, m)
		}
	}
}

func TestFIFOPreservedUnderShrinkingLatency(t *testing.T) {
	// The first message takes 10ms, the second 1ms: FIFO requires the second
	// to still arrive after the first.
	n := 0
	lat := func(_, _ mcast.ProcessID, _ msgs.Message, _ time.Duration, _ *rand.Rand) time.Duration {
		n++
		if n == 1 {
			return 10 * time.Millisecond
		}
		return time.Millisecond
	}
	s := New(Config{Latency: lat})
	recv := &echoNode{pid: 2, sim: s}
	s.Add(&senderNode{pid: 1, to: 2, msgs: []msgs.Message{
		msgs.Heartbeat{Group: 0, Bal: mcast.Ballot{N: 1}},
		msgs.Heartbeat{Group: 0, Bal: mcast.Ballot{N: 2}},
	}})
	s.Add(recv)
	s.Run(time.Second)
	if len(recv.received) != 2 {
		t.Fatalf("received %d messages", len(recv.received))
	}
	if recv.at[0] > recv.at[1] {
		t.Fatalf("FIFO violated: first at %v, second at %v", recv.at[0], recv.at[1])
	}
	if recv.at[1] != 10*time.Millisecond {
		t.Errorf("second message should be held to %v, got %v", 10*time.Millisecond, recv.at[1])
	}
}

func TestSelfSendZeroLatency(t *testing.T) {
	s := New(Config{Latency: Uniform(time.Hour)})
	n := &echoNode{pid: 1, sim: s}
	s.Add(n)
	s.Inject(0, 1, node.Recv{From: 1, Msg: msgs.Heartbeat{Group: 0}})
	s.Run(time.Minute)
	// echoNode replies to itself; the self-ack must arrive with zero latency.
	if len(n.received) != 2 {
		t.Fatalf("received %v", n.received)
	}
	if n.at[1] != 0 {
		t.Errorf("self-send latency = %v, want 0", n.at[1])
	}
}

func TestCrashStopsProcessing(t *testing.T) {
	s := New(Config{Latency: Uniform(time.Millisecond)})
	n := &echoNode{pid: 1, sim: s}
	s.Add(n)
	s.Inject(time.Millisecond, 1, node.Recv{From: 2, Msg: msgs.Heartbeat{}})
	s.Crash(1)
	s.Run(time.Second)
	if len(n.received) != 0 {
		t.Fatalf("crashed process handled %v", n.received)
	}
	if !s.Crashed(1) {
		t.Error("Crashed(1) = false")
	}
}

func TestTimers(t *testing.T) {
	var fired []time.Duration
	s := New(Config{})
	h := node.Func{PID: 1, F: func(in node.Input, fx *node.Effects) {
		switch in := in.(type) {
		case node.Start:
			fx.SetTimer(5*time.Millisecond, node.TimerRetry, 42)
		case node.Timer:
			if in.Kind == node.TimerRetry && in.Data == 42 {
				fired = append(fired, s.Now())
			}
		}
	}}
	s.Add(h)
	s.Run(time.Second)
	if len(fired) != 1 || fired[0] != 5*time.Millisecond {
		t.Fatalf("timer fired at %v", fired)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		s := New(Config{Latency: UniformJitter(time.Millisecond, 4*time.Millisecond), Seed: 99})
		a := &echoNode{pid: 1, sim: s}
		b := &echoNode{pid: 2, sim: s}
		s.Add(a)
		s.Add(b)
		for i := 0; i < 20; i++ {
			s.Inject(time.Duration(i)*time.Millisecond, 2, node.Recv{From: 1, Msg: msgs.Heartbeat{}})
		}
		s.Run(time.Second)
		return append(append([]time.Duration{}, a.at...), b.at...)
	}
	r1, r2 := run(), run()
	if len(r1) != len(r2) {
		t.Fatalf("different event counts: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, r1[i], r2[i])
		}
	}
}

func TestGenuinenessAuditFlagsOutsider(t *testing.T) {
	top := mcast.UniformTopology(3, 1) // 3 singleton groups: procs 0,1,2
	s := New(Config{Latency: Uniform(time.Millisecond)})
	m := mcast.AppMsg{ID: mcast.MakeMsgID(100, 1), Dest: mcast.NewGroupSet(0)}
	// Client 100 multicasts to group 0 but the handler leaks the message to
	// process 2 (group 2), violating genuineness.
	client := node.Func{PID: 100, F: func(in node.Input, fx *node.Effects) {
		if sub, ok := in.(node.Submit); ok {
			fx.Send(0, msgs.Multicast{M: sub.Msg})
			fx.Send(2, msgs.Multicast{M: sub.Msg}) // leak
		}
	}}
	sink := func(pid mcast.ProcessID) node.Handler {
		return node.Func{PID: pid, F: func(node.Input, *node.Effects) {}}
	}
	s.Add(client)
	s.Add(sink(0))
	s.Add(sink(2))
	s.SubmitAt(0, 100, m)
	s.Run(time.Second)
	errs := s.AuditGenuineness(top)
	if len(errs) != 1 {
		t.Fatalf("audit errors = %v, want exactly 1", errs)
	}
}

// TestGenuinenessAuditFlagsReplicaOrigin: a MULTICAST whose ID nobody
// submitted may originate at a client (a batch envelope), never at a
// replica. Replica 0 invents one for its own group, whose members are the
// only recipients: the audit must still report it.
func TestGenuinenessAuditFlagsReplicaOrigin(t *testing.T) {
	top := mcast.UniformTopology(1, 3) // group 0: procs 0, 1, 2
	s := New(Config{Latency: Uniform(time.Millisecond)})
	invented := mcast.AppMsg{ID: mcast.MakeBatchID(0, 1), Dest: mcast.NewGroupSet(0)}
	s.Add(node.Func{PID: 0, F: func(in node.Input, fx *node.Effects) {
		if _, ok := in.(node.Start); ok {
			fx.SendAll([]mcast.ProcessID{1, 2}, msgs.Multicast{M: invented})
		}
	}})
	client := mcast.AppMsg{ID: mcast.MakeBatchID(100, 1), Dest: mcast.NewGroupSet(0)}
	s.Add(node.Func{PID: 100, F: func(in node.Input, fx *node.Effects) {
		if _, ok := in.(node.Start); ok {
			fx.Send(1, msgs.Multicast{M: client}) // a client's envelope is fine
		}
	}})
	for pid := mcast.ProcessID(1); pid <= 2; pid++ {
		s.Add(node.Func{PID: pid, F: func(node.Input, *node.Effects) {}})
	}
	s.Run(time.Second)
	errs := s.AuditGenuineness(top)
	want := "sim: replica 0 originated multicast m(0.2147483649), which nobody submitted (genuineness violation)"
	if len(errs) != 1 || errs[0].Error() != want {
		t.Fatalf("audit errors = %v, want exactly %q", errs, want)
	}
}

// TestBurstIsOneDrain: a burst's inputs are handled in order, then the
// drain ends once — EndDrain is called after every dispatch, a burst's
// included, and its effects are released like a Handle call's.
func TestBurstIsOneDrain(t *testing.T) {
	s := New(Config{Latency: Uniform(time.Millisecond)})
	d := &drainer{pid: 100}
	s.Add(d)
	recv := &echoNode{pid: 1, sim: s}
	s.Add(recv)
	ms := []mcast.AppMsg{{ID: mcast.MakeMsgID(100, 1)}, {ID: mcast.MakeMsgID(100, 2)}, {ID: mcast.MakeMsgID(100, 3)}}
	s.SubmitBurst(time.Millisecond, 100, ms)
	s.SubmitAt(2*time.Millisecond, 100, mcast.AppMsg{ID: mcast.MakeMsgID(100, 4)})
	s.Run(time.Second)
	// Start, the burst, the lone Submit, then the two acks: one drain each.
	want := []string{"drain", "submit 1", "submit 2", "submit 3", "drain", "submit 4", "drain", "drain", "drain"}
	if !slices.Equal(d.log, want) {
		t.Fatalf("handler saw %v, want %v", d.log, want)
	}
	if len(recv.received) != 2 || recv.at[0] != 2*time.Millisecond || recv.at[1] != 3*time.Millisecond {
		t.Fatalf("end-of-drain sends arrived %v at %v, want one per drain, δ after it", recv.received, recv.at)
	}
	if at, ok := s.SubmitTime(ms[2].ID); !ok || at != time.Millisecond {
		t.Errorf("SubmitTime of a burst's message = %v, %v", at, ok)
	}
}

// drainer logs its Submits and drain ends, and sends one message to process
// 1 at the end of every drain that had a Submit.
type drainer struct {
	pid     mcast.ProcessID
	log     []string
	pending bool
}

func (d *drainer) ID() mcast.ProcessID { return d.pid }
func (d *drainer) Handle(in node.Input, _ *node.Effects) {
	if sub, ok := in.(node.Submit); ok {
		d.log = append(d.log, fmt.Sprintf("submit %d", sub.Msg.ID.Seq()))
		d.pending = true
	}
}
func (d *drainer) Gather() bool { return false }
func (d *drainer) EndDrain(fx *node.Effects) {
	d.log = append(d.log, "drain")
	if d.pending {
		fx.Send(1, msgs.Heartbeat{})
		d.pending = false
	}
}

// TestGenuinenessAuditIsReplayable: a run with many violations reports them
// in ascending (message ID, process) order, so two replays of one seed name
// the same first violation.
func TestGenuinenessAuditIsReplayable(t *testing.T) {
	top := mcast.UniformTopology(4, 1)
	run := func() []string {
		s := New(Config{Latency: Uniform(time.Millisecond)})
		client := node.Func{PID: 100, F: func(in node.Input, fx *node.Effects) {
			if sub, ok := in.(node.Submit); ok {
				fx.SendAll([]mcast.ProcessID{0, 1, 2, 3}, msgs.Multicast{M: sub.Msg}) // leaks to 1, 2, 3
			}
		}}
		s.Add(client)
		for pid := mcast.ProcessID(0); pid < 4; pid++ {
			s.Add(node.Func{PID: pid, F: func(node.Input, *node.Effects) {}})
		}
		for seq := uint32(1); seq <= 20; seq++ {
			s.SubmitAt(0, 100, mcast.AppMsg{ID: mcast.MakeMsgID(100, seq), Dest: mcast.NewGroupSet(0)})
		}
		// Ordered but never submitted.
		s.Inject(0, 2, node.Recv{From: 100, Msg: msgs.Multicast{M: mcast.AppMsg{ID: mcast.MakeMsgID(100, 99)}}})
		s.Run(time.Second)
		var out []string
		for _, err := range s.AuditGenuineness(top) {
			out = append(out, err.Error())
		}
		return out
	}
	first := run()
	if len(first) != 20*3+1 {
		t.Fatalf("%d violations, want %d: %q", len(first), 20*3+1, first)
	}
	want := "sim: process 1 participated in ordering m(100.1) with dest {g0} (genuineness violation)"
	if first[0] != want {
		t.Fatalf("first violation %q, want %q", first[0], want)
	}
	for replay := 0; replay < 5; replay++ {
		if again := run(); !slices.Equal(again, first) {
			t.Fatalf("a replay reports\n%q\nwhere the first run reported\n%q", again, first)
		}
	}
}

func TestFirstDeliveryAndSubmitTime(t *testing.T) {
	top := mcast.UniformTopology(1, 3)
	s := New(Config{Latency: Uniform(time.Millisecond)})
	m := mcast.AppMsg{ID: mcast.MakeMsgID(100, 1), Dest: mcast.NewGroupSet(0)}
	deliverer := node.Func{PID: 0, F: func(in node.Input, fx *node.Effects) {
		if _, ok := in.(node.Submit); ok {
			fx.Deliver(mcast.Delivery{Msg: m, GTS: mcast.Timestamp{Time: 1}})
		}
	}}
	s.Add(deliverer)
	s.SubmitAt(3*time.Millisecond, 0, m)
	s.Run(time.Second)
	at, ok := s.FirstDelivery(top, m.ID, 0)
	if !ok || at != 3*time.Millisecond {
		t.Fatalf("FirstDelivery = %v,%v", at, ok)
	}
	st, ok := s.SubmitTime(m.ID)
	if !ok || st != 3*time.Millisecond {
		t.Fatalf("SubmitTime = %v,%v", st, ok)
	}
	if _, ok := s.FirstDelivery(top, mcast.MakeMsgID(1, 99), 0); ok {
		t.Error("FirstDelivery for unknown message should be false")
	}
	if got := s.DeliveriesAt(0); len(got) != 1 {
		t.Errorf("DeliveriesAt(0) = %v", got)
	}
}
