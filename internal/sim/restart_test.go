package sim

import (
	"testing"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/wal"
)

// restartRig is a stored process 1 beside an echoNode 2. Process 1 arms a
// timer of a second on Start, counts the timers that fire and the
// HEARTBEAT_ACKs it receives, and answers a HEARTBEAT with an eager entry
// and a HEARTBEAT_ACK to process 2, held until the entry's commit
// completes CommitTime later.
type restartRig struct {
	s              *Sim
	store          *wal.Memory
	echo           *echoNode
	timers, acks   int
	heartbeatsSeen int
}

func newRestartRig() *restartRig {
	r := &restartRig{store: wal.NewMemory()}
	r.s = New(Config{Latency: Uniform(10 * time.Millisecond), CommitTime: 5 * time.Millisecond})
	r.echo = &echoNode{pid: 2, sim: r.s}
	r.s.AddStored(node.Func{PID: 1, F: func(in node.Input, fx *node.Effects) {
		switch in := in.(type) {
		case node.Start:
			fx.SetTimer(time.Second, node.TimerRetry, 0)
		case node.Timer:
			r.timers++
		case node.Recv:
			switch in.Msg.(type) {
			case msgs.HeartbeatAck:
				r.acks++
			case msgs.Heartbeat:
				r.heartbeatsSeen++
				fx.Persist(wal.Entry{Kind: wal.EntryFrontier, Max: mcast.Timestamp{Time: 1}})
				fx.Send(2, msgs.HeartbeatAck{})
			}
		}
	}}, r.store)
	r.s.Add(r.echo)
	return r
}

// load puts in flight a HEARTBEAT_ACK to process 1 (process 2's answer to
// an injected HEARTBEAT, due 10 ms on) and a commit of process 1 (its
// answer to an injected HEARTBEAT, due 5 ms on).
func (r *restartRig) load() {
	now := r.s.Now()
	r.s.Inject(now, 2, node.Recv{From: 1, Msg: msgs.Heartbeat{}})
	r.s.Inject(now, 1, node.Recv{From: 2, Msg: msgs.Heartbeat{}})
}

// TestRestartPurge: a restarted process loses the timers it armed and its
// commit in flight; the messages in flight to it and every ControlAt
// callback stay; and the slots of what the purge drops are reused, so
// after a thousand crash/restart cycles the payload slab is no larger than
// the most events ever queued at once.
func TestRestartPurge(t *testing.T) {
	r := newRestartRig()
	ctls := 0
	r.s.ControlAt(30*time.Millisecond, func() { ctls++ })
	r.load()
	r.s.Run(2 * time.Millisecond) // the commit is in flight, the ACK on its way
	if r.heartbeatsSeen != 1 {
		t.Fatalf("process 1 handled %d HEARTBEATs, want 1", r.heartbeatsSeen)
	}
	r.s.Crash(1)
	r.s.Restart(1)
	r.s.Run(3 * time.Second)
	if r.timers != 1 {
		t.Errorf("%d timers fired, want 1: the one the restart's Start armed", r.timers)
	}
	if r.acks != 1 {
		t.Errorf("process 1 received %d HEARTBEAT_ACKs, want the 1 in flight to it", r.acks)
	}
	if ctls != 1 {
		t.Errorf("the ControlAt callback ran %d times, want 1", ctls)
	}
	if got := r.s.MessageCount(msgs.KindHeartbeatAck); got != 1 {
		t.Errorf("%d HEARTBEAT_ACKs received in all, want 1: the held one went with its commit", got)
	}
	if rs, err := r.store.Load(); err != nil || !rs.Empty() {
		t.Errorf("the store holds %+v (%v), want nothing: the commit in flight was lost", rs, err)
	}

	// The cycles, run as Run does but one event at a time, so that the peak
	// of Pending is exact.
	r = newRestartRig()
	peak := 0
	run := func(until time.Duration) {
		for r.s.events.Len() > 0 && r.s.events.Min().at <= until {
			peak = max(peak, r.s.Pending())
			r.s.dispatch(r.s.pop())
		}
		peak, r.s.now = max(peak, r.s.Pending()), until
	}
	for cycle := 0; cycle < 1000; cycle++ {
		r.load()
		run(r.s.Now() + 2*time.Millisecond)
		r.s.Crash(1)
		r.s.Restart(1)
		run(r.s.Now() + 3*time.Millisecond)
	}
	if len(r.s.slab) > peak {
		t.Errorf("the slab holds %d slots after 1000 restarts; at most %d events were ever queued", len(r.s.slab), peak)
	}
	if r.timers != 0 || r.heartbeatsSeen != 1000 {
		t.Errorf("%d timers fired and %d HEARTBEATs handled, want 0 and 1000", r.timers, r.heartbeatsSeen)
	}
}
