package faults

import (
	"testing"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/sim"
)

// pingers builds two handlers: p0 re-sends a MULTICAST to p1 on every timer
// tick, p1 counts what it receives.
func pingers(received *int) (node.Handler, node.Handler) {
	m := mcast.AppMsg{ID: mcast.MakeMsgID(0, 1), Dest: mcast.NewGroupSet(0)}
	p0 := node.Func{PID: 0, F: func(in node.Input, fx *node.Effects) {
		switch in.(type) {
		case node.Start, node.Timer:
			fx.Send(1, msgs.Multicast{M: m})
			fx.SetTimer(10*time.Millisecond, node.TimerApp, 0)
		}
	}}
	p1 := node.Func{PID: 1, F: func(in node.Input, fx *node.Effects) {
		if _, ok := in.(node.Recv); ok {
			*received++
		}
	}}
	return p0, p1
}

func newEngineSim(t *testing.T, plan Plan, received *int) (*Engine, *sim.Sim) {
	t.Helper()
	e := New(Config{Plan: plan})
	s := sim.New(sim.Config{
		Latency:    sim.Uniform(time.Millisecond),
		Filter:     e.Filter,
		TimerScale: e.ScaleTimer,
	})
	e.Bind(s)
	p0, p1 := pingers(received)
	s.Add(p0)
	s.Add(p1)
	return e, s
}

func TestPartitionDropsAndHeals(t *testing.T) {
	var received int
	plan := Plan{}
	plan.At(95*time.Millisecond, Partition{Sides: [][]mcast.ProcessID{{0}, {1}}})
	plan.At(195*time.Millisecond, Heal{})
	_, s := newEngineSim(t, plan, &received)

	s.Run(94 * time.Millisecond) // ~10 ticks, all through (last arrival 91ms)
	before := received
	if before == 0 {
		t.Fatal("no messages before the partition")
	}
	s.Run(190 * time.Millisecond) // partitioned: everything dropped
	if received != before {
		t.Fatalf("received %d messages across the partition", received-before)
	}
	if s.TotalDropped() == 0 {
		t.Fatal("partition dropped nothing")
	}
	s.Run(300 * time.Millisecond) // healed
	if received == before {
		t.Fatal("no messages after heal")
	}
}

func TestIsolateAndOneWay(t *testing.T) {
	var received int
	plan := Plan{}
	plan.At(0, Isolate{P: 1})
	_, s := newEngineSim(t, plan, &received)
	s.Run(100 * time.Millisecond)
	if received != 0 {
		t.Fatalf("isolated p1 received %d messages", received)
	}

	received = 0
	plan = Plan{}
	plan.At(0, OneWay{From: []mcast.ProcessID{0}, To: []mcast.ProcessID{1}})
	_, s = newEngineSim(t, plan, &received)
	s.Run(100 * time.Millisecond)
	if received != 0 {
		t.Fatalf("one-way-partitioned p1 received %d messages", received)
	}
}

func TestCountTriggerCrash(t *testing.T) {
	var received int
	plan := Plan{}
	plan.AfterSends(5, Crash{P: 0})
	e := New(Config{Plan: plan})
	s := sim.New(sim.Config{
		Latency: sim.Uniform(time.Millisecond),
		Filter:  e.Filter,
	})
	e.Bind(s)
	p0, p1 := pingers(&received)
	s.Add(p0)
	s.Add(p1)
	s.Run(time.Second)
	if !s.Crashed(0) || s.Crashed(1) {
		t.Fatalf("count trigger crashed p0: %v, p1: %v; want only p0", s.Crashed(0), s.Crashed(1))
	}
	// p0 stops ticking once crashed, so receipts are bounded near the
	// trigger threshold.
	if received == 0 || received > 6 {
		t.Fatalf("expected a handful of receipts before the crash, got %d", received)
	}
	if e.Sends() < 5 {
		t.Fatalf("engine observed only %d sends", e.Sends())
	}
}

func TestRestartResumesTimers(t *testing.T) {
	var received int
	plan := Plan{}
	plan.At(50*time.Millisecond, Crash{P: 0})
	plan.At(150*time.Millisecond, Restart{P: 0})
	_, s := newEngineSim(t, plan, &received)
	s.Run(140 * time.Millisecond)
	mid := received
	s.Run(400 * time.Millisecond)
	if received <= mid {
		t.Fatalf("restarted p0 never resumed sending (received stuck at %d)", received)
	}
}

func TestClockSkewScalesTimers(t *testing.T) {
	plan := Plan{}
	plan.At(0, ClockSkew{P: 3, Factor: 2})
	e := New(Config{Plan: plan})
	s := sim.New(sim.Config{Latency: sim.Uniform(time.Millisecond)})
	e.Bind(s)
	s.Run(0) // fire the control event
	if got := e.ScaleTimer(3, time.Second); got != 2*time.Second {
		t.Fatalf("skewed timer = %v, want 2s", got)
	}
	if got := e.ScaleTimer(2, time.Second); got != time.Second {
		t.Fatalf("unskewed timer = %v, want 1s", got)
	}
}

func TestLinkWildcards(t *testing.T) {
	var received int
	plan := Plan{}
	plan.At(0, SetLink{From: mcast.NoProcess, To: 1, Fault: LinkFault{DropProb: 1}})
	_, s := newEngineSim(t, plan, &received)
	s.Run(100 * time.Millisecond)
	if received != 0 {
		t.Fatalf("wildcard drop link leaked %d messages", received)
	}
	if s.TotalDropped() == 0 {
		t.Fatal("nothing dropped")
	}

	// Clearing restores delivery.
	received = 0
	plan = Plan{}
	plan.At(0, SetLink{From: mcast.NoProcess, To: 1, Fault: LinkFault{DropProb: 1}})
	plan.At(100*time.Millisecond, ClearLinks{})
	_, s = newEngineSim(t, plan, &received)
	s.Run(300 * time.Millisecond)
	if received == 0 {
		t.Fatal("no messages after ClearLinks")
	}
}
