package node_test

import (
	"testing"
	"time"

	"wbcast/internal/node"
)

// TestSuspicionDeadline: only the expiries of the latest Arm count, its two
// legs add up to timeout + rank·heartbeat/2, and the expiry re-arms.
func TestSuspicionDeadline(t *testing.T) {
	const hb, timeout = 10 * time.Millisecond, 40 * time.Millisecond
	s := node.NewSuspicion(hb, timeout, 2)
	if want := timeout + hb; s.After != want {
		t.Fatalf("After = %v, want %v", s.After, want)
	}
	if d := node.NewSuspicion(hb, 0, 0); d.After != 4*hb {
		t.Errorf("default timeout: After = %v, want 4×heartbeat", d.After)
	}
	var fx node.Effects
	s.Arm(&fx) // the start
	s.Arm(&fx) // a heartbeat
	if len(fx.Timers) != 2 || fx.Timers[0].Data == fx.Timers[1].Data {
		t.Fatalf("two arms set %+v, want two timers of different epochs", fx.Timers)
	}
	first, second := fx.Timers[0], fx.Timers[1]
	fx.Reset()
	if s.Expired(node.Timer{Kind: first.Kind, Data: first.Data}, &fx) || len(fx.Timers) != 0 {
		t.Fatal("the expiry of a superseded arm counted")
	}
	// The first leg only starts the second; together they are After.
	if s.Expired(node.Timer{Kind: second.Kind, Data: second.Data}, &fx) || len(fx.Timers) != 1 {
		t.Fatalf("the first leg's expiry counted, or armed %+v", fx.Timers)
	}
	grace := fx.Timers[0]
	if second.Kind != node.TimerSuspect || grace.Kind != node.TimerSuspect || second.After+grace.After != s.After || grace.After <= 0 {
		t.Fatalf("legs %+v and %+v, want two TimerSuspect adding up to %v", second, grace, s.After)
	}
	fx.Reset()
	if !s.Expired(node.Timer{Kind: grace.Kind, Data: grace.Data}, &fx) {
		t.Fatal("the expiry of the latest arm's second leg did not count")
	}
	if len(fx.Timers) != 1 || fx.Timers[0].Data == grace.Data {
		t.Fatalf("an expiry re-armed %+v, want one timer of a fresh epoch", fx.Timers)
	}
	if s.Expired(node.Timer{Kind: grace.Kind, Data: grace.Data}, &fx) {
		t.Error("one expiry counted twice")
	}
}

// TestSuspicionOverdueHeartbeatWins: after a host stall the overdue timer is
// handled first and the overdue heartbeat right behind it; nobody is suspected.
func TestSuspicionOverdueHeartbeatWins(t *testing.T) {
	s := node.NewSuspicion(10*time.Millisecond, 40*time.Millisecond, 0)
	var fx node.Effects
	s.Arm(&fx)
	late := fx.Timers[0]
	fx.Reset()
	if s.Expired(node.Timer{Kind: late.Kind, Data: late.Data}, &fx) {
		t.Fatal("the first leg's expiry counted")
	}
	grace := fx.Timers[0]
	s.Arm(&fx) // the heartbeat that was queued behind the timer
	if s.Expired(node.Timer{Kind: grace.Kind, Data: grace.Data}, &fx) {
		t.Fatal("suspected a leader whose heartbeat arrived within the grace")
	}
}

// TestSuspicionOff: without heartbeats nothing is armed and nothing expires.
func TestSuspicionOff(t *testing.T) {
	s := node.NewSuspicion(0, 40*time.Millisecond, 1)
	var fx node.Effects
	s.Arm(&fx)
	if len(fx.Timers) != 0 || s.Expired(node.Timer{Kind: node.TimerSuspect}, &fx) {
		t.Errorf("a detector without heartbeats armed %+v or expired", fx.Timers)
	}
}
