package core_test

import (
	"math/rand"
	"testing"
	"time"

	"wbcast/internal/core"
	"wbcast/internal/harness"
	"wbcast/internal/mcast"
	"wbcast/internal/node"
	"wbcast/internal/sim"
)

// TestGarbageCollection: with heartbeats and GC enabled, delivered messages
// are pruned from every replica once all destination groups' watermarks have
// passed them — and correctness is unaffected.
func TestGarbageCollection(t *testing.T) {
	proto := core.Protocol{
		RetryInterval:     30 * delta,
		HeartbeatInterval: 3 * delta,
		SuspectTimeout:    20 * delta,
		GCInterval:        10 * delta,
	}
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 3, GroupSize: 3, NumClients: 3,
		Latency: sim.Uniform(delta), Retry: 30 * delta, Seed: 11,
	}, proto)
	rng := rand.New(rand.NewSource(11))
	c.RandomWorkload(rng, 60, 3, 300*time.Millisecond)
	// Run long enough for several GC rounds after quiescence of the
	// workload (heartbeat acks carry watermarks; GC fires every 100 ms).
	c.Sim.Run(5 * time.Second)
	requireClean(t, c, audit, true)

	for pid := mcast.ProcessID(0); int(pid) < c.Top.NumReplicas(); pid++ {
		r := replica(c, pid)
		if r.Pruned() == 0 {
			t.Errorf("p%d pruned nothing", pid)
		}
		if r.StateSize() != 0 {
			t.Errorf("p%d still tracks %d messages after full GC", pid, r.StateSize())
		}
	}
}

// TestGCRespectsAppHorizon: with AppGCHorizon set, the watermark machinery
// alone licenses nothing — pruning additionally waits for node.GCHorizon
// inputs raising the application durability horizon, and never crosses it.
func TestGCRespectsAppHorizon(t *testing.T) {
	proto := core.Protocol{
		RetryInterval:     30 * delta,
		HeartbeatInterval: 3 * delta,
		SuspectTimeout:    20 * delta,
		GCInterval:        10 * delta,
		AppGCHorizon:      true,
	}
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 2,
		Latency: sim.Uniform(delta), Retry: 30 * delta, Seed: 7,
	}, proto)
	rng := rand.New(rand.NewSource(7))
	c.RandomWorkload(rng, 40, 2, 300*time.Millisecond)
	c.Sim.Run(5 * time.Second)
	requireClean(t, c, audit, true)

	// Several GC rounds have passed and every watermark covers every
	// delivery, yet no replica has seen a horizon: nothing may be pruned.
	for pid := mcast.ProcessID(0); int(pid) < c.Top.NumReplicas(); pid++ {
		r := replica(c, pid)
		if r.Pruned() != 0 {
			t.Fatalf("p%d pruned %d messages before any GCHorizon input", pid, r.Pruned())
		}
		if r.StateSize() == 0 {
			t.Fatalf("p%d tracks no delivered messages; test is vacuous", pid)
		}
	}

	// A mid-stream horizon at one replica prunes exactly the records at or
	// below it, and only there.
	const pid0 = mcast.ProcessID(0)
	recs := c.Sim.DeliveriesAt(pid0) // in delivery (= GTS) order
	if len(recs) < 4 {
		t.Fatalf("only %d deliveries at p0; test is vacuous", len(recs))
	}
	mid := recs[len(recs)/2].D.GTS
	below := len(recs)/2 + 1 // GTSs are distinct within a group's projection
	c.Sim.Inject(c.Sim.Now(), pid0, node.GCHorizon{TS: mid})
	c.Sim.Run(c.Sim.Now() + 2*time.Second)
	if got := replica(c, pid0).Pruned(); got != below {
		t.Errorf("p0 pruned %d messages with horizon %v, want %d", got, mid, below)
	}
	if got := replica(c, 1).Pruned(); got != 0 {
		t.Errorf("p1 pruned %d messages without a horizon of its own", got)
	}

	// Raising every replica's horizon above all deliveries releases the
	// remaining records everywhere.
	all := mcast.Timestamp{Time: ^uint64(0)}
	for pid := mcast.ProcessID(0); int(pid) < c.Top.NumReplicas(); pid++ {
		c.Sim.Inject(c.Sim.Now(), pid, node.GCHorizon{TS: all})
	}
	c.Sim.Run(c.Sim.Now() + 2*time.Second)
	requireClean(t, c, audit, true)
	for pid := mcast.ProcessID(0); int(pid) < c.Top.NumReplicas(); pid++ {
		if n := replica(c, pid).StateSize(); n != 0 {
			t.Errorf("p%d still tracks %d messages after full-horizon GC", pid, n)
		}
	}
}

// TestGCWithCrashedFollower: a crashed follower freezes its group's
// watermark, so GC stalls for messages addressed to that group — the safety
// trade-off documented in the GC paragraph of docs/PROTOCOL.md — but the
// system keeps running and other groups still collect garbage.
func TestGCWithCrashedFollower(t *testing.T) {
	proto := core.Protocol{
		RetryInterval:     30 * delta,
		HeartbeatInterval: 3 * delta,
		SuspectTimeout:    20 * delta,
		GCInterval:        10 * delta,
	}
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 2,
		Latency: sim.Uniform(delta), Retry: 30 * delta, Seed: 4,
	}, proto)
	c.Crash(5) // follower of group 1, never advances its watermark
	// Messages only to group 0: prunable. Messages touching group 1: stuck.
	var g0Only, g1Touch []mcast.MsgID
	for i := 0; i < 10; i++ {
		g0Only = append(g0Only, c.Submit(time.Duration(i)*5*time.Millisecond, 0, mcast.NewGroupSet(0), nil))
		g1Touch = append(g1Touch, c.Submit(time.Duration(i)*5*time.Millisecond, 1, mcast.NewGroupSet(0, 1), nil))
	}
	c.Sim.Run(5 * time.Second)
	requireClean(t, c, audit, true)
	r0 := replica(c, 0)
	if r0.Pruned() < len(g0Only) {
		t.Errorf("leader of group 0 pruned %d messages, want ≥ %d (the group-0-only ones)", r0.Pruned(), len(g0Only))
	}
	// Group-1-touching messages must still be tracked somewhere in group 0
	// (their GTS is above group 1's frozen watermark).
	if r0.StateSize() < len(g1Touch) {
		t.Errorf("leader of group 0 tracks %d messages, want ≥ %d (unprunable ones)", r0.StateSize(), len(g1Touch))
	}
}

// TestGCSurvivesRecovery: GC interacts safely with a leader change — the
// new leader rebuilds watermark tracking and pruning resumes.
func TestGCSurvivesRecovery(t *testing.T) {
	proto := core.Protocol{
		RetryInterval:     30 * delta,
		HeartbeatInterval: 3 * delta,
		SuspectTimeout:    15 * delta,
		GCInterval:        10 * delta,
	}
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 2,
		Latency: sim.Uniform(delta), Retry: 30 * delta, Seed: 8,
	}, proto)
	rng := rand.New(rand.NewSource(8))
	c.RandomWorkload(rng, 20, 2, 200*time.Millisecond)
	c.Sim.Run(300 * time.Millisecond)
	c.Crash(0) // leader of group 0; automatic failover
	rng2 := rand.New(rand.NewSource(80))
	for i := 0; i < 20; i++ {
		k := 1 + rng2.Intn(2)
		gs := make([]mcast.GroupID, k)
		for j := range gs {
			gs[j] = mcast.GroupID(rng2.Intn(2))
		}
		c.Submit(400*time.Millisecond+time.Duration(i)*10*time.Millisecond, i%2, mcast.NewGroupSet(gs...), nil)
	}
	c.Sim.Run(20 * time.Second)
	requireClean(t, c, audit, true)
	// The new leader of group 0 must have pruned delivered messages.
	for _, pid := range []mcast.ProcessID{1, 2} {
		if replica(c, pid).Status() == core.StatusLeader && replica(c, pid).Pruned() == 0 {
			t.Errorf("new leader p%d pruned nothing", pid)
		}
	}
}
