package core_test

import (
	"math/rand"
	"testing"
	"time"

	"wbcast/internal/core"
	"wbcast/internal/harness"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/sim"
)

// forceCandidacy injects the forced-candidacy timer at pid.
func forceCandidacy(c *harness.Cluster, at time.Duration, pid mcast.ProcessID) {
	c.Sim.Inject(at, pid, node.Timer{Kind: node.TimerCandidacy, Data: 1})
}

func replica(c *harness.Cluster, pid mcast.ProcessID) *core.Replica {
	return c.Replica(pid).(*core.Replica)
}

// TestLeaderCrashManualRecovery: the group leader crashes after delivering
// one message; a follower takes over via the two-stage recovery and the
// system keeps multicasting.
func TestLeaderCrashManualRecovery(t *testing.T) {
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 1,
		Latency: sim.Uniform(delta), Retry: 20 * delta,
	}, core.Protocol{RetryInterval: 20 * delta})
	m1 := c.Submit(0, 0, mcast.NewGroupSet(0, 1), []byte("before"))
	c.Sim.Run(100 * time.Millisecond) // m1 fully delivered
	c.Crash(0)                        // leader of group 0
	forceCandidacy(c, 110*time.Millisecond, 1)
	c.Sim.Run(200 * time.Millisecond)
	if got := replica(c, 1).Status(); got != core.StatusLeader {
		t.Fatalf("p1 status = %v, want LEADER", got)
	}
	m2 := c.Submit(200*time.Millisecond, 0, mcast.NewGroupSet(0, 1), []byte("after"))
	c.Sim.Run(2 * time.Second)
	requireClean(t, c, audit, true)
	for _, id := range []mcast.MsgID{m1, m2} {
		if _, ok := c.DeliveryLatency(id, 0); !ok {
			t.Errorf("%v not delivered in group 0", id)
		}
	}
	// The new leader re-delivered committed messages from the beginning;
	// followers must have suppressed duplicates (checked by Integrity), and
	// both survivors of group 0 deliver both messages in order.
	for _, pid := range []mcast.ProcessID{1, 2} {
		ds := c.Sim.DeliveriesAt(pid)
		if len(ds) != 2 || ds[0].D.Msg.ID != m1 || ds[1].D.Msg.ID != m2 {
			t.Errorf("p%d delivery sequence unexpected: %v", pid, ds)
		}
	}
}

// TestClockMayDecreaseOnRecovery reproduces the §IV observation: a leader
// that assigned a local timestamp and crashed before a quorum accepted it
// leaves the new leader with a smaller clock — which is safe.
func TestClockMayDecreaseOnRecovery(t *testing.T) {
	// Delay the old leader's ACCEPTs forever so no follower learns m.
	lat := func(from, to mcast.ProcessID, m msgs.Message, _ time.Duration, _ *rand.Rand) time.Duration {
		if _, ok := m.(msgs.Accept); ok && from == 0 {
			return time.Hour
		}
		return delta
	}
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 1, GroupSize: 3, NumClients: 1,
		Latency: lat, Retry: 20 * delta,
	}, core.Protocol{RetryInterval: 20 * delta})
	m := c.Submit(0, 0, mcast.NewGroupSet(0), []byte("m"))
	c.Sim.Run(15 * time.Millisecond) // p0 proposed m (clock=1), ACCEPTs stuck
	if got := replica(c, 0).Clock(); got != 1 {
		t.Fatalf("old leader clock = %d, want 1", got)
	}
	c.Crash(0)
	forceCandidacy(c, 20*time.Millisecond, 1)
	c.Sim.Run(100 * time.Millisecond)
	r1 := replica(c, 1)
	if r1.Status() != core.StatusLeader {
		t.Fatal("p1 did not become leader")
	}
	if got := r1.Clock(); got != 0 {
		t.Errorf("recovered clock = %d, want 0 (decreased)", got)
	}
	if got := r1.Phase(m); got != msgs.PhaseStart {
		t.Errorf("phase of lost message = %v, want START", got)
	}
	// The client's retry re-introduces m through the new leader.
	c.Sim.Run(2 * time.Second)
	requireClean(t, c, audit, true)
	if _, ok := c.DeliveryLatency(m, 0); !ok {
		t.Error("m never delivered after recovery")
	}
}

// TestResurrectionPrevention reproduces the p1/p2/p3 scenario of §IV
// ("Discussion of leader recovery") end-to-end, exercising Invariant 5 and
// the two-stage recovery that enforces it.
//
// Group of five: L0 (leader, b1) assigns m a local timestamp that reaches
// only F1 before L0 crashes. L2 recovers at b2 from a quorum excluding F1,
// so m vanishes from the group state; L2 then commits and delivers m'. L2
// crashes; L3 recovers at b3 from a quorum INCLUDING F1. Because F1's
// cballot (b1) is below the maximal reported cballot (b2), F1's record of m
// must be discarded — resurrecting it could give m a global timestamp equal
// to m”s, invalidating L2's delivery decision.
func TestResurrectionPrevention(t *testing.T) {
	// p0..p4 in one group of five; clients are pids 5, 6.
	block := map[[2]mcast.ProcessID]bool{
		{1, 2}: true, // F1's recovery traffic never reaches L2=p2
		{2, 1}: true, // L2's NEWLEADER/NEW_STATE never reach F1: F1 keeps m at b1
	}
	var mID mcast.MsgID // m, once known
	lat := func(from, to mcast.ProcessID, m msgs.Message, _ time.Duration, _ *rand.Rand) time.Duration {
		switch msg := m.(type) {
		case msgs.Accept:
			// L0's ACCEPT for m reaches only F1=p1 (and itself).
			if mID != 0 && msg.M.ID == mID && from == 0 && to != 0 && to != 1 {
				return time.Hour
			}
		case msgs.NewLeader, msgs.NewLeaderAck, msgs.NewState, msgs.NewStateAck:
			if block[[2]mcast.ProcessID{from, to}] {
				return time.Hour
			}
		}
		return delta
	}
	// The client retry interval (60δ = 600 ms) is chosen so that m's first
	// re-multicast lands only after the third leadership change below.
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 1, GroupSize: 5, NumClients: 2,
		Latency: lat, Retry: 60 * delta,
	}, core.Protocol{RetryInterval: 60 * delta})

	// Warm the group: two messages through L0 reach everyone and raise all
	// clocks to 2 (so the colliding timestamps below are non-trivial).
	c.Submit(0, 0, mcast.NewGroupSet(0), []byte("w1"))
	c.Submit(0, 0, mcast.NewGroupSet(0), []byte("w2"))
	c.Sim.Run(100 * time.Millisecond)

	// m: proposed by L0 with lts (3,g0); the ACCEPT reaches only F1.
	mID = c.Submit(100*time.Millisecond, 0, mcast.NewGroupSet(0), []byte("m"))
	c.Sim.Run(125 * time.Millisecond)
	if got := replica(c, 1).Phase(mID); got != msgs.PhaseAccepted {
		t.Fatalf("F1 phase of m = %v, want ACCEPTED", got)
	}
	c.Crash(0)

	// L2 recovers at b2 from {p2,p3,p4}: m is not in the recovered state.
	forceCandidacy(c, 130*time.Millisecond, 2)
	c.Sim.Run(220 * time.Millisecond)
	if got := replica(c, 2).Status(); got != core.StatusLeader {
		t.Fatalf("L2 status = %v, want LEADER", got)
	}
	if got := replica(c, 2).Phase(mID); got != msgs.PhaseStart {
		t.Fatalf("L2 phase of m = %v, want START (m lost at b2)", got)
	}
	if got := replica(c, 1).Phase(mID); got != msgs.PhaseAccepted {
		t.Fatalf("F1 must still hold m ACCEPTED at b1, got %v", got)
	}

	// m': handed directly to L2, committed and delivered at b2 with
	// lts (3,g0) — exactly the timestamp F1 still holds for m. Resurrecting
	// m would therefore give two messages the same global timestamp.
	mPrime := c.SubmitDirect(250*time.Millisecond, 1, mcast.NewGroupSet(0), []byte("m'"), 2)
	c.Sim.Run(480 * time.Millisecond)
	if _, ok := c.DeliveryLatency(mPrime, 0); !ok {
		t.Fatal("m' not delivered under L2")
	}

	// L2 crashes; L3 recovers at b3 from a quorum including F1.
	c.Crash(2)
	forceCandidacy(c, 490*time.Millisecond, 3)
	c.Sim.Run(600 * time.Millisecond)
	r3 := replica(c, 3)
	if r3.Status() != core.StatusLeader {
		t.Fatal("L3 did not become leader")
	}
	if got := r3.Phase(mPrime); got != msgs.PhaseCommitted {
		t.Errorf("L3 phase of m' = %v, want COMMITTED", got)
	}
	// The heart of the test: F1's stale record of m (cballot b1 < b2) must
	// have been discarded by the J-rule of Fig. 4 line 51.
	if got := r3.Phase(mID); got != msgs.PhaseStart {
		t.Errorf("L3 phase of m = %v, want START — m was resurrected, violating Invariant 5", got)
	}

	// The client's retry of m (at t = 700 ms) reaches L3, which re-proposes
	// it fresh, ordered after m'. (Invariant 4 would be violated by a gts
	// collision if resurrection had happened.)
	c.Sim.Run(5 * time.Second)
	requireClean(t, c, audit, true)
	m := mID
	for _, pid := range []mcast.ProcessID{1, 3, 4} {
		var mAt, mpAt = -1, -1
		for i, d := range c.Sim.DeliveriesAt(pid) {
			switch d.D.Msg.ID {
			case m:
				mAt = i
			case mPrime:
				mpAt = i
			}
		}
		if mAt < 0 || mpAt < 0 {
			t.Errorf("p%d missing deliveries of m/m'", pid)
			continue
		}
		if mpAt > mAt {
			t.Errorf("p%d delivered m before m' — L2's delivery decision was invalidated", pid)
		}
	}
}

// TestAutomaticFailover exercises the full liveness stack: heartbeats,
// suspicion, staggered candidacy and client retries, with no manual help.
func TestAutomaticFailover(t *testing.T) {
	proto := core.Protocol{
		RetryInterval:     30 * delta,
		HeartbeatInterval: 5 * delta,
		SuspectTimeout:    20 * delta,
	}
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 2,
		Latency: sim.Uniform(delta), Retry: 30 * delta, Seed: 5,
	}, proto)
	m1 := c.Submit(0, 0, mcast.NewGroupSet(0, 1), nil)
	c.Sim.Run(100 * time.Millisecond)
	c.Crash(0) // leader of group 0; followers must detect and fail over
	m2 := c.Submit(200*time.Millisecond, 1, mcast.NewGroupSet(0, 1), nil)
	c.Sim.Run(10 * time.Second)
	requireClean(t, c, audit, true)
	for _, id := range []mcast.MsgID{m1, m2} {
		for _, g := range []mcast.GroupID{0, 1} {
			if _, ok := c.DeliveryLatency(id, g); !ok {
				t.Errorf("%v not delivered in group %d after failover", id, g)
			}
		}
	}
	// Exactly one of p1, p2 leads group 0 now.
	leaders := 0
	for _, pid := range []mcast.ProcessID{1, 2} {
		if replica(c, pid).Status() == core.StatusLeader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("group 0 has %d leaders, want 1", leaders)
	}
}

// coldStart is the white-box protocol with every replica started as a
// follower and nobody leading (core.Config.ColdStart). It is no
// harness.Builder, so every replica is built by NewReplica.
type coldStart struct{ retry, heartbeat, suspect time.Duration }

func (coldStart) Name() string { return "wbcast" }

func (p coldStart) NewReplica(pid mcast.ProcessID, top *mcast.Topology) (node.Handler, error) {
	return core.NewReplica(core.Config{PID: pid, Top: top, RetryInterval: p.retry,
		HeartbeatInterval: p.heartbeat, SuspectTimeout: p.suspect, ColdStart: true})
}

// TestColdStartElection: with ColdStart nobody leads initially; the failure
// detector must bootstrap a leader in every group before any delivery.
func TestColdStartElection(t *testing.T) {
	proto := coldStart{retry: 30 * delta, heartbeat: 5 * delta, suspect: 20 * delta}
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 1,
		Latency: sim.Uniform(delta), Retry: 30 * delta,
	}, proto)
	m := c.Submit(0, 0, mcast.NewGroupSet(0, 1), nil)
	c.Sim.Run(10 * time.Second)
	requireClean(t, c, audit, true)
	if _, ok := c.MaxDeliveryLatency(m, mcast.NewGroupSet(0, 1)); !ok {
		t.Fatal("message not delivered after cold-start election")
	}
}

// TestRecoveryWithPendingAccepted: messages in flight (ACCEPTED but not
// committed) when the leader crashes are resumed by the new leader via the
// retry mechanism, not lost.
func TestRecoveryWithPendingAccepted(t *testing.T) {
	// Remote group's ACCEPT_ACKs to group 0's old leader are stalled so the
	// message stays uncommitted at crash time.
	var stall bool
	lat := func(from, to mcast.ProcessID, m msgs.Message, _ time.Duration, _ *rand.Rand) time.Duration {
		if _, ok := m.(msgs.AcceptAck); ok && stall && to == 0 {
			return time.Hour
		}
		return delta
	}
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 1,
		Latency: lat, Retry: 25 * delta,
	}, core.Protocol{RetryInterval: 25 * delta})
	stall = true
	m := c.Submit(0, 0, mcast.NewGroupSet(0, 1), nil)
	c.Sim.Run(50 * time.Millisecond)
	// Group 1's leader cannot commit either: it needs a quorum from group 0,
	// which it has, and from its own group — it commits; but group 0's
	// leader never commits. Either way group 0 is stuck until recovery.
	c.Crash(0)
	stall = false
	forceCandidacy(c, 60*time.Millisecond, 1)
	c.Sim.Run(10 * time.Second)
	requireClean(t, c, audit, true)
	if _, ok := c.DeliveryLatency(m, 0); !ok {
		t.Error("stuck message never delivered in group 0 after recovery")
	}
	if _, ok := c.DeliveryLatency(m, 1); !ok {
		t.Error("stuck message never delivered in group 1 after recovery")
	}
}

// TestStaleBallotMessagesIgnored: DELIVERs and ACCEPT evaluation from a
// deposed leader's ballot must not take effect after recovery.
func TestStaleBallotMessagesIgnored(t *testing.T) {
	// Hold the old leader's DELIVERs to follower p2 until after recovery.
	var hold bool
	lat := func(from, to mcast.ProcessID, m msgs.Message, _ time.Duration, _ *rand.Rand) time.Duration {
		if _, ok := m.(msgs.Deliver); ok && hold && from == 0 && to == 2 {
			return 300 * time.Millisecond // arrives after the ballot changed
		}
		return delta
	}
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 1, GroupSize: 3, NumClients: 1,
		Latency: lat, Retry: 25 * delta,
	}, core.Protocol{RetryInterval: 25 * delta})
	hold = true
	m1 := c.Submit(0, 0, mcast.NewGroupSet(0), nil)
	c.Sim.Run(50 * time.Millisecond)
	hold = false
	c.Crash(0)
	forceCandidacy(c, 60*time.Millisecond, 1)
	c.Sim.Run(5 * time.Second)
	requireClean(t, c, audit, true)
	// p2 must deliver m1 exactly once (from the new leader's re-delivery;
	// the stale DELIVER of ballot b1 that arrives at t=300ms is rejected by
	// the cballot guard). Integrity above already proves "at most once";
	// check "exactly once" explicitly.
	n := 0
	for _, d := range c.Sim.DeliveriesAt(2) {
		if d.D.Msg.ID == m1 {
			n++
		}
	}
	if n != 1 {
		t.Errorf("p2 delivered m1 %d times, want 1", n)
	}
}

// TestRandomLeaderCrashes: across seeds, crash a random leader mid-workload
// with the full liveness stack on; the specification must hold throughout.
func TestRandomLeaderCrashes(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		proto := core.Protocol{
			RetryInterval:     30 * delta,
			HeartbeatInterval: 5 * delta,
			SuspectTimeout:    20 * delta,
		}
		c, audit := newAuditedCluster(t, harness.Options{
			Groups: 3, GroupSize: 3, NumClients: 4,
			Latency: sim.UniformJitter(delta/2, delta), Retry: 30 * delta, Seed: seed,
		}, proto)
		rng := rand.New(rand.NewSource(seed))
		c.RandomWorkload(rng, 40, 3, 400*time.Millisecond)
		// Crash the initial leader of a random group partway through.
		victim := mcast.GroupID(rng.Intn(3))
		c.Sim.Run(time.Duration(rng.Int63n(int64(200 * time.Millisecond))))
		c.Crash(c.Top.InitialLeader(victim))
		c.Sim.Run(20 * time.Second)
		requireClean(t, c, audit, true)
	}
}
