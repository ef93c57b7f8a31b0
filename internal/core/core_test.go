package core_test

import (
	"math/rand"
	"testing"
	"time"

	"wbcast/internal/check"
	"wbcast/internal/core"
	"wbcast/internal/harness"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/sim"
)

const delta = 10 * time.Millisecond

func newAuditedCluster(t *testing.T, opts harness.Options, proto harness.Protocol) (*harness.Cluster, *check.WbAudit) {
	t.Helper()
	top := mcast.UniformTopology(opts.Groups, opts.GroupSize)
	audit := check.NewWbAudit(top)
	opts.Trace = audit.Trace
	c, err := harness.NewCluster(proto, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, audit
}

func requireClean(t *testing.T, c *harness.Cluster, audit *check.WbAudit, atQuiescence bool) {
	t.Helper()
	if errs := c.Check(atQuiescence); len(errs) > 0 {
		t.Fatalf("%d violations, first: %v", len(errs), errs[0])
	}
	if errs := audit.Errors(); len(errs) > 0 {
		t.Fatalf("%d invariant violations, first: %v", len(errs), errs[0])
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := core.NewReplica(core.Config{PID: 0}); err == nil {
		t.Error("nil topology accepted")
	}
	top := mcast.UniformTopology(2, 3)
	if _, err := core.NewReplica(core.Config{PID: 99, Top: top}); err == nil {
		t.Error("non-member accepted")
	}
	r, err := core.NewReplica(core.Config{PID: 0, Top: top})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status() != core.StatusLeader {
		t.Errorf("initial leader status = %v", r.Status())
	}
	r2, _ := core.NewReplica(core.Config{PID: 1, Top: top})
	if r2.Status() != core.StatusFollower {
		t.Errorf("follower status = %v", r2.Status())
	}
	r3, _ := core.NewReplica(core.Config{PID: 0, Top: top, ColdStart: true})
	if r3.Status() != core.StatusFollower || !r3.CBallot().IsZero() {
		t.Errorf("cold start: status=%v cballot=%v", r3.Status(), r3.CBallot())
	}
}

// TestFig5CollisionFreeLatency verifies the paper's headline result
// (Theorem 3 and Fig. 5): in a collision-free run, a message is delivered
// after exactly 3δ at the leaders of its destination groups and 4δ at the
// followers.
func TestFig5CollisionFreeLatency(t *testing.T) {
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 1, Latency: sim.Uniform(delta),
	}, core.Protocol{})
	dest := mcast.NewGroupSet(0, 1)
	id := c.Submit(0, 0, dest, []byte("m"))
	c.Sim.Run(time.Second)
	requireClean(t, c, audit, true)

	for _, g := range dest {
		lat, ok := c.DeliveryLatency(id, g)
		if !ok {
			t.Fatalf("no delivery in group %d", g)
		}
		if lat != 3*delta {
			t.Errorf("leader delivery latency in group %d = %v, want exactly 3δ = %v", g, lat, 3*delta)
		}
	}
	// Followers receive DELIVER one hop after the leader commits.
	for _, pid := range []mcast.ProcessID{1, 2, 4, 5} {
		ds := c.Sim.DeliveriesAt(pid)
		if len(ds) != 1 {
			t.Fatalf("follower %d deliveries = %d", pid, len(ds))
		}
		if ds[0].At != 4*delta {
			t.Errorf("follower %d delivered at %v, want 4δ = %v", pid, ds[0].At, 4*delta)
		}
	}
}

// TestSingleGroupIsPaxos: for a message addressed to one group the protocol
// collapses to the Paxos message flow (paper §IV "Discussion of normal
// operation") and delivers at the leader in 3δ.
func TestSingleGroupIsPaxos(t *testing.T) {
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 3, GroupSize: 3, NumClients: 1, Latency: sim.Uniform(delta),
	}, core.Protocol{})
	id := c.Submit(0, 0, mcast.NewGroupSet(1), nil)
	c.Sim.Run(time.Second)
	requireClean(t, c, audit, true)
	lat, _ := c.DeliveryLatency(id, 1)
	if lat != 3*delta {
		t.Errorf("latency = %v, want 3δ", lat)
	}
	// Genuineness: groups 0 and 2 saw nothing (audited inside requireClean),
	// and only group 1's replicas received ACCEPTs.
	accepts, _ := audit.Counts()
	if accepts != 3 {
		t.Errorf("ACCEPT receptions = %d, want 3", accepts)
	}
}

// TestFailureFreeLatency5Delta replays the white-box analogue of the Fig. 2
// convoy schedule and confirms Theorem 4: even with an adversarial
// conflicting message, delivery takes at most 5δ — the speculative clock
// advance (line 14) caps the convoy window at C = 2δ.
func TestFailureFreeLatency5Delta(t *testing.T) {
	const eps = delta / 100
	var mPrime mcast.MsgID
	warmClient := mcast.ProcessID(7) // client 1 of 2 (6 replicas + 2 clients)
	lat := func(from, to mcast.ProcessID, m msgs.Message, _ time.Duration, _ *rand.Rand) time.Duration {
		if mc, ok := m.(msgs.Multicast); ok && mPrime != 0 && mc.M.ID == mPrime {
			if to == 0 {
				return 0 // MULTICAST(m') reaches g0's leader in ~0
			}
			return delta
		}
		if mc, ok := m.(msgs.Multicast); ok && from == warmClient && mc.M.Dest.Equal(mcast.NewGroupSet(1)) {
			return delta / 2 // warm-up messages arrive before m
		}
		return delta
	}
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 2, Latency: lat,
	}, core.Protocol{})
	// Warm group 1's clock so that gts(m) is issued by g1 with a time
	// component higher than the lts g0's leader will assign to m'.
	for i := 0; i < 4; i++ {
		c.Submit(0, 1, mcast.NewGroupSet(1), nil)
	}
	m := c.Submit(0, 0, mcast.NewGroupSet(0, 1), []byte("m"))
	mPrime = c.Submit(2*delta-eps, 1, mcast.NewGroupSet(0, 1), []byte("m'"))
	c.Sim.Run(time.Second)
	requireClean(t, c, audit, true)

	lat0, ok := c.DeliveryLatency(m, 0)
	if !ok {
		t.Fatal("m not delivered in g0")
	}
	// m commits at g0's leader at 3δ but is blocked by m' (lower lts) until
	// m' commits at 5δ-ε. Failure-free latency ≈ 5δ, not 6δ = 2×3δ.
	want := 5*delta - eps
	if lat0 != want {
		t.Errorf("failure-free latency = %v, want %v (≈5δ)", lat0, want)
	}
	// Sanity: the delivery order must put m (lower gts) before m' in g0.
	var order []mcast.MsgID
	for _, d := range c.Sim.DeliveriesAt(0) {
		order = append(order, d.D.Msg.ID)
	}
	if len(order) != 2 || order[0] != m || order[1] != mPrime {
		t.Errorf("delivery order at leader 0 = %v, want [m, m']", order)
	}
}

// TestMessageComplexity counts protocol messages for one multicast to d
// groups of size n: d·n ACCEPTs per proposing leader (d leaders), one
// ACCEPT_ACK from each of the d·n processes to each of the d leaders, and
// n DELIVERs per group.
func TestMessageComplexity(t *testing.T) {
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 3, GroupSize: 3, NumClients: 1, Latency: sim.Uniform(delta),
	}, core.Protocol{})
	c.Submit(0, 0, mcast.NewGroupSet(0, 1), nil) // d=2, n=3
	c.Sim.Run(time.Second)
	requireClean(t, c, audit, true)
	if got := c.Sim.MessageCount(msgs.KindAccept); got != 12 { // d leaders × d·n targets
		t.Errorf("ACCEPT count = %d, want 12", got)
	}
	if got := c.Sim.MessageCount(msgs.KindAcceptAck); got != 12 { // d·n procs × d leaders
		t.Errorf("ACCEPT_ACK count = %d, want 12", got)
	}
	if got := c.Sim.MessageCount(msgs.KindDeliver); got != 6 { // n per group
		t.Errorf("DELIVER count = %d, want 6", got)
	}
}

// TestRandomWorkloads drives conflicting workloads across seeds with jitter
// and checks the full specification, the Fig. 6 invariants and genuineness.
func TestRandomWorkloads(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c, audit := newAuditedCluster(t, harness.Options{
			Groups: 4, GroupSize: 3, NumClients: 5,
			Latency: sim.UniformJitter(delta/2, delta), Seed: seed,
		}, core.Protocol{})
		rng := rand.New(rand.NewSource(seed))
		c.RandomWorkload(rng, 80, 3, 300*time.Millisecond)
		c.Sim.Run(10 * time.Second)
		requireClean(t, c, audit, true)
	}
}

// TestHighContention: a burst of messages all addressed to the same two
// groups must be delivered in a single agreed order at every replica.
func TestHighContention(t *testing.T) {
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 6,
		Latency: sim.UniformJitter(delta/4, 2*delta), Seed: 3,
	}, core.Protocol{})
	dest := mcast.NewGroupSet(0, 1)
	for i := 0; i < 60; i++ {
		c.Submit(time.Duration(i%7)*time.Millisecond, i%6, dest, nil)
	}
	c.Sim.Run(30 * time.Second)
	requireClean(t, c, audit, true)
	if got := c.CollectHistory().NumDeliveries(); got != 60*6 {
		t.Errorf("deliveries = %d, want %d", got, 60*6)
	}
}

// TestDisjointDestinationsParallel: messages to disjoint groups don't block
// each other — both are delivered at 3δ despite being concurrent.
func TestDisjointDestinationsParallel(t *testing.T) {
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 4, GroupSize: 3, NumClients: 2, Latency: sim.Uniform(delta),
	}, core.Protocol{})
	a := c.Submit(0, 0, mcast.NewGroupSet(0, 1), nil)
	b := c.Submit(0, 1, mcast.NewGroupSet(2, 3), nil)
	c.Sim.Run(time.Second)
	requireClean(t, c, audit, true)
	for id, gs := range map[mcast.MsgID]mcast.GroupSet{a: mcast.NewGroupSet(0, 1), b: mcast.NewGroupSet(2, 3)} {
		lat, ok := c.MaxDeliveryLatency(id, gs)
		if !ok || lat != 3*delta {
			t.Errorf("message %v latency = %v, want 3δ", id, lat)
		}
	}
}

// TestFollowerCrash: one follower per group may crash without affecting
// safety or liveness (quorums of 2/3 remain).
func TestFollowerCrash(t *testing.T) {
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 2,
		Latency: sim.Uniform(delta), Seed: 1,
	}, core.Protocol{})
	c.Crash(2) // follower of group 0
	c.Crash(5) // follower of group 1
	rng := rand.New(rand.NewSource(1))
	c.RandomWorkload(rng, 30, 2, 100*time.Millisecond)
	c.Sim.Run(5 * time.Second)
	requireClean(t, c, audit, true)
}

// TestDuplicateMulticastIdempotent: client retries racing the original
// attempt must not produce duplicate timestamps or deliveries.
func TestDuplicateMulticastIdempotent(t *testing.T) {
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 1,
		Latency: sim.Uniform(delta), Retry: 2 * delta, // retry fires mid-flight
	}, core.Protocol{})
	c.Submit(0, 0, mcast.NewGroupSet(0, 1), nil)
	c.Sim.Run(time.Second)
	requireClean(t, c, audit, true)
	if got := c.CollectHistory().NumDeliveries(); got != 6 {
		t.Errorf("deliveries = %d, want 6", got)
	}
}

// TestGTSExposesTotalOrder: the GTS values attached to deliveries form the
// advertised system-wide total order: sorting any replica's deliveries by
// GTS equals its delivery order, across all replicas of all groups.
func TestGTSExposesTotalOrder(t *testing.T) {
	c, audit := newAuditedCluster(t, harness.Options{
		Groups: 3, GroupSize: 3, NumClients: 3,
		Latency: sim.UniformJitter(delta, delta), Seed: 9,
	}, core.Protocol{})
	rng := rand.New(rand.NewSource(9))
	c.RandomWorkload(rng, 50, 3, 200*time.Millisecond)
	c.Sim.Run(10 * time.Second)
	requireClean(t, c, audit, true) // CheckGTS covers monotonicity + agreement
}
