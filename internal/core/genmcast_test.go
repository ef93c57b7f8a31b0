package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wbcast/internal/core"
	"wbcast/internal/harness"
	"wbcast/internal/mcast"
	"wbcast/internal/sim"
	"wbcast/internal/wal"
)

// timers returns the adapter with the liveness machinery on, matching the
// chaos-test parametrisation of the other fault-tolerant protocols.
func timers(rel mcast.ConflictRelation) core.Protocol {
	return core.Protocol{
		RetryInterval:     20 * delta,
		HeartbeatInterval: 10 * delta,
		SuspectTimeout:    40 * delta,
		Generic:           core.Relation(rel),
	}
}

// inversions counts, per process, delivery pairs that appear out of
// (GTS, Sub) stamp order — the observable signature of an early release of
// a commuting message.
func inversions(c *harness.Cluster) int {
	byProc := make(map[mcast.ProcessID][]mcast.Delivery)
	for _, d := range c.Sim.Deliveries() {
		byProc[d.Proc] = append(byProc[d.Proc], d.D)
	}
	n := 0
	for _, ds := range byProc {
		for i := 1; i < len(ds); i++ {
			if ds[i].Before(ds[i-1]) {
				n++
			}
		}
	}
	return n
}

// TestQuiescence: the partial-order contract holds on random workloads —
// validity, exactly-once, stamp agreement/uniqueness, conflicting pairs
// stamp-ordered everywhere, and Termination. The harness engages the
// partial monitor through the adapter's Conflicts.
func TestQuiescence(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c, err := harness.NewCluster(timers(core.PayloadClasses(4)), harness.Options{
			Groups: 2, GroupSize: 3, NumClients: 3,
			Latency: sim.UniformJitter(delta/2, delta), Seed: seed, Retry: 30 * delta,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		c.RandomWorkload(rng, 40, 2, 300*time.Millisecond)
		if errs := c.RunChecked(20*time.Second, 50*time.Millisecond); len(errs) > 0 {
			t.Fatalf("seed %d: continuous invariant violated: %v", seed, errs[0])
		}
		if errs := c.Check(true); len(errs) > 0 {
			t.Fatalf("seed %d: %d violations, first: %v", seed, len(errs), errs[0])
		}
	}
}

// TestCommutingReordering: with a sparse conflict relation and a contended
// workload, some process must deliver a commuting pair out of stamp order —
// the relaxed path has to actually fire, or genmcast silently degenerates to
// the total-order protocol and the whole point of the fifth protocol is
// untested.
func TestCommutingReordering(t *testing.T) {
	total := 0
	for seed := int64(0); seed < 6; seed++ {
		c, err := harness.NewCluster(timers(core.PayloadClasses(8)), harness.Options{
			Groups: 2, GroupSize: 3, NumClients: 4,
			Latency: sim.UniformJitter(delta/4, delta), Seed: seed, Retry: 30 * delta,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Contended burst to both groups: many concurrent stamps in flight.
		dest := mcast.NewGroupSet(0, 1)
		for i := 0; i < 40; i++ {
			c.Submit(time.Duration(i%7)*time.Millisecond, i%4, dest, []byte(fmt.Sprintf("op-%d", i)))
		}
		if errs := c.RunChecked(20*time.Second, 50*time.Millisecond); len(errs) > 0 {
			t.Fatalf("seed %d: continuous invariant violated: %v", seed, errs[0])
		}
		if errs := c.Check(true); len(errs) > 0 {
			t.Fatalf("seed %d: %d violations, first: %v", seed, len(errs), errs[0])
		}
		total += inversions(c)
	}
	if total == 0 {
		t.Error("no out-of-stamp-order delivery across 6 seeds: early release never fired")
	}
}

// TestAllConflictIsTotalOrder: a nil relation treats every pair as
// conflicting, so genmcast must produce stamp-ordered delivery sequences at
// every process — the degenerate configuration is the white-box protocol.
func TestAllConflictIsTotalOrder(t *testing.T) {
	c, err := harness.NewCluster(timers(nil), harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 3,
		Latency: sim.UniformJitter(delta/4, delta), Seed: 3, Retry: 30 * delta,
	})
	if err != nil {
		t.Fatal(err)
	}
	dest := mcast.NewGroupSet(0, 1)
	for i := 0; i < 30; i++ {
		c.Submit(time.Duration(i%5)*time.Millisecond, i%3, dest, []byte(fmt.Sprintf("m-%d", i)))
	}
	if errs := c.RunChecked(20*time.Second, 50*time.Millisecond); len(errs) > 0 {
		t.Fatalf("continuous invariant violated: %v", errs[0])
	}
	if errs := c.Check(true); len(errs) > 0 {
		t.Fatalf("%d violations, first: %v", len(errs), errs[0])
	}
	if n := inversions(c); n != 0 {
		t.Errorf("%d out-of-stamp-order deliveries under the all-conflict relation, want 0", n)
	}
}

// TestLeaderFailover: the leader of group 0 crashes mid-workload; the new
// leader re-releases every committed message from release sequence 1, and
// the applied-set guard keeps the re-releases exactly-once at the followers.
func TestLeaderFailover(t *testing.T) {
	c, err := harness.NewCluster(timers(core.PayloadClasses(4)), harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 2,
		Latency: sim.Uniform(delta), Seed: 5, Retry: 30 * delta,
	})
	if err != nil {
		t.Fatal(err)
	}
	m1 := c.Submit(0, 0, mcast.NewGroupSet(0, 1), []byte("before-crash"))
	c.Sim.Run(100 * time.Millisecond)
	c.Crash(0) // leader of group 0
	m2 := c.Submit(200*time.Millisecond, 1, mcast.NewGroupSet(0, 1), []byte("after-crash"))
	if errs := c.RunChecked(20*time.Second, 50*time.Millisecond); len(errs) > 0 {
		t.Fatalf("continuous invariant violated: %v", errs[0])
	}
	if errs := c.Check(true); len(errs) > 0 {
		t.Fatalf("%d violations, first: %v", len(errs), errs[0])
	}
	for _, id := range []mcast.MsgID{m1, m2} {
		for _, g := range []mcast.GroupID{0, 1} {
			if _, ok := c.DeliveryLatency(id, g); !ok {
				t.Errorf("%v not delivered in group %d after failover", id, g)
			}
		}
	}
}

// TestDurableRestart: a durable follower crashes and restarts, rebuilding
// from its WAL; the persisted applied set (wal.EntryDelivered) must prevent
// re-application of anything it already exposed, and Termination must hold
// for everything in flight.
func TestDurableRestart(t *testing.T) {
	stores := make(map[mcast.ProcessID]wal.Storage)
	storage := func(pid mcast.ProcessID) (wal.Storage, error) {
		st := wal.NewMemory()
		stores[pid] = st
		return st, nil
	}
	c, err := harness.NewCluster(timers(core.PayloadClasses(4)), harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 2,
		Latency: sim.Uniform(delta), Seed: 9, Retry: 30 * delta,
		Storage: storage,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	c.RandomWorkload(rng, 20, 2, 2*time.Second)
	c.Sim.Run(800 * time.Millisecond)
	c.Crash(2) // follower of group 0
	c.Sim.Run(1600 * time.Millisecond)
	c.Restart(2)
	if errs := c.RunChecked(30*time.Second, 50*time.Millisecond); len(errs) > 0 {
		t.Fatalf("continuous invariant violated: %v", errs[0])
	}
	if errs := c.Check(true); len(errs) > 0 {
		t.Fatalf("%d violations, first: %v", len(errs), errs[0])
	}
	// The restarted follower's store must carry a non-empty applied set:
	// conflict mode persists delivered IDs, not just the GTS frontier.
	rs, err := stores[2].Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Delivered) == 0 {
		t.Error("restarted follower has an empty durable applied set")
	}
}

// TestPayloadClasses pins the synthetic relation's contract.
func TestPayloadClasses(t *testing.T) {
	if core.PayloadClasses(0) != nil || core.PayloadClasses(1) != nil {
		t.Error("k ≤ 1 must return the nil (all-conflict) relation")
	}
	rel := core.PayloadClasses(4)
	a, b := []byte("alpha"), []byte("beta")
	if !rel(a, a) {
		t.Error("a payload must conflict with itself")
	}
	if rel(a, b) != rel(b, a) {
		t.Error("relation must be symmetric")
	}
	// With enough distinct payloads, 4 classes must produce both outcomes.
	conflict, commute := false, false
	for i := 0; i < 32; i++ {
		p := []byte(fmt.Sprintf("p%d", i))
		if rel(a, p) {
			conflict = true
		} else {
			commute = true
		}
	}
	if !conflict || !commute {
		t.Errorf("4-class relation degenerate: conflict=%v commute=%v", conflict, commute)
	}
}
