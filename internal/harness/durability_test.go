package harness_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"wbcast/internal/core"
	"wbcast/internal/faults"
	"wbcast/internal/harness"
	"wbcast/internal/mcast"
	"wbcast/internal/sim"
	"wbcast/internal/wal"
)

// Durable chaos: the same seeded fault schedules as TestChaos, but every
// replica runs on a Storage, so faults.Restart exercises the real recovery
// path — the in-memory handler is discarded and rebuilt by replaying the
// store, losing everything that was never synced.

// durableRows is the chaos matrix plus the row the benchmark's kv-durable
// workload, wbcast-kv and the kv kill test actually run: white-box with GC
// and AppGCHorizon, whose delivery-time entries are lazy — a restart loses
// them with the unsynced tail of wal.Memory — under an application that
// keeps its own frontier (harness.Options.AppHorizon).
func durableRows() []chaosRow {
	rows := chaosRows()
	lazy := rows[0] // white-box with GC
	proto := lazy.proto.(core.Protocol)
	proto.AppGCHorizon = true
	lazy.proto, lazy.appHorizon = proto, true
	return append(rows, lazy)
}

// memStorage gives every replica its own in-memory WAL.
func memStorage() func(pid mcast.ProcessID) (wal.Storage, error) {
	stores := make(map[mcast.ProcessID]wal.Storage)
	return func(pid mcast.ProcessID) (wal.Storage, error) {
		st := wal.NewMemory()
		stores[pid] = st
		return st, nil
	}
}

// runChaosDurable mirrors runChaos with a per-replica store installed.
func runChaosDurable(t *testing.T, row chaosRow, seed int64,
	storage func(pid mcast.ProcessID) (wal.Storage, error)) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	top := mcast.UniformTopology(2, row.groupSize)
	const clients = 2
	var events []string
	plan := genPlan(rng, top, clients, row.benign)
	c, err := harness.NewCluster(row.proto, harness.Options{
		Groups: 2, GroupSize: row.groupSize, NumClients: clients,
		Latency:    sim.Uniform(chaosDelta),
		Seed:       seed,
		Retry:      30 * chaosDelta,
		Faults:     plan,
		Storage:    storage,
		AppHorizon: row.appHorizon,
		OnFault: func(at time.Duration, desc string) {
			events = append(events, fmt.Sprintf("t=%v %s", at, desc))
		},
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	c.RandomWorkload(rng, 30, 2, 4*time.Second)
	if errs := c.RunChecked(chaosHorizon, 50*time.Millisecond); len(errs) > 0 {
		t.Logf("seed %d fault schedule:\n%s", seed, joinLines(events))
		t.Fatalf("seed %d: continuous invariant violated at t=%v (replay with -run TestChaosDurable -seed=%d):\n%v",
			seed, c.Sim.Now(), seed, errs[0])
	}
	if errs := c.Check(true); len(errs) > 0 {
		t.Logf("seed %d fault schedule:\n%s", seed, joinLines(events))
		for _, e := range errs {
			t.Errorf("seed %d: %v", seed, e)
		}
		t.Fatalf("seed %d: %d violation(s) at the horizon (replay with -run TestChaosDurable -seed=%d)",
			seed, len(errs), seed)
	}
	// Every replica must have accumulated durable state by the horizon:
	// a store that stayed empty means persist effects were never emitted.
	for pid, st := range c.Stores {
		rs, err := st.Load()
		if err != nil {
			t.Fatalf("seed %d: loading store of replica %d: %v", seed, pid, err)
		}
		if rs.Empty() {
			t.Errorf("seed %d: replica %d finished the run with an empty durable state", seed, pid)
		}
	}
	return c.DeliveryLog()
}

// TestChaosDurable explores the same seed space as TestChaos with durable
// replicas: restarts replay the store instead of resurrecting RAM.
func TestChaosDurable(t *testing.T) {
	seeds := make([]int64, 0, *chaosSeeds)
	if *chaosSeed >= 0 {
		seeds = append(seeds, *chaosSeed)
	} else {
		for i := 0; i < *chaosSeeds; i++ {
			seeds = append(seeds, int64(i))
		}
	}
	for _, row := range durableRows() {
		row := row
		t.Run(row.name(), func(t *testing.T) {
			if !row.durable {
				t.Skipf("%s has no durability support (StorageProtocol)", row.proto.Name())
			}
			for _, seed := range seeds {
				runChaosDurable(t, row, seed, memStorage())
			}
		})
	}
}

// TestChaosDurableDiskDeterministic runs one seed twice per protocol on
// disk-backed stores in separate directories and requires byte-identical
// delivery logs: real fsyncs and WAL replay must not perturb the seeded
// schedule.
func TestChaosDurableDiskDeterministic(t *testing.T) {
	seed := int64(7)
	if *chaosSeed >= 0 {
		seed = *chaosSeed
	}
	diskStorage := func(dir string) func(pid mcast.ProcessID) (wal.Storage, error) {
		return func(pid mcast.ProcessID) (wal.Storage, error) {
			return wal.OpenDisk(filepath.Join(dir, fmt.Sprintf("p%d", pid)), wal.DiskOptions{})
		}
	}
	for _, row := range chaosRows() {
		row := row
		t.Run(row.proto.Name(), func(t *testing.T) {
			if !row.durable {
				t.Skipf("%s has no durability support (StorageProtocol)", row.proto.Name())
			}
			a := runChaosDurable(t, row, seed, diskStorage(t.TempDir()))
			b := runChaosDurable(t, row, seed, diskStorage(t.TempDir()))
			if !bytes.Equal(a, b) {
				t.Fatalf("seed %d: disk-backed delivery logs differ between two runs (%d vs %d bytes)", seed, len(a), len(b))
			}
			if len(a) == 0 {
				t.Fatalf("seed %d: empty delivery log", seed)
			}
		})
	}
}

// failCounting counts injected sync failures surfacing from a wrapped
// flaky store.
type failCounting struct {
	wal.Storage
	fails *int
}

func (f failCounting) Sync() error {
	err := f.Storage.Sync()
	if err != nil {
		*f.fails++
	}
	return err
}

// TestChaosFlakyStorage injects periodic fsync failures into one replica's
// store while a restart schedule keeps reviving it. Every failed sync
// crash-stops the replica and tears off its staged tail; recovery must
// replay only what was durable, and every invariant must hold throughout.
func TestChaosFlakyStorage(t *testing.T) {
	const victim = mcast.ProcessID(1) // follower of group 0
	for _, row := range chaosRows() {
		proto := row.proto
		t.Run(proto.Name(), func(t *testing.T) {
			if !row.durable {
				t.Skipf("%s has no durability support (StorageProtocol)", proto.Name())
			}
			fails := 0
			storage := func(pid mcast.ProcessID) (wal.Storage, error) {
				if pid != victim {
					return wal.NewMemory(), nil
				}
				return failCounting{
					Storage: &wal.Flaky{Inner: wal.NewMemory(), FailSyncEvery: 25},
					fails:   &fails,
				}, nil
			}
			// Revive the victim twice a second until the quiet period; the
			// extra restarts are no-ops while it is up.
			plan := &faults.Plan{}
			for at := 500 * time.Millisecond; at <= chaosQuiet; at += 500 * time.Millisecond {
				plan.At(at, faults.Restart{P: victim})
			}
			c, err := harness.NewCluster(proto, harness.Options{
				Groups: 2, GroupSize: 3, NumClients: 2,
				Latency: sim.Uniform(chaosDelta),
				Seed:    3,
				Retry:   30 * chaosDelta,
				Faults:  plan,
				Storage: storage,
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			c.RandomWorkload(rng, 30, 2, 4*time.Second)
			if errs := c.RunChecked(chaosHorizon, 50*time.Millisecond); len(errs) > 0 {
				t.Fatalf("continuous invariant violated at t=%v: %v", c.Sim.Now(), errs[0])
			}
			if errs := c.Check(true); len(errs) > 0 {
				for _, e := range errs {
					t.Errorf("%v", e)
				}
			}
			if fails == 0 {
				t.Error("no injected sync failure fired; the schedule did not exercise storage crash-stops")
			}
		})
	}
}

// TestDurableRestartLosesUnsynced pins the recovery semantics the chaos
// runs rely on: a restart with a configured store rebuilds the replica
// from durable state only — nothing of the in-memory handler survives —
// and the group still terminates, so the catch-up machinery fills
// whatever the tail loss opened up.
func TestDurableRestartLosesUnsynced(t *testing.T) {
	for _, row := range durableRows() {
		proto := row.proto
		t.Run(row.name(), func(t *testing.T) {
			if !row.durable {
				t.Skipf("%s has no durability support (StorageProtocol)", proto.Name())
			}
			plan := &faults.Plan{}
			plan.At(800*time.Millisecond, faults.Crash{P: 2})
			plan.At(1600*time.Millisecond, faults.Restart{P: 2})
			c, err := harness.NewCluster(proto, harness.Options{
				Groups: 2, GroupSize: 3, NumClients: 2,
				Latency:    sim.Uniform(chaosDelta),
				Seed:       11,
				Retry:      30 * chaosDelta,
				Faults:     plan,
				Storage:    memStorage(),
				AppHorizon: row.appHorizon,
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			c.RandomWorkload(rng, 20, 2, 2*time.Second)
			if errs := c.RunChecked(chaosHorizon, 50*time.Millisecond); len(errs) > 0 {
				t.Fatalf("continuous invariant violated at t=%v: %v", c.Sim.Now(), errs[0])
			}
			if errs := c.Check(true); len(errs) > 0 {
				for _, e := range errs {
					t.Errorf("%v", e)
				}
			}
		})
	}
}

// TestLazyFrontierNeverBelowPrune is the directed case for the one place a
// lazily logged delivery frontier is vouched for: the report that lets the
// group prune. A follower of a 1×3 AppGCHorizon group delivers five
// messages whose entries are all lazy (their ACCEPTs, the last eager
// entries, came first), then crashes and restarts on its store.
//
//   - before its next heartbeat ack: the whole tail is lost — the recovered
//     frontier is ⊥ — but nothing was pruned on its report, so catch-up
//     replays all five;
//   - after the group has pruned: the ack that reported the frontier logged
//     it eagerly first, so the recovered frontier is not below anything the
//     leader discarded.
//
// Either way the deliveries the restarted replica releases are exactly the
// group's sequence above its recovered frontier, with no gap, and it
// delivers a sixth message submitted afterwards. The second case fails if
// HeartbeatAck.Delivered reports a frontier that was only lazily logged:
// the replica comes back at ⊥, the leader holds only the fifth record, and
// the replay skips four deliveries.
func TestLazyFrontierNeverBelowPrune(t *testing.T) {
	const leader, victim = mcast.ProcessID(0), mcast.ProcessID(2)
	d := chaosDelta
	for _, tc := range []struct {
		name      string
		crashAt   time.Duration
		wantPrune bool
	}{
		{"tail lost before the frontier was reported", 6 * d, false},
		{"crash after the group pruned", 60 * d, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := durableRows()
			c, err := harness.NewCluster(rows[len(rows)-1].proto, harness.Options{
				Groups: 1, GroupSize: 3, Latency: sim.Uniform(d), Retry: 30 * d,
				Storage: memStorage(), AppHorizon: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				c.Submit(0, 0, mcast.NewGroupSet(0), []byte{byte(i)})
			}
			c.Sim.Run(tc.crashAt)
			if got := len(c.Sim.DeliveriesAt(victim)); got != 5 {
				t.Fatalf("p%d delivered %d messages before the crash, want 5", victim, got)
			}
			pruned := c.Replicas[leader].(*core.Replica).Pruned()
			if (pruned > 0) != tc.wantPrune {
				t.Fatalf("the leader had pruned %d records at the crash", pruned)
			}
			c.Crash(victim)
			rs, err := c.Stores[victim].Load() // what the restart recovers
			if err != nil {
				t.Fatal(err)
			}
			if !tc.wantPrune && !rs.MaxDelivered.IsZero() {
				t.Fatalf("recovered frontier %v: the lazy tail was synced, the case is vacuous", rs.MaxDelivered)
			}
			c.Restart(victim)
			c.Submit(c.Sim.Now()+10*d, 0, mcast.NewGroupSet(0), []byte{5})
			if errs := c.RunChecked(c.Sim.Now()+300*d, 5*d); len(errs) > 0 {
				t.Fatal(errs)
			}
			if errs := c.Check(true); len(errs) > 0 {
				t.Fatal(errs)
			}
			var want, got []mcast.Timestamp
			for _, rec := range c.Sim.DeliveriesAt(leader) {
				if rs.MaxDelivered.Less(rec.D.GTS) {
					want = append(want, rec.D.GTS)
				}
			}
			for _, rec := range c.Sim.DeliveriesAt(victim)[5:] {
				got = append(got, rec.D.GTS)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) || len(want) == 0 {
				t.Errorf("restarted at frontier %v, p%d released %v; the group's sequence above it is %v",
					rs.MaxDelivered, victim, got, want)
			}
		})
	}
}
