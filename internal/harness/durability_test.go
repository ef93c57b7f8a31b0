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
	lazy.appHorizon = true
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

// runChaosDurable mirrors runChaos with a per-replica store installed, whose
// commits take sigma of virtual time.
func runChaosDurable(t *testing.T, row chaosRow, seed int64, sigma time.Duration,
	storage func(pid mcast.ProcessID) (wal.Storage, error)) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	top := mcast.UniformTopology(2, row.groupSize())
	const clients = 2
	var events []string
	plan := genPlan(rng, top, clients, !row.FaultTolerant)
	c, err := harness.NewCluster(row, harness.Options{
		Groups: 2, GroupSize: row.groupSize(), NumClients: clients,
		Latency:    sim.Uniform(chaosDelta),
		Seed:       seed,
		Retry:      30 * chaosDelta,
		Faults:     plan,
		Storage:    storage,
		CommitTime: sigma,
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
		t.Fatalf("seed %d, σ=%v: continuous invariant violated at t=%v (replay with -run TestChaosDurable -seed=%d):\n%v",
			seed, sigma, c.Sim.Now(), seed, errs[0])
	}
	if errs := c.Check(true); len(errs) > 0 {
		t.Logf("seed %d fault schedule:\n%s", seed, joinLines(events))
		for _, e := range errs {
			t.Errorf("seed %d: %v", seed, e)
		}
		t.Fatalf("seed %d, σ=%v: %d violation(s) at the horizon (replay with -run TestChaosDurable -seed=%d)",
			seed, sigma, len(errs), seed)
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
// replicas: restarts replay the store instead of resurrecting RAM. Every row
// runs twice: with commits that take no virtual time, and with commits of
// δ/4, during which a replica goes on handling inputs — sends that vouch for
// nothing overtake the held ones, and a crash loses what the commit in
// flight carried — under the same continuous monitor and genuineness audit.
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
			if !row.FaultTolerant {
				t.Skipf("%s keeps no durable state", row.Name())
			}
			for _, seed := range seeds {
				runChaosDurable(t, row, seed, 0, memStorage())
				runChaosDurable(t, row, seed, chaosDelta/4, memStorage())
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
		t.Run(row.Name(), func(t *testing.T) {
			if !row.FaultTolerant {
				t.Skipf("%s keeps no durable state", row.Name())
			}
			a := runChaosDurable(t, row, seed, 0, diskStorage(t.TempDir()))
			b := runChaosDurable(t, row, seed, 0, diskStorage(t.TempDir()))
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
		t.Run(row.Name(), func(t *testing.T) {
			if !row.FaultTolerant {
				t.Skipf("%s keeps no durable state", row.Name())
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
			c, err := harness.NewCluster(row, harness.Options{
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
		t.Run(row.name(), func(t *testing.T) {
			if !row.FaultTolerant {
				t.Skipf("%s keeps no durable state", row.Name())
			}
			plan := &faults.Plan{}
			plan.At(800*time.Millisecond, faults.Crash{P: 2})
			plan.At(1600*time.Millisecond, faults.Restart{P: 2})
			c, err := harness.NewCluster(row, harness.Options{
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
			c, err := harness.NewCluster(rows[len(rows)-1], harness.Options{
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

// TestClockSurvivesGroupRestart: the ACCEPT_ACK of a multi-group message
// also says that the acceptor's clock has passed the message's tentative
// global timestamp (Fig. 4 line 14), so that promise must be as durable as
// the ACCEPTED record it leaves with. Ten messages raise g1's clock to 10,
// then m to {g0, g1} takes gts (11, g1) while g0's own proposal for it is
// (1, g0). Once p0 has delivered m, all of g0 crashes, and p1, p2 — which
// never saw its DELIVER — restart on their logs; m2, submitted to g0 alone
// well after m completed, must be ordered after it. With the clock advance
// left out of the log the new leader restarts at clock 1 and gives m2
// (2, g0) — below the frontier of an application that has applied m, which
// drops it: a lost write. The submit offset sweeps the window between the
// election and the re-commit of m, which raises the clock again.
func TestClockSurvivesGroupRestart(t *testing.T) {
	d := chaosDelta
	rows := durableRows()
	for offset := 150 * time.Millisecond; offset <= 250*time.Millisecond; offset += 5 * time.Millisecond {
		c, err := harness.NewCluster(rows[len(rows)-1], harness.Options{
			Groups: 2, GroupSize: 3, Latency: sim.Uniform(d), Retry: 30 * d,
			Storage: memStorage(), AppHorizon: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			c.Submit(0, 0, mcast.NewGroupSet(1), []byte{byte(i)})
		}
		c.Sim.Run(20 * d)
		m := c.Submit(c.Sim.Now(), 0, mcast.NewGroupSet(0, 1), []byte("m"))
		gtsOf := func(id mcast.MsgID, p mcast.ProcessID) (mcast.Timestamp, bool) {
			for _, rec := range c.Sim.DeliveriesAt(p) {
				if rec.D.Msg.ID == id {
					return rec.D.GTS, true
				}
			}
			return mcast.Timestamp{}, false
		}
		var gtsM mcast.Timestamp
		for ok := false; !ok; gtsM, ok = gtsOf(m, 0) {
			if c.Sim.Now() > 40*d {
				t.Fatal("p0 never delivered m")
			}
			c.Sim.Run(c.Sim.Now() + d/10)
		}
		for p := mcast.ProcessID(0); p < 3; p++ {
			c.Crash(p)
		}
		c.Sim.Run(c.Sim.Now() + 2*d) // p0's DELIVERs in flight find nobody up
		c.Restart(1)
		c.Restart(2)
		m2 := c.Submit(c.Sim.Now()+offset, 0, mcast.NewGroupSet(0), []byte("m2"))
		c.Sim.Run(c.Sim.Now() + offset + 300*d)
		for _, p := range []mcast.ProcessID{1, 2} {
			if gts, ok := gtsOf(m2, p); !ok {
				t.Errorf("offset %v: p%d never delivered m2", offset, p)
			} else if !gtsM.Less(gts) {
				t.Errorf("offset %v: p%d delivered m2 at %v although m had completed at %v", offset, p, gts, gtsM)
			}
		}
	}
}
