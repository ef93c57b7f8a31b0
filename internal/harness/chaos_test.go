package harness_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wbcast/internal/core"
	"wbcast/internal/faults"
	"wbcast/internal/harness"
	"wbcast/internal/mcast"
	"wbcast/internal/protocols"
	"wbcast/internal/sim"
)

// Chaos schedule exploration: every seed deterministically generates a
// workload plus a fault schedule (crashes, restarts, partitions, link
// faults, clock skew), runs it against all three protocols with the
// continuous invariant monitor on, and checks Termination and genuineness
// at the horizon. A failing seed replays exactly:
//
//	go test ./internal/harness -run TestChaos -seed=<N>
//
// and -seeds=<N> widens the exploration (CI runs -seeds=5 under -race).
var (
	chaosSeeds = flag.Int("seeds", 3, "number of random chaos schedules to explore per protocol")
	chaosSeed  = flag.Int64("seed", -1, "replay exactly this chaos schedule seed (overrides -seeds)")
)

const (
	chaosDelta   = 10 * time.Millisecond
	chaosHorizon = 40 * time.Second // virtual; faults cease well before
	chaosQuiet   = 6 * time.Second  // all faults healed/cleared by here
)

// chaosRow is one protocol's entry in the chaos matrix: the table's
// protocol with its liveness machinery enabled. Its fault tolerance sets
// the cluster shape and fault budget: groups of three under crashes,
// partitions and a store, or — for plain Skeen, which assumes reliable
// singleton processes — groups of one under link faults and clock skew only
// (the pattern the kv chaos suite uses for it too).
type chaosRow struct {
	protocols.Protocol
	// appHorizon runs the row under harness.Options.AppHorizon (durableRows).
	appHorizon bool
}

func (r chaosRow) name() string {
	if r.appHorizon {
		return r.Name() + "+apphorizon"
	}
	return r.Name()
}

// groupSize is 3 for the replicated protocols and 1 for plain Skeen, which
// has no intra-group replication.
func (r chaosRow) groupSize() int {
	if r.FaultTolerant {
		return 3
	}
	return 1
}

// chaosRows returns the chaos matrix, one row per protocol of the table.
// Every protocol runs the timers a deployment derives from δ — fault
// recovery is timer-driven, so chaos runs need the timers the quiescence
// tests turn off. The genmcast row uses a sparse synthetic conflict
// relation so commuting reorderings actually occur under the partial-order
// monitor.
func chaosRows() []chaosRow {
	rows := make([]chaosRow, len(protocols.All))
	for i, p := range protocols.All {
		rows[i].Protocol = p.With(protocols.Options{Delta: chaosDelta, Conflicts: core.Relation(core.PayloadClasses(4))})
	}
	return rows
}

// genPlan derives a random fault schedule from rng over the topology,
// within the liveness budget: at most one member of each group is crashed
// at a time, every crash is restarted, and every partition, link fault and
// clock skew is lifted by chaosQuiet so the Termination check at the
// horizon is fair. With benign set, crashes and partitions are skipped —
// only link degradation and clock skew remain (the fault budget of plain
// Skeen, which assumes reliable processes).
func genPlan(rng *rand.Rand, top *mcast.Topology, clients int, benign bool) *faults.Plan {
	plan := &faults.Plan{}
	replicas := top.NumReplicas()
	procs := replicas + clients
	ms := func(lo, hi int) time.Duration {
		return time.Duration(lo+rng.Intn(hi-lo+1)) * time.Millisecond
	}

	// Crash/restart pairs, one group at a time.
	downUntil := make(map[mcast.GroupID]time.Duration)
	for i, n := 0, 1+rng.Intn(2); i < n && !benign; i++ {
		p := mcast.ProcessID(rng.Intn(replicas))
		g := top.GroupOf(p)
		at := ms(500, 4000)
		if at < downUntil[g] {
			at = downUntil[g] + ms(50, 200)
		}
		dur := ms(300, 1000)
		plan.At(at, faults.Crash{P: p})
		plan.At(at+dur, faults.Restart{P: p})
		downUntil[g] = at + dur
	}

	// One partition window: isolate a random replica (possibly a leader),
	// or split one replica off symmetrically.
	if !benign && rng.Intn(4) > 0 {
		p := mcast.ProcessID(rng.Intn(replicas))
		at := ms(500, 3000)
		if rng.Intn(2) == 0 {
			plan.At(at, faults.Isolate{P: p})
		} else {
			var rest []mcast.ProcessID
			for q := mcast.ProcessID(0); int(q) < procs; q++ {
				if q != p {
					rest = append(rest, q)
				}
			}
			plan.At(at, faults.Partition{Sides: [][]mcast.ProcessID{{p}, rest}})
		}
		plan.At(at+ms(400, 1500), faults.Heal{})
	}

	// Probabilistic link faults on a couple of random directed links
	// (replica or client endpoints), cleared before the quiet period.
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		from := mcast.ProcessID(rng.Intn(procs))
		to := mcast.ProcessID(rng.Intn(procs))
		plan.At(ms(200, 1500), faults.SetLink{From: from, To: to, Fault: faults.LinkFault{
			DropProb:    0.25 * rng.Float64(),
			DupProb:     0.2 * rng.Float64(),
			ReorderProb: 0.3 * rng.Float64(),
			Delay:       time.Duration(rng.Intn(int(2 * chaosDelta))),
			Jitter:      chaosDelta,
		}})
	}

	// One clock-skewed replica.
	skewed := mcast.ProcessID(rng.Intn(replicas))
	plan.At(ms(100, 1000), faults.ClockSkew{P: skewed, Factor: 0.6 + 1.2*rng.Float64()})

	// Quiet period: lift everything that could impede termination.
	plan.At(chaosQuiet, faults.Heal{})
	plan.At(chaosQuiet, faults.ClearLinks{})
	plan.At(chaosQuiet, faults.ClockSkew{P: skewed, Factor: 1})
	return plan
}

// runChaos executes one seeded schedule against one matrix row and returns
// the canonical delivery log plus the message-lifecycle trace log. Any
// invariant violation fails t.
func runChaos(t *testing.T, row chaosRow, seed int64) (delivery, trace []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	top := mcast.UniformTopology(2, row.groupSize())
	const clients = 2
	var events []string
	plan := genPlan(rng, top, clients, !row.FaultTolerant)
	c, err := harness.NewCluster(row, harness.Options{
		Groups: 2, GroupSize: row.groupSize(), NumClients: clients,
		Latency: sim.Uniform(chaosDelta),
		Seed:    seed,
		Retry:   30 * chaosDelta,
		Faults:  plan,
		OnFault: func(at time.Duration, desc string) {
			events = append(events, fmt.Sprintf("t=%v %s", at, desc))
		},
		TraceSample: 1, // trace every message: chaos runs are small
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	c.RandomWorkload(rng, 30, 2, 4*time.Second)
	if errs := c.RunChecked(chaosHorizon, 50*time.Millisecond); len(errs) > 0 {
		t.Logf("seed %d fault schedule:\n%s", seed, joinLines(events))
		t.Fatalf("seed %d: continuous invariant violated at t=%v (replay with -run TestChaos -seed=%d):\n%v",
			seed, c.Sim.Now(), seed, errs[0])
	}
	if errs := c.Check(true); len(errs) > 0 {
		t.Logf("seed %d fault schedule:\n%s", seed, joinLines(events))
		for _, e := range errs {
			t.Errorf("seed %d: %v", seed, e)
		}
		t.Fatalf("seed %d: %d violation(s) at the horizon (replay with -run TestChaos -seed=%d)",
			seed, len(errs), seed)
	}
	if n := c.PrunedInFlight(); n > 0 {
		t.Logf("seed %d: %d pruned message(s) still awaited by their client", seed, n)
	}
	return c.DeliveryLog(), c.TraceLog()
}

func joinLines(ls []string) string {
	out := ""
	for _, l := range ls {
		out += "  " + l + "\n"
	}
	return out
}

// chaosSeedList is the schedules a run explores: seeds 0..-seeds-1, or
// exactly -seed.
func chaosSeedList() []int64 {
	if *chaosSeed >= 0 {
		return []int64{*chaosSeed}
	}
	seeds := make([]int64, *chaosSeeds)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	return seeds
}

// TestChaos explores -seeds random schedules per protocol (or replays
// -seed exactly).
func TestChaos(t *testing.T) {
	for _, row := range chaosRows() {
		row := row
		t.Run(row.Name(), func(t *testing.T) {
			for _, seed := range chaosSeedList() {
				runChaos(t, row, seed)
			}
		})
	}
}

// TestChaosDeterministic runs every explored seed three times per protocol
// and requires byte-identical delivery and trace logs: the replay contract
// that makes -seed a faithful reproducer. Three runs, because a handler
// that emits effects in map-iteration order agrees with itself on most
// pairs of runs.
func TestChaosDeterministic(t *testing.T) {
	for _, row := range chaosRows() {
		row := row
		t.Run(row.Name(), func(t *testing.T) {
			for _, seed := range chaosSeedList() {
				a, ta := runChaos(t, row, seed)
				for run := 2; run <= 3; run++ {
					b, tb := runChaos(t, row, seed)
					if !bytes.Equal(a, b) {
						t.Fatalf("seed %d: delivery logs differ between runs 1 and %d (%d vs %d bytes)", seed, run, len(a), len(b))
					}
					if !bytes.Equal(ta, tb) {
						t.Fatalf("seed %d: trace logs differ between runs 1 and %d (%d vs %d bytes)", seed, run, len(ta), len(tb))
					}
				}
				if len(a) == 0 {
					t.Fatalf("seed %d: empty delivery log", seed)
				}
				if len(ta) == 0 {
					t.Fatalf("seed %d: empty trace log", seed)
				}
				// Fault-injection steps must appear interleaved with the
				// protocol stages (every plan has at least the quiet-period
				// heal), and sampled messages must reach delivery — plain
				// Skeen records no stage events.
				if !bytes.Contains(ta, []byte("fault")) {
					t.Errorf("seed %d: no fault events in the trace", seed)
				}
				if row.FaultTolerant {
					if !bytes.Contains(ta, []byte("deliver")) {
						t.Errorf("seed %d: no deliver stages in the trace", seed)
					}
				}
			}
		})
	}
}

// TestChaosLongRun is a chaos run long enough for the checkers' cost to
// matter: 20 000 multicasts from two clients over 10 s on a 3×3 WhiteBox
// cluster with its timers on, while the leader of group 0 crashes and
// restarts and the link from group 1's leader to a replica of group 0
// loses, duplicates and reorders messages until it heals at 15 s. Every
// invariant holds at the horizon, Termination and genuineness included:
// about 10⁴ deliveries per replica, which the end-of-run Ordering check
// takes in linear time.
func TestChaosLongRun(t *testing.T) {
	top := mcast.UniformTopology(3, 3)
	leader := top.InitialLeader(0)
	plan := &faults.Plan{}
	plan.At(time.Second, faults.SetLink{From: 3, To: 1, Fault: faults.LinkFault{
		DropProb: 0.2, DupProb: 0.1, ReorderProb: 0.2, Jitter: chaosDelta,
	}})
	plan.At(3*time.Second, faults.Crash{P: leader})
	plan.At(4*time.Second, faults.Restart{P: leader})
	plan.At(15*time.Second, faults.ClearLinks{})
	c, err := harness.NewCluster(chaosRows()[0], harness.Options{
		Groups: 3, GroupSize: 3, NumClients: 2,
		Latency: sim.Uniform(chaosDelta),
		Seed:    1,
		Retry:   30 * chaosDelta,
		Faults:  plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.RandomWorkload(rand.New(rand.NewSource(1)), 20000, 2, 10*time.Second)
	if errs := c.RunChecked(chaosHorizon, 50*time.Millisecond); len(errs) > 0 {
		t.Fatalf("continuous invariant violated at t=%v: %v", c.Sim.Now(), errs[0])
	}
	if errs := c.Check(true); len(errs) > 0 {
		for _, e := range errs {
			t.Errorf("%v", e)
		}
		t.Fatalf("%d violation(s) at the horizon", len(errs))
	}
	if c.Sim.TotalDropped() == 0 {
		t.Error("the lossy link dropped nothing")
	}
	t.Logf("%d deliveries, %d transmissions, %d dropped", c.CollectHistory(), c.Sim.TotalSent(), c.Sim.TotalDropped())
}

// TestChaosLeaderPartitionReplicaRestart is the named scenario of the
// acceptance criteria: the leader of group 0 is partitioned away while a
// follower of group 1 crashes and restarts; after the heal, every
// protocol must satisfy every invariant, including Termination.
func TestChaosLeaderPartitionReplicaRestart(t *testing.T) {
	for _, row := range chaosRows() {
		t.Run(row.Name(), func(t *testing.T) {
			if !row.FaultTolerant {
				t.Skip("plain Skeen assumes reliable processes; no crash/partition budget")
			}
			plan := &faults.Plan{}
			plan.At(500*time.Millisecond, faults.Isolate{P: 0}) // leader of group 0
			plan.At(700*time.Millisecond, faults.Crash{P: 4})   // follower in group 1
			plan.At(1500*time.Millisecond, faults.Restart{P: 4})
			plan.At(2500*time.Millisecond, faults.Heal{})
			c, err := harness.NewCluster(row, harness.Options{
				Groups: 2, GroupSize: 3, NumClients: 2,
				Latency: sim.Uniform(chaosDelta),
				Seed:    1,
				Retry:   30 * chaosDelta,
				Faults:  plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			c.RandomWorkload(rng, 20, 2, 3*time.Second)
			if errs := c.RunChecked(chaosHorizon, 50*time.Millisecond); len(errs) > 0 {
				t.Fatalf("continuous invariant violated at t=%v: %v", c.Sim.Now(), errs[0])
			}
			if errs := c.Check(true); len(errs) > 0 {
				for _, e := range errs {
					t.Errorf("%v", e)
				}
			}
			if n := c.Sim.TotalDropped(); n == 0 {
				t.Errorf("expected the partition to drop transmissions, dropped=0")
			}
		})
	}
}
