// Command wbcast-sim replays fault-tolerance scenarios in the
// deterministic simulator and prints a narrated timeline: a leader crash
// with automatic failover, the §IV "clock decrease" recovery subtlety, the
// convoy effect, and — with -chaos — a seeded chaos run combining a
// partitioned leader, a crash-recovery restart and probabilistic link
// faults, with the continuous invariant monitor watching every delivery.
// It complements the test suite by making the recovery machinery
// observable.
//
// Usage:
//
//	wbcast-sim [-scenario failover|clock-decrease|convoy] [-trace]
//	wbcast-sim -chaos [-protocol wbcast|fastcast|ftskeen|genmcast] [-seed N] [-msgs N] [-trace]
//
// With -trace, every message's lifecycle is recorded (internal/obs,
// sampling 1, virtual-time clock) and the run ends with per-message stage
// timelines — submit, START, timestamp proposal, ACCEPT quorum, GTS
// commit, delivery, completion — interleaved with any recovery and fault
// events. Traces of a seeded run are byte-for-byte reproducible.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"wbcast/internal/core"
	"wbcast/internal/faults"
	"wbcast/internal/harness"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/protocols"
	"wbcast/internal/sim"
)

const delta = 10 * time.Millisecond

// traceOn is the -trace flag: trace every message and print stage
// timelines at the end of the scenario.
var traceOn bool

// traced enables full-sample tracing on o when -trace is set.
func traced(o harness.Options) harness.Options {
	if traceOn {
		o.TraceSample = 1
	}
	return o
}

// passed runs a narrated scenario's end-of-run correctness check and, when
// it holds, prints the stage timelines of a traced run.
func passed(c *harness.Cluster) error {
	if errs := c.Check(true); len(errs) > 0 {
		return fmt.Errorf("correctness check failed: %v", errs[0])
	}
	fmt.Println("         correctness check: PASS (ordering, integrity, termination, genuineness)")
	printTrace(c)
	return nil
}

// printTrace renders the per-message stage timelines of a traced run.
func printTrace(c *harness.Cluster) {
	if !traceOn || c.Tracer == nil {
		return
	}
	fmt.Println()
	fmt.Println("per-message stage timelines:")
	fmt.Print(obs.FormatMessageTimelines(c.Tracer.Events()))
}

func main() {
	scenario := flag.String("scenario", "failover", "failover, clock-decrease or convoy")
	chaosMode := flag.Bool("chaos", false, "run the seeded chaos scenario (overrides -scenario)")
	var tolerant []string
	for _, p := range protocols.All {
		if p.FaultTolerant {
			tolerant = append(tolerant, p.Name())
		}
	}
	protocol := flag.String("protocol", "wbcast", "chaos protocol: "+strings.Join(tolerant, ", "))
	seed := flag.Int64("seed", 1, "chaos schedule seed")
	workload := flag.Int("msgs", 30, "chaos workload size")
	flag.BoolVar(&traceOn, "trace", false, "record every message's lifecycle and print per-message stage timelines")
	flag.Parse()
	var err error
	if *chaosMode {
		err = chaos(*protocol, *seed, *workload)
	} else {
		switch *scenario {
		case "failover":
			err = failover()
		case "clock-decrease":
			err = clockDecrease()
		case "convoy":
			err = convoy()
		default:
			err = fmt.Errorf("unknown scenario %q", *scenario)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wbcast-sim:", err)
		os.Exit(1)
	}
}

func failover() error {
	fmt.Println("scenario: leader crash with heartbeat-driven failover (δ = 10ms)")
	proto := core.Protocol{
		RetryInterval:     30 * delta,
		HeartbeatInterval: 5 * delta,
		SuspectTimeout:    20 * delta,
	}
	c, err := harness.NewCluster(proto, traced(harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 1,
		Latency: sim.Uniform(delta), Retry: 30 * delta,
	}))
	if err != nil {
		return err
	}
	m1 := c.Submit(0, 0, mcast.NewGroupSet(0, 1), []byte("before-crash"))
	c.Sim.Run(100 * time.Millisecond)
	lat, _ := c.MaxDeliveryLatency(m1, mcast.NewGroupSet(0, 1))
	fmt.Printf("t=100ms  m1 delivered everywhere (latency %v = %.1fδ)\n", lat, float64(lat)/float64(delta))

	fmt.Println("t=100ms  CRASH leader of group 0 (replica 0)")
	c.Crash(0)
	m2 := c.Submit(150*time.Millisecond, 0, mcast.NewGroupSet(0, 1), []byte("after-crash"))
	c.Sim.Run(10 * time.Second)

	for _, pid := range []mcast.ProcessID{1, 2} {
		r := c.Replica(pid).(*core.Replica)
		fmt.Printf("         replica %d: status=%v ballot=%v\n", pid, r.Status(), r.CBallot())
	}
	lat2, ok := c.DeliveryLatency(m2, 0)
	if !ok {
		return fmt.Errorf("m2 never delivered in group 0")
	}
	sub, _ := c.Sim.SubmitTime(m2)
	fmt.Printf("t=%v  m2 delivered in group 0, %v after submission (recovery included)\n",
		(sub + lat2).Round(time.Millisecond), lat2.Round(time.Millisecond))
	return passed(c)
}

func clockDecrease() error {
	fmt.Println("scenario: §IV clock decrease on recovery (δ = 10ms)")
	lat := func(from, to mcast.ProcessID, m msgs.Message, _ time.Duration, _ *rand.Rand) time.Duration {
		if _, ok := m.(msgs.Accept); ok && from == 0 {
			return time.Hour // the old leader's ACCEPTs never arrive
		}
		return delta
	}
	c, err := harness.NewCluster(core.Protocol{RetryInterval: 20 * delta}, traced(harness.Options{
		Groups: 1, GroupSize: 3, NumClients: 1, Latency: lat, Retry: 20 * delta,
	}))
	if err != nil {
		return err
	}
	m := c.Submit(0, 0, mcast.NewGroupSet(0), []byte("m"))
	c.Sim.Run(15 * time.Millisecond)
	r0 := c.Replica(0).(*core.Replica)
	fmt.Printf("t=15ms   leader p0 proposed m: clock=%d, phase=%v (ACCEPTs stuck)\n", r0.Clock(), r0.Phase(m))
	c.Crash(0)
	fmt.Println("t=15ms   CRASH p0")
	c.Sim.Inject(20*time.Millisecond, 1, node.Timer{Kind: node.TimerCandidacy, Data: 1})
	c.Sim.Run(100 * time.Millisecond)
	r1 := c.Replica(1).(*core.Replica)
	fmt.Printf("t=100ms  new leader p1: status=%v clock=%d — the clock DECREASED, safely\n", r1.Status(), r1.Clock())
	c.Sim.Run(5 * time.Second)
	if _, ok := c.DeliveryLatency(m, 0); !ok {
		return fmt.Errorf("m never recovered")
	}
	fmt.Printf("         m re-introduced by client retry and delivered; final clock=%d\n", r1.Clock())
	return passed(c)
}

func convoy() error {
	fmt.Println("scenario: convoy effect — white-box protocol caps it at 5δ (Fig. 2 / Thm. 4)")
	var mPrime mcast.MsgID
	lat := func(from, to mcast.ProcessID, m msgs.Message, _ time.Duration, _ *rand.Rand) time.Duration {
		if mc, ok := m.(msgs.Multicast); ok && mPrime != 0 && mc.M.ID == mPrime && to == 0 {
			return delta / 1000
		}
		return delta
	}
	c, err := harness.NewCluster(core.Protocol{}, traced(harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 2, Latency: lat,
	}))
	if err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		c.Submit(0, 1, mcast.NewGroupSet(1), nil) // warm group 1's clock
	}
	m := c.Submit(200*time.Millisecond, 0, mcast.NewGroupSet(0, 1), []byte("m"))
	mPrime = c.Submit(200*time.Millisecond+2*delta-delta/100, 1, mcast.NewGroupSet(0, 1), []byte("m'"))
	c.Sim.Run(time.Minute)
	lat0, _ := c.DeliveryLatency(m, 0)
	fmt.Printf("         m delivered in group 0 after %.2fδ (collision-free would be 3δ;\n", float64(lat0)/float64(delta))
	fmt.Println("         the adversarial conflicting message m' delays it to ≈5δ, not 6δ,")
	fmt.Println("         thanks to the speculative clock advance of Fig. 4 line 14)")
	return passed(c)
}

// chaos runs a seeded chaos schedule against one protocol: the leader of
// group 0 is partitioned away mid-workload, a follower of group 1 crashes
// and restarts (a pause-style restart: the narrated runs configure no
// storage), a lossy/reordering link and a skewed
// clock run throughout, and every delivery passes the continuous invariant
// monitor. The same seed replays the identical schedule.
func chaos(protocol string, seed int64, n int) error {
	p, err := protocols.ByName(protocol)
	if err != nil {
		return err
	}
	if !p.FaultTolerant {
		return fmt.Errorf("the chaos schedule crashes and partitions processes, which %s does not tolerate: it assumes reliable processes", protocol)
	}
	// The timers a deployment derives from δ; a conflict-aware protocol
	// orders under a 4-class payload relation, checked by the
	// partial-order monitor.
	proto := p.With(protocols.Options{Delta: delta, Conflicts: core.Relation(core.PayloadClasses(4))})
	fmt.Printf("scenario: chaos, protocol=%s seed=%d msgs=%d (δ = 10ms, 2 groups × 3 replicas)\n", protocol, seed, n)

	rng := rand.New(rand.NewSource(seed))
	plan := &faults.Plan{}
	leader := mcast.ProcessID(0)
	restartee := mcast.ProcessID(3 + rng.Intn(3))
	crashAt := time.Duration(500+rng.Intn(500)) * time.Millisecond
	plan.At(500*time.Millisecond, faults.Isolate{P: leader})
	plan.At(crashAt, faults.Crash{P: restartee})
	plan.At(crashAt+time.Duration(300+rng.Intn(700))*time.Millisecond, faults.Restart{P: restartee})
	plan.At(time.Duration(400+rng.Intn(400))*time.Millisecond, faults.SetLink{
		From: mcast.ProcessID(rng.Intn(6)), To: mcast.ProcessID(rng.Intn(6)),
		Fault: faults.LinkFault{DropProb: 0.2 * rng.Float64(), DupProb: 0.2 * rng.Float64(), ReorderProb: 0.3 * rng.Float64(), Jitter: delta},
	})
	plan.At(300*time.Millisecond, faults.ClockSkew{P: mcast.ProcessID(rng.Intn(6)), Factor: 0.6 + 1.2*rng.Float64()})
	plan.At(2500*time.Millisecond, faults.Heal{})
	plan.At(5*time.Second, faults.ClearLinks{})

	c, err := harness.NewCluster(proto, traced(harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 2,
		Latency: sim.Uniform(delta),
		Seed:    seed,
		Retry:   30 * delta,
		Faults:  plan,
		OnFault: func(at time.Duration, desc string) {
			fmt.Printf("t=%-8v FAULT  %s\n", at.Round(time.Millisecond), desc)
		},
	}))
	if err != nil {
		return err
	}
	c.RandomWorkload(rng, n, 2, 3*time.Second)
	if errs := c.RunChecked(40*time.Second, 50*time.Millisecond); len(errs) > 0 {
		return fmt.Errorf("continuous invariant violated at t=%v: %v", c.Sim.Now(), errs[0])
	}
	fmt.Printf("t=%-8v run complete: %d deliveries, %d messages sent, %d dropped by faults\n",
		c.Sim.Now().Round(time.Millisecond), len(c.Sim.Deliveries()), c.Sim.TotalSent(), c.Sim.TotalDropped())
	if errs := c.Check(true); len(errs) > 0 {
		for _, e := range errs {
			fmt.Println("         VIOLATION:", e)
		}
		return fmt.Errorf("%d invariant violation(s); replay with -chaos -protocol %s -seed %d", len(errs), protocol, seed)
	}
	if p.ConflictAware {
		fmt.Println("         invariants: PASS (partial order over conflicts, exactly-once, genuineness, termination)")
	} else {
		fmt.Println("         invariants: PASS (total order, gap-freedom, exactly-once, genuineness, termination)")
	}
	printTrace(c)
	return nil
}
