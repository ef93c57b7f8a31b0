package main

import (
	"fmt"
	"math/rand"
	"time"

	"wbcast/internal/bench"
	"wbcast/internal/core"
	"wbcast/internal/harness"
	"wbcast/internal/mcast"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/sim"
)

// The failover schedule of the reference, all in virtual time.
const (
	failoverOps     = 800                 // one submission every δ/2 for 400δ
	failoverCrashAt = 100 * delta         // the initial leader of group 0 stops here
	failoverRunTo   = (400 + 200) * delta // submissions end at 400δ; the tail lets the last ones finish
	// failoverSeed draws the failover schedule's destinations. It is fixed,
	// not taken from --seed: which slots of the schedule address group 0
	// decides which operation waits longest, and the metric is meant to
	// repeat exactly on every run of a commit, whatever seed the run has.
	failoverSeed = 1
	// episodeOps is how many multicasts one closed-loop simulator episode
	// orders (a fresh cluster each: the harness keeps every delivery, and its
	// checks grow faster than linearly), and episodesPerSecond how many
	// episodes sim-reference runs per second of --seconds: its work is fixed
	// by the flag, not by the clock, so its numbers repeat exactly. On this
	// host an episode takes 0.1–0.2 s of wall clock.
	episodeOps        = 4000
	episodesPerSecond = 2
	// episodeJitter spreads every message delay of an episode uniformly over
	// [δ, δ+jitter), drawn from the episode's seed. With the constant δ of
	// the reference the 16 operations march in lock-step: every one takes
	// exactly 4δ on every seed, and none meets the convoy.
	episodeJitter = delta / 4
	// inFlight is the closed-loop depth of an episode, the same 16 the kv
	// workloads keep in flight.
	inFlight = numClients * callersPerClient
)

// protoRow is one protocol's line of the paper's latency table, in δ.
type protoRow struct {
	solo, convoy float64
}

// reference is the exact part of sim-reference.
type reference struct {
	rows map[string]protoRow // by protocol name; baselines only when asked for
	// The failover scenario (WhiteBox).
	failoverDelays    float64 // longest wait of an op due for group 0, in δ
	msgsPerMulticast  float64
	elections         int64
	electionsLost     int64
	failoverAttempted int
	failoverFailed    int
}

// equal reports whether two runs of the reference produced the same
// numbers; they are deterministic, so any difference is a defect.
func (r reference) equal(o reference) bool {
	if len(r.rows) != len(o.rows) {
		return false
	}
	for k, v := range r.rows {
		if o.rows[k] != v {
			return false
		}
	}
	return r.failoverDelays == o.failoverDelays && r.msgsPerMulticast == o.msgsPerMulticast &&
		r.elections == o.elections && r.electionsLost == o.electionsLost &&
		r.failoverAttempted == o.failoverAttempted && r.failoverFailed == o.failoverFailed
}

// runReference measures the paper's own numbers on the deterministic
// simulator (sim.Uniform(δ), no wall-clock timing): the collision-free
// latency of one multicast to 2 groups of 3, the worst latency over the
// adversarial convoy sweep, and the failover scenario. With baselines it
// also fills the reference rows of the other four protocols.
func runReference(baselines bool) (reference, error) {
	ref := reference{rows: make(map[string]protoRow)}
	names := []string{"wbcast"}
	if baselines {
		names = append(names, "fastcast", "ftskeen", "skeen", "genmcast")
	}
	for _, name := range names {
		p, err := bench.ProtocolByName(name)
		if err != nil {
			return ref, err
		}
		size := numReplicas
		if name == "skeen" {
			size = 1 // Skeen's protocol assumes reliable singleton groups
		}
		solo, _, err := bench.CollisionFree(p, size)
		if err != nil {
			return ref, fmt.Errorf("%s: solo: %w", name, err)
		}
		convoy, err := bench.FailureFree(p, size, convoyProbes)
		if err != nil {
			return ref, fmt.Errorf("%s: convoy: %w", name, err)
		}
		ref.rows[name] = protoRow{solo: solo, convoy: convoy}
	}
	if err := ref.failover(); err != nil {
		return ref, fmt.Errorf("failover: %w", err)
	}
	return ref, nil
}

// liveProtocol is the WhiteBox adapter with the timers wbcast.New derives
// from Delta, so failure detection and recovery run as in a deployment.
func liveProtocol() core.Protocol {
	dc := core.DefaultConfig(0, nil, delta)
	return core.Protocol{
		RetryInterval:     dc.RetryInterval,
		HeartbeatInterval: dc.HeartbeatInterval,
		SuspectTimeout:    dc.SuspectTimeout,
		GCInterval:        dc.GCInterval,
	}
}

// hookedProtocol is a harness adapter over the WhiteBox protocol that gives
// every replica a metrics registry (for the elections counter) and lets the
// caller wrap each handler (for Handle timing).
type hookedProtocol struct {
	inner core.Protocol
	clock obs.Clock
	regs  []*obs.Registry
	raw   map[mcast.ProcessID]*core.Replica
	wrap  func(node.Handler) node.Handler
}

func newHookedProtocol(inner core.Protocol, clock obs.Clock) *hookedProtocol {
	return &hookedProtocol{inner: inner, clock: clock, raw: make(map[mcast.ProcessID]*core.Replica)}
}

func (p *hookedProtocol) Name() string { return p.inner.Name() }

func (p *hookedProtocol) Contacts(top *mcast.Topology) func(mcast.GroupID) []mcast.ProcessID {
	return p.inner.Contacts(top)
}

func (p *hookedProtocol) NewReplica(pid mcast.ProcessID, top *mcast.Topology) (node.Handler, error) {
	reg := obs.NewRegistry(fmt.Sprintf(`proc="%d"`, pid))
	p.regs = append(p.regs, reg)
	h, err := p.inner.NewReplicaObs(pid, top, obs.NewProto(reg, p.clock, nil, pid))
	if err != nil {
		return nil, err
	}
	if r, ok := h.(*core.Replica); ok {
		p.raw[pid] = r
	}
	if p.wrap != nil {
		h = p.wrap(h)
	}
	return h, nil
}

func (p *hookedProtocol) counter(name string) int64 {
	var n int64
	for _, reg := range p.regs {
		n += reg.Snapshot().Counters[name]
	}
	return n
}

// randomDest draws a seeded random destination set of one or two groups.
func randomDest(rng *rand.Rand) mcast.GroupSet {
	k := 1 + rng.Intn(2)
	gs := make([]mcast.GroupID, 0, k)
	for _, g := range rng.Perm(numGroups)[:k] {
		gs = append(gs, mcast.GroupID(g))
	}
	return mcast.NewGroupSet(gs...)
}

// failover runs a 3×3 WhiteBox cluster with its background timers on and
// submissions on a fixed schedule — one every δ/2 for 400δ, whether or not
// earlier ones were answered — and stops the initial leader of group 0 at
// 100δ. Operations due while group 0 has no leader are counted from when
// they were due: the metric is the longest any of them waited.
func (ref *reference) failover() error {
	var c *harness.Cluster
	proto := newHookedProtocol(liveProtocol(), func() time.Duration { return c.Sim.Now() })
	var err error
	c, err = harness.NewCluster(proto, harness.Options{
		Groups: numGroups, GroupSize: numReplicas, NumClients: numClients,
		Latency: sim.Uniform(delta), Seed: failoverSeed,
		Retry: 50 * delta, // wbcast.NewClient's retry interval
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(failoverSeed))
	due := make(map[mcast.MsgID]time.Duration, failoverOps)
	forGroup0 := make(map[mcast.MsgID]bool, failoverOps)
	payload := make([]byte, valueSize)
	for i := 0; i < failoverOps; i++ {
		at := time.Duration(i) * delta / 2
		dest := randomDest(rng)
		id := c.Submit(at, i%numClients, dest, payload)
		due[id] = at
		forGroup0[id] = dest.Contains(0)
	}
	leader0 := c.Top.InitialLeader(0)
	c.Sim.ControlAt(failoverCrashAt, func() { c.Crash(leader0) })
	done := make(map[mcast.MsgID]time.Duration, failoverOps)
	c.OnComplete(func(id mcast.MsgID) {
		if _, dup := done[id]; !dup {
			done[id] = c.Sim.Now()
		}
	})
	if errs := c.RunChecked(failoverRunTo, 10*delta); len(errs) > 0 {
		return fmt.Errorf("invariant violated: %w", errs[0])
	}
	if errs := c.Check(true); len(errs) > 0 {
		return fmt.Errorf("correctness check: %w", errs[0])
	}
	var worst time.Duration
	for id, at := range due {
		end, ok := done[id]
		if !ok {
			ref.failoverFailed++
			continue
		}
		if forGroup0[id] && end-at > worst {
			worst = end - at
		}
	}
	ref.failoverAttempted = failoverOps
	ref.failoverDelays = float64(worst) / float64(delta)
	ref.msgsPerMulticast = float64(c.Sim.TotalSent()) / failoverOps
	ref.elections = proto.counter(obs.MetricElections)
	// Every election but the ones that installed a new leader was lost.
	var won int64
	for g := mcast.GroupID(0); g < numGroups; g++ {
		for _, pid := range c.Top.Members(g) {
			if pid != c.Top.InitialLeader(g) && !c.Sim.Crashed(pid) && proto.raw[pid].Status() == core.StatusLeader {
				won++
			}
		}
	}
	ref.electionsLost = ref.elections - won
	return nil
}

// handleTimer wraps a handler and accumulates its Handle calls and time.
type handleTimer struct {
	node.Handler
	calls int64
	busy  time.Duration
}

func (h *handleTimer) Handle(in node.Input, fx *node.Effects) {
	t0 := time.Now()
	h.Handler.Handle(in, fx)
	h.busy += time.Since(t0)
	h.calls++
}

// episodeStats is one closed-loop simulator episode.
type episodeStats struct {
	lats    []float64     // virtual submit → completion at the client, in ms
	virtual time.Duration // virtual time from the first submission to the last completion
	// Wall-clock cost of the handlers, when timed.
	wall        time.Duration
	handleCalls int64
	handleBusy  time.Duration // summed over replicas
	busiest     time.Duration // the busiest replica's Handle time
}

// runEpisode orders episodeOps multicasts on a fresh simulated 3×3 WhiteBox
// cluster in a closed loop of inFlight outstanding messages with seeded
// random 1–2-group destinations (background timers off, so the run drains),
// and measures in the simulator's virtual time: how long the episode took
// and how long each multicast waited for its completion at the client. These
// are the protocol's message pattern under concurrency at δ = 2 ms — the
// 3δ→5δ mix plus the hop to the leader and the reply — and they depend on
// the seed alone. timed puts a timer around every Handle call.
func runEpisode(seed int64, timed bool) (episodeStats, error) {
	var timers []*handleTimer
	proto := newHookedProtocol(core.Protocol{}, func() time.Duration { return 0 })
	if timed {
		proto.wrap = func(h node.Handler) node.Handler {
			t := &handleTimer{Handler: h}
			timers = append(timers, t)
			return t
		}
	}
	c, err := harness.NewCluster(proto, harness.Options{
		Groups: numGroups, GroupSize: numReplicas, NumClients: numClients,
		Latency: sim.UniformJitter(delta, episodeJitter), Seed: seed,
	})
	if err != nil {
		return episodeStats{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	payload := make([]byte, valueSize)
	started := make(map[mcast.MsgID]time.Duration, inFlight)
	st := episodeStats{lats: make([]float64, 0, episodeOps)}
	submitted, wantDeliveries := 0, 0
	submit := func() {
		dest := randomDest(rng)
		id := c.Submit(c.Sim.Now(), submitted%numClients, dest, payload)
		started[id] = c.Sim.Now()
		submitted++
		wantDeliveries += len(dest) * numReplicas
	}
	c.OnComplete(func(id mcast.MsgID) {
		st.virtual = c.Sim.Now()
		st.lats = append(st.lats, float64(st.virtual-started[id])/float64(time.Millisecond))
		delete(started, id)
		if submitted < episodeOps {
			submit()
		}
	})
	t0 := time.Now()
	for i := 0; i < inFlight; i++ {
		submit()
	}
	c.Sim.Run(time.Hour)
	st.wall = time.Since(t0)
	// The continuous monitor (validity, exactly-once, total order, gap-free
	// groups) is linear in the deliveries; the full history check is not,
	// and would take a hundred times longer than the episode. With
	// exactly-once established, the delivery count settles termination.
	c.CollectHistory()
	errs := append(c.Monitor.Errs(), c.Sim.AuditGenuineness(c.Top)...)
	if len(errs) > 0 {
		return st, fmt.Errorf("sim episode: %w", errs[0])
	}
	if got := len(c.Sim.Deliveries()); got != wantDeliveries || len(st.lats) != episodeOps {
		return st, fmt.Errorf("sim episode: %d of %d multicasts completed, %d deliveries, want %d",
			len(st.lats), episodeOps, got, wantDeliveries)
	}
	for _, t := range timers {
		st.handleCalls += t.calls
		st.handleBusy += t.busy
		st.busiest = max(st.busiest, t.busy)
	}
	return st, nil
}
