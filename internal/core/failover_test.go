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
	"wbcast/internal/node"
	"wbcast/internal/sim"
)

// What a leader change costs, on the simulator's clock: one suspicion
// deadline plus one recovery round for the group, one reply for everybody
// else. The timers are core.DefaultConfig's (heartbeat 10δ, suspicion 40δ,
// retry 20δ), the client retries after 50δ as wbcast.NewClient's does, and the
// leader of group 0 stops at 100δ — the schedule of the canonical benchmark's
// failover scenario.

const (
	crashAt = 100 * delta
	// The stopped leader's last heartbeat left at 90δ (the one due at 100δ is
	// behind the crash) and reached its followers at 91δ.
	lastHeartbeat = 91 * delta
	stagger       = 5 * delta // HeartbeatInterval / 2 per group rank
	suspectAfter  = 40 * delta
	roundTrip     = 4 * delta // NEW_LEADER, its ack, NEW_STATE, its ack
	clientRetry   = 50 * delta
)

// liveProtocol is the white-box adapter with a deployment's timers.
func liveProtocol() core.Protocol {
	dc := core.DefaultConfig(0, nil, delta)
	return core.Protocol{
		RetryInterval:     dc.RetryInterval,
		HeartbeatInterval: dc.HeartbeatInterval,
		SuspectTimeout:    dc.SuspectTimeout,
		GCInterval:        dc.GCInterval,
	}
}

// electionLog follows a run's leader changes through the simulator's trace.
type electionLog struct {
	candidacies map[mcast.Ballot]bool             // every ballot a NEW_LEADER proposed
	established map[mcast.Ballot]time.Duration    // ballot → first heartbeat of it received
	firstReply  map[mcast.ProcessID]time.Duration // client → first reply carrying a ballot above the initial one
	concerned   map[mcast.ProcessID][]mcast.MsgID // process → the IDs of the messages it received
}

func (l *electionLog) trace(ev sim.TraceEvent) {
	rcv, ok := ev.In.(node.Recv)
	if !ok {
		return
	}
	if c, ok := rcv.Msg.(msgs.Concerner); ok {
		if id, ok := c.Concerns(); ok {
			l.concerned[ev.Proc] = append(l.concerned[ev.Proc], id)
		}
	}
	switch m := rcv.Msg.(type) {
	case msgs.NewLeader:
		l.candidacies[m.Bal] = true
	case msgs.Heartbeat:
		if _, seen := l.established[m.Bal]; !seen {
			l.established[m.Bal] = ev.At
		}
	case msgs.ClientReply:
		if _, seen := l.firstReply[ev.Proc]; !seen && m.Bal.N > 1 {
			l.firstReply[ev.Proc] = ev.At
		}
	}
}

// lost counts the candidacies that installed no leader.
func (l *electionLog) lost() int {
	n := 0
	for b := range l.candidacies {
		if _, ok := l.established[b]; !ok {
			n++
		}
	}
	return n
}

// newFailoverCluster builds a cluster on liveProtocol whose trace feeds both
// the Fig. 6 audit and an electionLog.
func newFailoverCluster(t *testing.T, opts harness.Options) (*harness.Cluster, *check.WbAudit, *electionLog) {
	t.Helper()
	audit := check.NewWbAudit(mcast.UniformTopology(opts.Groups, opts.GroupSize))
	log := &electionLog{
		candidacies: make(map[mcast.Ballot]bool),
		established: make(map[mcast.Ballot]time.Duration),
		firstReply:  make(map[mcast.ProcessID]time.Duration),
		concerned:   make(map[mcast.ProcessID][]mcast.MsgID),
	}
	opts.Trace = func(ev sim.TraceEvent) {
		audit.Trace(ev)
		log.trace(ev)
	}
	if opts.Latency == nil {
		opts.Latency = sim.Uniform(delta)
	}
	if opts.Retry == 0 {
		opts.Retry = clientRetry
	}
	c, err := harness.NewCluster(liveProtocol(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, audit, log
}

// leadsAt runs the cluster until pid leads (or limit) and returns when that
// was, to a quarter δ.
func leadsAt(c *harness.Cluster, pid mcast.ProcessID, limit time.Duration) (time.Duration, bool) {
	for c.Sim.Now() < limit {
		c.Sim.Run(c.Sim.Now() + delta/4)
		if replica(c, pid).Status() == core.StatusLeader {
			return c.Sim.Now(), true
		}
	}
	return 0, false
}

// TestFailoverWithinOneSuspicionTimeout: the rank-1 follower suspects exactly
// SuspectTimeout + one stagger after the last heartbeat and leads one
// recovery round later; nobody else campaigns.
func TestFailoverWithinOneSuspicionTimeout(t *testing.T) {
	c, audit, log := newFailoverCluster(t, harness.Options{Groups: 3, GroupSize: 3, NumClients: 2})
	c.Sim.ControlAt(crashAt, func() { c.Crash(0) })
	at, ok := leadsAt(c, 1, 300*delta)
	if want := lastHeartbeat + suspectAfter + stagger + roundTrip; !ok || at != want {
		t.Fatalf("p1 leads at %v (%v), want at %v: last heartbeat + SuspectTimeout + HeartbeatInterval/2 + 4δ", at, ok, want)
	}
	c.Sim.Run(400 * delta)
	requireClean(t, c, audit, true)
	if len(log.candidacies) != 1 || log.lost() != 0 {
		t.Errorf("candidacies = %v, lost = %d; want exactly one, none lost", log.candidacies, log.lost())
	}
	if replica(c, 2).Status() != core.StatusFollower {
		t.Errorf("p2 is %v, want FOLLOWER", replica(c, 2).Status())
	}
}

// TestFailoverSecondRankDown: with ranks 0 and 1 both gone the rank-2 member
// leads two staggers after the timeout.
func TestFailoverSecondRankDown(t *testing.T) {
	c, audit, log := newFailoverCluster(t, harness.Options{Groups: 1, GroupSize: 5, NumClients: 1})
	c.Sim.ControlAt(crashAt, func() { c.Crash(0); c.Crash(1) })
	at, ok := leadsAt(c, 2, 300*delta)
	if want := lastHeartbeat + suspectAfter + 2*stagger + roundTrip; !ok || at != want {
		t.Fatalf("p2 leads at %v (%v), want at %v", at, ok, want)
	}
	m := c.Submit(c.Sim.Now(), 0, mcast.NewGroupSet(0), []byte("after"))
	c.Sim.Run(400 * delta)
	requireClean(t, c, audit, true)
	if len(log.candidacies) != 1 || log.lost() != 0 {
		t.Errorf("candidacies = %v, lost = %d; want exactly one, none lost", log.candidacies, log.lost())
	}
	if _, ok := c.DeliveryLatency(m, 0); !ok {
		t.Error("nothing delivered under the rank-2 leader")
	}
}

// failoverSchedule submits the first n operations of the benchmark's failover
// schedule — one every δ/2 (800 in the benchmark), seeded random one- or
// two-group destinations, clients alternating — and returns when each was due.
func failoverSchedule(c *harness.Cluster, seed int64, n int) (due map[mcast.MsgID]time.Duration, dest map[mcast.MsgID]mcast.GroupSet) {
	rng := rand.New(rand.NewSource(seed))
	due = make(map[mcast.MsgID]time.Duration)
	dest = make(map[mcast.MsgID]mcast.GroupSet)
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(2)
		var gs []mcast.GroupID
		for _, g := range rng.Perm(3)[:k] {
			gs = append(gs, mcast.GroupID(g))
		}
		at := time.Duration(i) * delta / 2
		id := c.Submit(at, i%len(c.Clients), mcast.NewGroupSet(gs...), []byte("op"))
		due[id], dest[id] = at, mcast.NewGroupSet(gs...)
	}
	return due, dest
}

// TestFailoverCostToClients: under steady load no operation due for the
// failed group waits more than 56δ — the benchmark's failover_delays — and
// once a client has had one reply from the new leader its operations are as
// fast as before the crash: none pays a retry interval again. (The second
// bound is the one the benchmark's maximum cannot see; at the parent commit
// every operation for group 0 after the change took a full client retry.)
func TestFailoverCostToClients(t *testing.T) {
	c, audit, log := newFailoverCluster(t, harness.Options{Groups: 3, GroupSize: 3, NumClients: 2, Seed: 1})
	due, dest := failoverSchedule(c, 1, 800)
	c.Sim.ControlAt(crashAt, func() { c.Crash(0) })
	done := make(map[mcast.MsgID]time.Duration)
	c.OnComplete(func(id mcast.MsgID) {
		if _, dup := done[id]; !dup {
			done[id] = c.Sim.Now()
		}
	})
	if errs := c.RunChecked(600*delta, 10*delta); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	requireClean(t, c, audit, true)
	if len(log.candidacies) != 1 || log.lost() != 0 {
		t.Errorf("candidacies = %v, lost = %d; want exactly one, none lost", log.candidacies, log.lost())
	}
	var taught time.Duration // when the slower client had its first reply of the new ballot
	for i := range c.Clients {
		at, ok := log.firstReply[c.Clients[i].ID()]
		if !ok {
			t.Fatalf("client %d never saw a reply of the new ballot", i)
		}
		taught = max(taught, at)
	}
	var worst, worstAfter time.Duration
	for id, at := range due {
		end, ok := done[id]
		if !ok {
			t.Fatalf("%v (due %v) never completed", id, at)
		}
		if dest[id].Contains(0) {
			worst = max(worst, end-at)
		}
		if at >= taught+10*delta {
			worstAfter = max(worstAfter, end-at)
		}
	}
	t.Logf("longest wait of an operation for group 0: %.1fδ; clients taught by %.1fδ; longest wait afterwards: %.1fδ",
		float64(worst)/float64(delta), float64(taught)/float64(delta), float64(worstAfter)/float64(delta))
	if worst > 56*delta {
		t.Errorf("an operation for group 0 waited %v, want ≤ 56δ = %v", worst, 56*delta)
	}
	if worstAfter > 6*delta {
		t.Errorf("an operation due after the clients followed the new leader waited %v, want ≤ 6δ = %v", worstAfter, 6*delta)
	}
}

// TestOrphanAdoptedAtTakeover: m to groups {0, 1} reaches group 1's leader
// but not group 0's, which has just stopped. The followers of group 0 know m
// only from group 1's ACCEPT, so no vote carries it and the merged state
// lacks it; the new leader re-multicasts it all the same, and it is delivered
// within 6δ of the take-over — not at group 1's third retry (a blanket, 60δ
// after the proposal) or the client's (50δ).
func TestOrphanAdoptedAtTakeover(t *testing.T) {
	c, audit, _ := newFailoverCluster(t, harness.Options{Groups: 3, GroupSize: 3, NumClients: 1})
	c.Sim.ControlAt(crashAt, func() { c.Crash(0) })
	m := c.Submit(crashAt-delta/2, 0, mcast.NewGroupSet(0, 1), []byte("orphan"))
	c.Sim.Run(crashAt + 3*delta)
	if got := replica(c, 3).Phase(m); got != msgs.PhaseProposed {
		t.Fatalf("group 1's leader holds m in %v, want PROPOSED", got)
	}
	if got := replica(c, 1).Phase(m); got != msgs.PhaseStart {
		t.Fatalf("p1 holds m in %v, want START", got)
	}
	takeover, ok := leadsAt(c, 1, 300*delta)
	if !ok {
		t.Fatal("p1 never led")
	}
	c.Sim.Run(400 * delta)
	requireClean(t, c, audit, true)
	for _, g := range []mcast.GroupID{0, 1} {
		at, ok := c.Sim.FirstDelivery(c.Top, m, g)
		if !ok || at > takeover+6*delta {
			t.Errorf("group %d delivered m at %v (%v), want by take-over + 6δ = %v", g, at, ok, takeover+6*delta)
		}
	}
}

// TestFailoverUnderJitter: with every delay drawn from [δ, 1.25δ) the
// staggered deadlines still elect cleanly — one leader per ballot, at most
// one candidacy lost per failover — on 20 seeds.
func TestFailoverUnderJitter(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		c, audit, log := newFailoverCluster(t, harness.Options{
			Groups: 3, GroupSize: 3, NumClients: 2, Seed: seed, Latency: sim.UniformJitter(delta, delta/4),
		})
		failoverSchedule(c, seed, 400) // load until 200δ, well past the take-over
		c.Sim.ControlAt(crashAt, func() { c.Crash(0) })
		// The continuous monitor (validity, exactly-once, total order, gap-free
		// groups) and the audits; the full history check is superlinear and
		// the other tests of this file run it.
		errs := c.RunChecked(400*delta, 10*delta)
		errs = append(append(errs, c.Sim.AuditGenuineness(c.Top)...), audit.Errors()...)
		if len(errs) > 0 {
			t.Fatalf("seed %d: %v", seed, errs[0])
		}
		if len(log.candidacies) < 1 || log.lost() > 1 {
			t.Errorf("seed %d: candidacies = %v, %d lost; want at most one lost", seed, log.candidacies, log.lost())
		}
		leaders := make(map[mcast.Ballot]mcast.ProcessID)
		for pid := mcast.ProcessID(1); pid < 9; pid++ {
			r := replica(c, pid)
			if r.Status() != core.StatusLeader {
				continue
			}
			if other, dup := leaders[r.CBallot()]; dup {
				t.Errorf("seed %d: p%d and p%d both lead ballot %v", seed, other, pid, r.CBallot())
			}
			leaders[r.CBallot()] = pid
		}
		if len(leaders) != 3 {
			t.Errorf("seed %d: %d leaders for 3 groups: %v", seed, len(leaders), leaders)
		}
	}
}

// TestFailoverStaysGenuine: messages to {0} and {0, 1} cross a failover of
// group 0 by both new paths — adopted as an orphan, re-sent by the client on
// learning the new leader — and no process of group 2 ever receives a message
// concerning them.
func TestFailoverStaysGenuine(t *testing.T) {
	c, audit, log := newFailoverCluster(t, harness.Options{Groups: 3, GroupSize: 3, NumClients: 1})
	c.Sim.ControlAt(crashAt, func() { c.Crash(0) })
	g0, g01 := mcast.NewGroupSet(0), mcast.NewGroupSet(0, 1)
	takeover := lastHeartbeat + suspectAfter + stagger + roundTrip
	// Group 1's leader proposes orphan; p1 learns it from that ACCEPT alone.
	orphan := c.Submit(crashAt-delta/2, 0, g01, []byte("orphan"))
	// Sent to the stopped leader just before the take-over; the client
	// re-sends them when orphan's reply names p1, long before their retry.
	resent := c.Submit(takeover-delta, 0, g0, []byte("re-sent"))
	resent2 := c.Submit(takeover-delta, 0, g01, []byte("re-sent too"))
	done := make(map[mcast.MsgID]time.Duration)
	c.OnComplete(func(id mcast.MsgID) { done[id] = c.Sim.Now() })
	c.Sim.Run(400 * delta)
	requireClean(t, c, audit, true) // includes Sim.AuditGenuineness
	for id, by := range map[mcast.MsgID]time.Duration{
		orphan: takeover + 6*delta, resent: takeover + 10*delta, resent2: takeover + 10*delta,
	} {
		if at, ok := done[id]; !ok || at > by {
			t.Errorf("%v completed at %v (%v), want by %v: its re-send path was not taken", id, at, ok, by)
		}
	}
	ours := map[mcast.MsgID]bool{orphan: true, resent: true, resent2: true}
	for _, pid := range c.Top.Members(2) {
		for _, id := range log.concerned[pid] {
			if ours[id] {
				t.Errorf("p%d of group 2 received a message concerning %v", pid, id)
			}
		}
	}
}
