package blackbox

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"wbcast/internal/core"
	"wbcast/internal/harness"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/sim"
	"wbcast/internal/wal"
)

const delta = 10 * time.Millisecond

// variantCase is one row of the suite: the variant and the numbers that
// differ between the two — the paper's latencies, and the seeds and crash
// instants under which each fault scenario exercises the variant's own
// recovery path.
type variantCase struct {
	name    string
	variant *variant

	// Latencies in δ (§IV, §VI). FT-Skeen: MULTICAST (δ) + consensus (2δ) +
	// PROPOSE (δ) + consensus (2δ) = 6δ at destination leaders, followers
	// apply the commit via Learn (7δ); a single-group message still costs
	// both consensus instances, δ + 2δ + 0 (self PROPOSE) + 2δ = 5δ.
	// FastCast: speculation overlaps the two instances, max(3δ + δ, 2δ +
	// 2δ) = 4δ, followers receive DELIVER one hop later (5δ); for a single
	// group the paths collapse to δ + max(2δ+0, 0+2δ) = 3δ.
	leader, follower, singleGroup time.Duration

	contentionSeed int64
	crashSeed      int64
	crashRun       time.Duration
	// midCrashAt is when group 0's leader dies mid-flight: FT-Skeen right
	// after consensus₁ applied (3δ+ε) and before the commit consensus
	// started; FastCast right after it issued the tentative timestamp
	// (δ+ε), before consensus₁ completes anywhere.
	midCrashAt   time.Duration
	failoverSeed int64
	failoverRun  time.Duration
}

var variants = []variantCase{
	{
		name: "ftskeen", variant: &ftskeenVariant,
		leader: 6 * delta, follower: 7 * delta, singleGroup: 5 * delta,
		contentionSeed: 2,
		crashSeed:      6, crashRun: 10 * time.Second,
		midCrashAt:   3*delta + delta/2,
		failoverSeed: 7, failoverRun: 20 * time.Second,
	},
	{
		name: "fastcast", variant: &fastcastVariant,
		leader: 4 * delta, follower: 5 * delta, singleGroup: 3 * delta,
		contentionSeed: 13,
		crashSeed:      3, crashRun: 15 * time.Second,
		midCrashAt:   delta + delta/2,
		failoverSeed: 17, failoverRun: 30 * time.Second,
	},
}

// proto runs the variant under the harness with the timers of c.
func (v variantCase) proto(c core.Config) adapter { return adapter{v.variant, c} }

// adapter runs a variant under the harness (harness.Builder), with the
// timers of cfg.
type adapter struct {
	v   *variant
	cfg core.Config
}

func (a adapter) Name() string { return a.v.name }

func (a adapter) NewReplica(pid mcast.ProcessID, top *mcast.Topology) (node.Handler, error) {
	return a.New(pid, top, nil, nil, false)
}

func (a adapter) New(pid mcast.ProcessID, top *mcast.Topology, po *obs.Proto, rs *wal.State, _ bool) (node.Handler, error) {
	c := a.cfg
	c.PID, c.Top, c.Obs, c.Recovered = pid, top, po, rs
	return newReplica(a.v, c)
}

func (adapter) Conflicts() *mcast.ConflictHolder { return nil }

func eachVariant(t *testing.T, f func(t *testing.T, v variantCase)) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) { f(t, v) })
	}
}

func cluster(t *testing.T, p harness.Protocol, o harness.Options) *harness.Cluster {
	t.Helper()
	if o.Groups == 0 {
		o.Groups, o.GroupSize = 2, 3
	}
	c, err := harness.NewCluster(p, o)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustPass(t *testing.T, c *harness.Cluster) {
	t.Helper()
	if errs := c.Check(true); len(errs) > 0 {
		t.Fatalf("%d violations, first: %v", len(errs), errs[0])
	}
}

func mustDeliver(t *testing.T, c *harness.Cluster, ids ...mcast.MsgID) {
	t.Helper()
	for _, id := range ids {
		for _, g := range []mcast.GroupID{0, 1} {
			if _, ok := c.DeliveryLatency(id, g); !ok {
				t.Errorf("%v not delivered in group %d", id, g)
			}
		}
	}
}

// TestCollisionFreeLatency verifies the latencies quoted in the paper: 6δ
// (FT-Skeen) and 4δ (FastCast) at destination leaders, one hop more at
// followers.
func TestCollisionFreeLatency(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variantCase) {
		c := cluster(t, v.proto(core.Config{}), harness.Options{NumClients: 1, Latency: sim.Uniform(delta)})
		dest := mcast.NewGroupSet(0, 1)
		id := c.Submit(0, 0, dest, []byte("m"))
		c.Sim.Run(time.Second)
		mustPass(t, c)
		for _, g := range dest {
			if lat, ok := c.DeliveryLatency(id, g); !ok || lat != v.leader {
				t.Errorf("leader latency in group %d = %v (%v), want exactly %v", g, lat, ok, v.leader)
			}
		}
		for _, pid := range []mcast.ProcessID{1, 2, 4, 5} {
			if ds := c.Sim.DeliveriesAt(pid); len(ds) != 1 || ds[0].At != v.follower {
				t.Errorf("follower %d deliveries %v, want one at %v", pid, ds, v.follower)
			}
		}
	})
}

func TestSingleGroupLatency(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variantCase) {
		c := cluster(t, v.proto(core.Config{}), harness.Options{NumClients: 1, Latency: sim.Uniform(delta)})
		id := c.Submit(0, 0, mcast.NewGroupSet(0), nil)
		c.Sim.Run(time.Second)
		mustPass(t, c)
		if lat, _ := c.DeliveryLatency(id, 0); lat != v.singleGroup {
			t.Errorf("single-group latency = %v, want %v", lat, v.singleGroup)
		}
	})
}

// TestRandomWorkloads: full specification under conflicting workloads.
func TestRandomWorkloads(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variantCase) {
		for seed := int64(0); seed < 8; seed++ {
			c := cluster(t, v.proto(core.Config{}), harness.Options{
				Groups: 3, GroupSize: 3, NumClients: 4,
				Latency: sim.UniformJitter(delta/2, delta), Seed: seed,
			})
			c.RandomWorkload(rand.New(rand.NewSource(seed)), 50, 3, 300*time.Millisecond)
			c.Sim.Run(10 * time.Second)
			if errs := c.Check(true); len(errs) > 0 {
				t.Fatalf("seed %d: %d violations, first: %v", seed, len(errs), errs[0])
			}
		}
	})
}

// TestHighContention: conflicting burst to the same groups.
func TestHighContention(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variantCase) {
		c := cluster(t, v.proto(core.Config{}), harness.Options{
			NumClients: 4, Latency: sim.UniformJitter(delta/4, delta), Seed: v.contentionSeed,
		})
		dest := mcast.NewGroupSet(0, 1)
		for i := 0; i < 40; i++ {
			c.Submit(time.Duration(i%5)*time.Millisecond, i%4, dest, nil)
		}
		c.Sim.Run(30 * time.Second)
		mustPass(t, c)
		if got := c.CollectHistory(); got != 40*6 {
			t.Errorf("deliveries = %d, want %d", got, 40*6)
		}
	})
}

// TestLeaderCrashRecovery: the Paxos leader of one group crashes; a new
// leader takes over the log, the retry machinery re-drives in-flight
// messages (for FastCast: re-collects the confirms), and Termination holds.
func TestLeaderCrashRecovery(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variantCase) {
		c := cluster(t, v.proto(core.Config{RetryInterval: 25 * delta}), harness.Options{
			NumClients: 2, Latency: sim.Uniform(delta), Retry: 25 * delta, Seed: v.crashSeed,
		})
		m1 := c.Submit(0, 0, mcast.NewGroupSet(0, 1), nil)
		c.Sim.Run(100 * time.Millisecond)
		c.Crash(0)
		c.Sim.Inject(110*time.Millisecond, 1, node.Timer{Kind: node.TimerCandidacy, Data: 1})
		m2 := c.Submit(200*time.Millisecond, 1, mcast.NewGroupSet(0, 1), nil)
		c.Sim.Run(v.crashRun)
		mustPass(t, c)
		mustDeliver(t, c, m1, m2)
	})
}

// TestMidFlightLeaderCrash (FastCast: mid-speculation): the leader crashes
// between the two consensus instances — see variantCase.midCrashAt — and
// the new leader (or the client retry) must finish the message from the
// recovered log without violating the ordering.
func TestMidFlightLeaderCrash(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variantCase) {
		c := cluster(t, v.proto(core.Config{RetryInterval: 25 * delta}), harness.Options{
			NumClients: 1, Latency: sim.Uniform(delta), Retry: 25 * delta,
		})
		m := c.Submit(0, 0, mcast.NewGroupSet(0, 1), nil)
		c.Sim.Run(v.midCrashAt)
		c.Crash(0)
		c.Sim.Inject(v.midCrashAt+delta/2, 1, node.Timer{Kind: node.TimerCandidacy, Data: 1})
		c.Sim.Run(20 * time.Second)
		mustPass(t, c)
		mustDeliver(t, c, m)
	})
}

// TestAutomaticFailover: heartbeat-driven failover without manual help.
func TestAutomaticFailover(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variantCase) {
		o := core.Config{RetryInterval: 30 * delta, HeartbeatInterval: 5 * delta, SuspectTimeout: 20 * delta}
		c := cluster(t, v.proto(o), harness.Options{
			NumClients: 2, Latency: sim.Uniform(delta), Retry: 30 * delta, Seed: v.failoverSeed,
		})
		c.Submit(0, 0, mcast.NewGroupSet(0, 1), nil)
		c.Sim.Run(100 * time.Millisecond)
		c.Crash(0)
		m2 := c.Submit(200*time.Millisecond, 1, mcast.NewGroupSet(0, 1), nil)
		c.Sim.Run(v.failoverRun)
		mustPass(t, c)
		if _, ok := c.DeliveryLatency(m2, 0); !ok {
			t.Error("m2 not delivered after automatic failover")
		}
	})
}

// softState returns the size of every per-message soft-state map of r.
func softState(r *Replica) map[string]int {
	n := map[string]int{
		"proposals": len(r.proposals), "commitVec": len(r.commitVec),
		"redrives": len(r.redrives), "obsAt": len(r.obsAt),
	}
	switch s := r.st.(type) {
	case *ftskeen:
		n["assigning"] = len(s.assigning)
	case *fastcast:
		n["tentative"], n["confirms"] = len(s.tentative), len(s.confirms)
	}
	return n
}

// TestSoftStateReleased: what a replica remembers about a message beyond
// the replicated state machine ends when the message is delivered — late
// PROPOSE/CONFIRM/MULTICAST for it (here provoked by a retry interval below
// the collision-free latency, so every message is re-driven at least once)
// allocate nothing. The parent of this package kept a PROPOSE, CONFIRM,
// commit-vector and application-message entry per message ever multicast.
func TestSoftStateReleased(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variantCase) {
		c := cluster(t, v.proto(core.Config{RetryInterval: 3 * delta}), harness.Options{
			Groups: 3, GroupSize: 3, NumClients: 4,
			Latency: sim.UniformJitter(delta/2, delta), Seed: 1, TraceSample: 1,
		})
		ids := c.RandomWorkload(rand.New(rand.NewSource(1)), 60, 3, 300*time.Millisecond)
		c.Sim.Run(10 * time.Second)
		mustPass(t, c)
		if n := c.Sim.Pending(); n != 0 {
			t.Fatalf("not quiescent: %d events pending", n)
		}
		if c.Sim.MessageCount(msgs.KindMulticast) <= len(ids)*3 {
			t.Error("no message was re-driven; the test no longer provokes late traffic")
		}
		for pid, h := range c.Replicas {
			for name, n := range softState(h.(*Replica)) {
				if n != 0 {
					t.Errorf("replica %d: %d entries left in %s after %d delivered multicasts", pid, n, name, len(ids))
				}
			}
		}
	})
}

// TestWhoDelivers documents the one structural difference between the
// variants. An FT-Skeen follower delivers as soon as the commit applies
// from its log, and no DELIVER ever crosses the wire; a FastCast follower
// with the same log delivers nothing until its leader's DELIVER arrives,
// and refuses one whose chain predecessor it has not delivered.
func TestWhoDelivers(t *testing.T) {
	top := mcast.UniformTopology(1, 3)
	app := mcast.AppMsg{ID: mcast.MakeMsgID(3, 1), Dest: mcast.NewGroupSet(0)}
	lts := mcast.Timestamp{Time: 1, Group: 0}
	logged := []msgs.Message{
		msgs.Learn{Slot: 0, Cmd: msgs.Command{Op: msgs.CmdAssign, M: app, LTS: lts}},
		msgs.Learn{Slot: 1, Cmd: msgs.Command{Op: msgs.CmdCommit, ID: app.ID, LTSs: []msgs.GroupTS{{Group: 0, TS: lts}}}},
	}
	follower := func(t *testing.T, p harness.Protocol) (node.Handler, *node.Effects) {
		h, err := p.NewReplica(1, top)
		if err != nil {
			t.Fatal(err)
		}
		fx := new(node.Effects)
		for _, m := range logged {
			h.Handle(node.Recv{From: 0, Msg: m}, fx)
		}
		return h, fx
	}

	t.Run("ftskeen delivers from the log", func(t *testing.T) {
		_, fx := follower(t, adapter{&ftskeenVariant, core.Config{}})
		if len(fx.Deliveries) != 1 || fx.Deliveries[0].Msg.ID != app.ID || fx.Deliveries[0].GTS != lts {
			t.Fatalf("deliveries after the commit applied = %v, want %v at %v", fx.Deliveries, app.ID, lts)
		}
		c := cluster(t, adapter{&ftskeenVariant, core.Config{}}, harness.Options{NumClients: 1})
		c.Submit(0, 0, mcast.NewGroupSet(0, 1), nil)
		c.Sim.Run(time.Second)
		mustPass(t, c)
		if n := c.Sim.MessageCount(msgs.KindDeliver); n != 0 {
			t.Errorf("%d DELIVER messages on the wire, want none", n)
		}
	})

	t.Run("fastcast delivers on DELIVER and refuses a chain gap", func(t *testing.T) {
		h, fx := follower(t, adapter{&fastcastVariant, core.Config{}})
		if len(fx.Deliveries) != 0 {
			t.Fatalf("follower delivered %v from the log alone", fx.Deliveries)
		}
		d := msgs.Deliver{ID: app.ID, Bal: top.InitialBallot(0), LTS: lts, GTS: lts}
		for _, step := range []struct {
			why  string
			d    msgs.Deliver
			want int
		}{
			{"chained from a delivery this follower missed", withPrev(d, mcast.Timestamp{Time: 1, Group: 1}), 0},
			{"from a ballot this follower does not follow", withBallot(d, mcast.Ballot{N: 9, Proc: 2}), 0},
			{"chained from its own watermark", d, 1},
			{"a duplicate", d, 1},
		} {
			h.Handle(node.Recv{From: 0, Msg: step.d}, fx)
			if len(fx.Deliveries) != step.want {
				t.Fatalf("DELIVER %s: %d deliveries, want %d", step.why, len(fx.Deliveries), step.want)
			}
		}
		c := cluster(t, adapter{&fastcastVariant, core.Config{}}, harness.Options{NumClients: 1})
		c.Submit(0, 0, mcast.NewGroupSet(0, 1), nil)
		c.Sim.Run(time.Second)
		mustPass(t, c)
		// One DELIVER per follower per destination group.
		if n, want := c.Sim.MessageCount(msgs.KindDeliver), 2*2; n != want {
			t.Errorf("%d DELIVER messages on the wire, want %d", n, want)
		}
	})
}

func withPrev(d msgs.Deliver, prev mcast.Timestamp) msgs.Deliver { d.Prev = prev; return d }
func withBallot(d msgs.Deliver, b mcast.Ballot) msgs.Deliver     { d.Bal = b; return d }

func TestProtocolNames(t *testing.T) {
	for _, v := range variants {
		if got := v.proto(core.Config{}).Name(); got != v.name {
			t.Errorf("Name() = %q, want %q", got, v.name)
		}
	}
	_, err := FastCast(core.Config{PID: 99, Top: mcast.UniformTopology(1, 3)})
	if err == nil || !strings.HasPrefix(err.Error(), "fastcast: process 99") {
		t.Errorf("a process outside every group: error %v, want one naming the variant and the process", err)
	}
}
