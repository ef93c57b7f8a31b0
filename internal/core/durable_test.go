package core_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"wbcast/internal/core"
	"wbcast/internal/harness"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/sim"
	"wbcast/internal/wal"
)

// Which entries a replica logs, and which of them gate a release
// (docs/DURABILITY.md, "What is persisted").

// recordCounter counts the Append calls on one replica's store and the
// message records in them, per message and phase, in log order.
type recordCounter struct {
	wal.Storage
	n       map[string]int
	order   *[]string
	appends *int
}

func (c recordCounter) Append(entries ...wal.Entry) error {
	*c.appends++
	for _, e := range entries {
		if e.Kind == wal.EntryRecord {
			k := fmt.Sprintf("%v %v", e.Rec.M.ID, e.Rec.Phase)
			c.n[k]++
			*c.order = append(*c.order, k)
		}
	}
	return c.Storage.Append(entries...)
}

// TestRecordsLoggedOncePerPhase: every replica of the destination group logs
// a message's ACCEPTED record once and its COMMITTED record once, in that
// order — the leader at commit, and not again at its own DELIVER; a follower
// at DELIVER — in both frontier modes, and every Handle call that logs
// anything costs one Append, whatever it logs: three per message at the
// leader (ACCEPT, commit, its own DELIVER's frontier), two at a follower.
func TestRecordsLoggedOncePerPhase(t *testing.T) {
	for _, appHorizon := range []bool{false, true} {
		t.Run(fmt.Sprintf("AppGCHorizon=%v", appHorizon), func(t *testing.T) {
			counts := make(map[mcast.ProcessID]recordCounter)
			c, err := harness.NewCluster(core.Protocol{AppGCHorizon: appHorizon}, harness.Options{
				Groups: 1, GroupSize: 3, Latency: sim.Uniform(delta),
				Storage: func(pid mcast.ProcessID) (wal.Storage, error) {
					counts[pid] = recordCounter{wal.NewMemory(), make(map[string]int), new([]string), new(int)}
					return counts[pid], nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			var ids []mcast.MsgID
			for i := 0; i < 5; i++ {
				ids = append(ids, c.Submit(0, 0, mcast.NewGroupSet(0), []byte{byte(i)}))
			}
			c.Sim.Run(100 * delta)
			if errs := c.Check(true); len(errs) > 0 {
				t.Fatal(errs)
			}
			for pid, rc := range counts {
				for _, id := range ids {
					accepted, committed := fmt.Sprintf("%v %v", id, msgs.PhaseAccepted), fmt.Sprintf("%v %v", id, msgs.PhaseCommitted)
					for _, k := range []string{accepted, committed} {
						if got := rc.n[k]; got != 1 {
							t.Errorf("p%d logged the record %s %d times, want 1", pid, k, got)
						}
					}
					if slices.Index(*rc.order, accepted) > slices.Index(*rc.order, committed) {
						t.Errorf("p%d logged %s after %s", pid, accepted, committed)
					}
				}
				want := 2 * len(ids)
				if pid == c.Top.InitialLeader(0) {
					want = 3 * len(ids)
				}
				if *rc.appends != want {
					t.Errorf("p%d: %d Append calls for %d messages, want %d (one per call that logs)", pid, *rc.appends, len(ids), want)
				}
			}
		})
	}
}

// TestOneSyncOnTheCriticalPath: with commits that take σ of virtual time, a
// solo message under an application frontier is delivered at its leader at
// exactly 3δ + σ — the one entry anything waits for is each acceptor's
// ACCEPTED record, logged in parallel; MULTICAST→ACCEPT, commit→DELIVER and
// delivery→reply wait for no disk — and its client is answered one hop
// later. Without the application frontier the leader's COMMITTED record and
// its delivery frontier gate too, a σ each: that is what the library's own
// exactly-once costs.
func TestOneSyncOnTheCriticalPath(t *testing.T) {
	const sigma = delta / 4
	for _, tc := range []struct {
		appHorizon bool
		syncs      time.Duration
	}{{true, 1}, {false, 3}} {
		c, err := harness.NewCluster(core.Protocol{}, harness.Options{
			Groups: 1, GroupSize: 3, Latency: sim.Uniform(delta), CommitTime: sigma, AppHorizon: tc.appHorizon,
			Storage: func(mcast.ProcessID) (wal.Storage, error) { return wal.NewMemory(), nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		var answered time.Duration
		c.OnComplete(func(mcast.MsgID) { answered = c.Sim.Now() })
		id := c.Submit(0, 0, mcast.NewGroupSet(0), []byte("m"))
		c.Sim.Run(100 * delta)
		if errs := c.Check(true); len(errs) > 0 {
			t.Fatal(errs)
		}
		want := 3*delta + tc.syncs*sigma
		if lat, _ := c.DeliveryLatency(id, 0); lat != want {
			t.Errorf("AppGCHorizon=%v: delivered at the leader after %v, want 3δ + %dσ = %v", tc.appHorizon, lat, tc.syncs, want)
		}
		if answered != want+delta {
			t.Errorf("AppGCHorizon=%v: the client was answered at %v, want one hop after the delivery (%v)", tc.appHorizon, answered, want+delta)
		}
	}
}

// TestAcceptLogsTheClockItVouchesFor: an ACCEPT_ACK says the acceptor's
// clock has passed the tentative global timestamp (line 14). When that lies
// above this group's own proposal — all the ACCEPTED record carries — the
// call logs the clock eagerly beside the record; a single-group message,
// whose record already bounds it, logs nothing more.
func TestAcceptLogsTheClockItVouchesFor(t *testing.T) {
	top := mcast.UniformTopology(2, 3)
	r, err := core.NewReplica(core.Config{PID: 1, Top: top, Durable: true, AppGCHorizon: true})
	if err != nil {
		t.Fatal(err)
	}
	accept := func(id mcast.MsgID, dest mcast.GroupSet, g mcast.GroupID, lts uint64) *node.Effects {
		fx := &node.Effects{}
		r.Handle(node.Recv{From: top.InitialLeader(g), Msg: msgs.Accept{
			M: mcast.AppMsg{ID: id, Dest: dest}, Group: g, Bal: top.InitialBallot(g), LTS: mcast.Timestamp{Time: lts, Group: g},
		}}, fx)
		return fx
	}
	solo := accept(mcast.MakeMsgID(clientA, 1), mcast.NewGroupSet(0), 0, 1)
	if got := kinds(solo.Persists); got != kinds([]wal.Entry{{Kind: wal.EntryRecord}}) {
		t.Errorf("a single-group ACCEPT persisted %v eagerly, want the record alone", got)
	}
	m := mcast.MakeMsgID(clientA, 2)
	accept(m, mcast.NewGroupSet(0, 1), 0, 2)
	fx := accept(m, mcast.NewGroupSet(0, 1), 1, 11)
	if got := kinds(fx.Persists); got != kinds([]wal.Entry{{Kind: wal.EntryRecord}, {Kind: wal.EntryBallot}}) {
		t.Fatalf("the ACCEPT that completed a two-group message persisted %v eagerly, want the record and the clock", got)
	}
	if e := fx.Persists[1]; e.Clock != 11 || e.CBal != r.CBallot() {
		t.Errorf("logged clock %d under cballot %v, want 11 under %v", e.Clock, e.CBal, r.CBallot())
	}
	if len(fx.Sends) == 0 {
		t.Error("no ACCEPT_ACK left with the entries")
	}
}

// TestRestartKeepsItsPromise: a replica that crashed after promising a
// ballot beyond the one it participates in (a NEW_LEADER_ACK whose candidate
// never installed a state) comes back RECOVERING, as it went down: an ACCEPT
// of the old ballot is not acknowledged. Back as a FOLLOWER it would vote
// below its promise, and a candidate of the promised ballot — which merges
// only the states of the highest cballot reported — would never learn of it.
func TestRestartKeepsItsPromise(t *testing.T) {
	top := mcast.UniformTopology(1, 3)
	rs := wal.NewState()
	rs.CBallot = top.InitialBallot(0)
	rs.Ballot = mcast.Ballot{N: 2, Proc: 1}
	r, err := core.NewReplica(core.Config{PID: 2, Top: top, Durable: true, Recovered: rs})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status() != core.StatusRecovering {
		t.Fatalf("restarted with ballot %v above cballot %v as %v, want RECOVERING", rs.Ballot, rs.CBallot, r.Status())
	}
	fx := &node.Effects{}
	r.Handle(node.Recv{From: 0, Msg: msgs.Accept{
		M: mcast.AppMsg{ID: mcast.MakeMsgID(clientA, 1), Dest: mcast.NewGroupSet(0)}, Group: 0,
		Bal: top.InitialBallot(0), LTS: mcast.Timestamp{Time: 1, Group: 0},
	}}, fx)
	if len(fx.Sends)+len(fx.Persists) != 0 {
		t.Errorf("acknowledged an ACCEPT of ballot %v after promising %v: %d sends, %d entries",
			top.InitialBallot(0), rs.Ballot, len(fx.Sends), len(fx.Persists))
	}
}

func newDurableReplica(t *testing.T, pid mcast.ProcessID, appHorizon bool) *core.Replica {
	t.Helper()
	r, err := core.NewReplica(core.Config{
		PID: pid, Top: mcast.UniformTopology(1, 3), HeartbeatInterval: replyHB, GCInterval: replyHB,
		Durable: true, AppGCHorizon: appHorizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func kinds(es []wal.Entry) string {
	var ks []wal.EntryKind
	for _, e := range es {
		ks = append(ks, e.Kind)
	}
	return fmt.Sprint(ks)
}

var (
	recordAndFrontier = kinds([]wal.Entry{{Kind: wal.EntryRecord}, {Kind: wal.EntryFrontier}})
	frontierOnly      = kinds([]wal.Entry{{Kind: wal.EntryFrontier}})
	nothing           = kinds(nil)
)

// TestDeliveryEntriesGateOnlyWithoutAppHorizon: without AppGCHorizon a
// follower's delivery persists its COMMITTED record and frontier eagerly
// (Deliveries() consumers get exactly-once across restarts) and a heartbeat
// ack adds nothing; with it both entries are lazy, and the first heartbeat
// ack that reports the advanced frontier — the report lets the group prune
// — logs that frontier eagerly, once.
func TestDeliveryEntriesGateOnlyWithoutAppHorizon(t *testing.T) {
	heartbeat := node.Recv{From: 0, Msg: msgs.Heartbeat{Group: 0, Bal: mcast.Ballot{N: 1, Proc: 0}}}
	for _, tc := range []struct {
		appHorizon               bool
		eager, lazy, atHeartbeat string
		atSecondHeartbeat        string
	}{
		{false, recordAndFrontier, nothing, nothing, nothing},
		{true, nothing, recordAndFrontier, frontierOnly, nothing},
	} {
		r := newDurableReplica(t, 1, tc.appHorizon)
		fx := deliverTo(r, mcast.MakeMsgID(clientA, 1), 1)
		if got := kinds(fx.Persists); got != tc.eager {
			t.Errorf("AppGCHorizon=%v: delivery persisted eagerly %v, want %v", tc.appHorizon, got, tc.eager)
		}
		if got := kinds(fx.LazyPersists); got != tc.lazy {
			t.Errorf("AppGCHorizon=%v: delivery persisted lazily %v, want %v", tc.appHorizon, got, tc.lazy)
		}
		for i, want := range []string{tc.atHeartbeat, tc.atSecondHeartbeat} {
			fx.Reset()
			r.Handle(heartbeat, fx)
			if got := kinds(fx.Persists); got != want || len(fx.LazyPersists) != 0 {
				t.Errorf("AppGCHorizon=%v: heartbeat %d persisted %v eagerly and %d entries lazily, want %v and 0",
					tc.appHorizon, i+1, got, len(fx.LazyPersists), want)
			}
			if want == frontierOnly && fx.Persists[0].Max != (mcast.Timestamp{Time: 1, Group: 0}) {
				t.Errorf("the vouched frontier is %v, want the delivered one", fx.Persists[0].Max)
			}
		}
	}
}

// TestLeaderVouchesItsOwnFrontierAtGC: with AppGCHorizon the leader's
// COMMITTED record at commit is lazy; its own delivery frontier enters the
// group watermark it gossips at the GC timer, so that call logs the frontier
// eagerly (once per advance); the prune the application's horizon licenses
// is lazy.
func TestLeaderVouchesItsOwnFrontierAtGC(t *testing.T) {
	r := newDurableReplica(t, 0, true)
	id := mcast.MakeMsgID(clientA, 1)
	fx := &node.Effects{}
	// Drive one single-group message through the leader: MULTICAST, its own
	// ACCEPT, a quorum of ACCEPT_ACKs, its own DELIVER.
	pending := []node.Input{node.Recv{From: clientA, Msg: msgs.Multicast{M: mcast.AppMsg{ID: id, Dest: mcast.NewGroupSet(0)}}}}
	var delivery, commit *node.Effects
	for len(pending) > 0 {
		in := pending[0]
		pending = pending[1:]
		fx = &node.Effects{}
		r.Handle(in, fx)
		for _, s := range fx.Sends {
			switch m := s.Msg.(type) {
			case msgs.Accept:
				pending = append(pending, node.Recv{From: 0, Msg: m})
			case msgs.AcceptAck:
				pending = append(pending, node.Recv{From: 0, Msg: m}, node.Recv{From: 1, Msg: m})
			case msgs.Deliver:
				pending = append(pending, node.Recv{From: 0, Msg: m})
				commit = fx
			}
		}
		if len(fx.Deliveries) > 0 {
			delivery = fx
		}
	}
	if delivery == nil || commit == nil {
		t.Fatal("the leader never delivered")
	}
	// The DELIVER fan-out vouches for nothing a quorum's ACCEPTED records do
	// not already fix: the leader's COMMITTED record rides the next sync.
	if len(commit.Persists) != 0 || kinds(commit.LazyPersists) != kinds([]wal.Entry{{Kind: wal.EntryRecord}}) {
		t.Errorf("the commit persisted %v eagerly and %v lazily, want nothing and the COMMITTED record",
			kinds(commit.Persists), kinds(commit.LazyPersists))
	}
	if len(delivery.Persists) != 0 || kinds(delivery.LazyPersists) != frontierOnly {
		t.Errorf("the leader's DELIVER persisted %v eagerly and %v lazily, want nothing and the frontier (its COMMITTED record was logged at commit)",
			kinds(delivery.Persists), kinds(delivery.LazyPersists))
	}
	// Both followers report the frontier; the application has it too.
	for _, p := range []mcast.ProcessID{1, 2} {
		ack := msgs.HeartbeatAck{Group: 0, Bal: r.CBallot(), Delivered: mcast.Timestamp{Time: 1, Group: 0}}
		r.Handle(node.Recv{From: p, Msg: ack}, &node.Effects{})
	}
	r.Handle(node.GCHorizon{TS: mcast.Timestamp{Time: 1, Group: 0}}, &node.Effects{})
	for i, want := range []struct{ eager, lazy string }{
		{frontierOnly, kinds([]wal.Entry{{Kind: wal.EntryPrune}})},
		{nothing, nothing},
	} {
		fx = &node.Effects{}
		r.Handle(node.Timer{Kind: node.TimerGC}, fx)
		if kinds(fx.Persists) != want.eager || kinds(fx.LazyPersists) != want.lazy {
			t.Errorf("GC timer %d persisted %v eagerly and %v lazily, want %v and %v",
				i+1, kinds(fx.Persists), kinds(fx.LazyPersists), want.eager, want.lazy)
		}
	}
	if r.Pruned() != 1 {
		t.Errorf("the leader pruned %d messages, want 1", r.Pruned())
	}
}
