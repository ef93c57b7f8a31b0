package core_test

import (
	"fmt"
	"testing"

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

// recordCounter counts the message records appended to one replica's store,
// per message and phase.
type recordCounter struct {
	wal.Storage
	n map[string]int
}

func (c recordCounter) Append(entries ...wal.Entry) error {
	for _, e := range entries {
		if e.Kind == wal.EntryRecord {
			c.n[fmt.Sprintf("%v %v", e.Rec.M.ID, e.Rec.Phase)]++
		}
	}
	return c.Storage.Append(entries...)
}

// TestRecordsLoggedOncePerPhase: every replica of the destination group logs
// a message's ACCEPTED record once and its COMMITTED record once — the
// leader at commit, and not again at its own DELIVER; a follower at DELIVER
// — in both frontier modes.
func TestRecordsLoggedOncePerPhase(t *testing.T) {
	for _, appHorizon := range []bool{false, true} {
		t.Run(fmt.Sprintf("AppGCHorizon=%v", appHorizon), func(t *testing.T) {
			counts := make(map[mcast.ProcessID]map[string]int)
			c, err := harness.NewCluster(core.Protocol{AppGCHorizon: appHorizon}, harness.Options{
				Groups: 1, GroupSize: 3, Latency: sim.Uniform(delta),
				Storage: func(pid mcast.ProcessID) (wal.Storage, error) {
					counts[pid] = make(map[string]int)
					return recordCounter{wal.NewMemory(), counts[pid]}, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			var ids []mcast.MsgID
			for i := 0; i < 5; i++ {
				ids = append(ids, c.Submit(0, 0, mcast.NewGroupSet(0), []byte{byte(i)}))
			}
			c.Sim.RunQuiescent(100 * delta)
			if errs := c.Check(true); len(errs) > 0 {
				t.Fatal(errs)
			}
			for pid, n := range counts {
				for _, id := range ids {
					for _, phase := range []msgs.Phase{msgs.PhaseAccepted, msgs.PhaseCommitted} {
						if got := n[fmt.Sprintf("%v %v", id, phase)]; got != 1 {
							t.Errorf("p%d logged the %v record of %v %d times, want 1", pid, phase, id, got)
						}
					}
				}
			}
		})
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

// TestLeaderVouchesItsOwnFrontierAtGC: the leader's own delivery frontier
// enters the group watermark it gossips at the GC timer, so with
// AppGCHorizon that call logs the frontier eagerly (once per advance); the
// prune the application's horizon licenses is lazy.
func TestLeaderVouchesItsOwnFrontierAtGC(t *testing.T) {
	r := newDurableReplica(t, 0, true)
	id := mcast.MakeMsgID(clientA, 1)
	fx := &node.Effects{}
	// Drive one single-group message through the leader: MULTICAST, its own
	// ACCEPT, a quorum of ACCEPT_ACKs, its own DELIVER.
	pending := []node.Input{node.Recv{From: clientA, Msg: msgs.Multicast{M: mcast.AppMsg{ID: id, Dest: mcast.NewGroupSet(0)}}}}
	var delivery *node.Effects
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
			}
		}
		if len(fx.Deliveries) > 0 {
			delivery = fx
		}
	}
	if delivery == nil {
		t.Fatal("the leader never delivered")
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
