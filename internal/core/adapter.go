package core

import (
	"hash/fnv"
	"time"

	"wbcast/internal/batch"
	"wbcast/internal/mcast"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/wal"
)

// Protocol is a harness adapter for the white-box protocol and, with
// Generic set, for its conflict-aware mode, with timers of the caller's
// choosing (internal/harness.Builder, structurally). The protocol table,
// internal/protocols, builds every replica with core.DefaultConfig's timers;
// this adapter serves the tests and scenarios that set them one by one.
type Protocol struct {
	// RetryInterval, HeartbeatInterval, SuspectTimeout and GCInterval are
	// forwarded to every replica's Config; zero values disable the
	// corresponding background behaviour for deterministic tests.
	RetryInterval     time.Duration
	HeartbeatInterval time.Duration
	SuspectTimeout    time.Duration
	GCInterval        time.Duration
	// AppGCHorizon forwards Config.AppGCHorizon, as the appHorizon argument
	// of New does.
	AppGCHorizon bool
	// Generic forwards Config.Conflicts: non-nil runs conflict-aware
	// generic multicast (conflict.go) under the holder's relation. Conflict
	// mode ignores GCInterval: it never garbage-collects delivered messages.
	Generic *mcast.ConflictHolder
}

// Name implements harness.Protocol.
func (p Protocol) Name() string {
	if p.Generic != nil {
		return "genmcast"
	}
	return "wbcast"
}

// New implements harness.Builder: replica pid, instrumented by po (nil: not
// at all) and, with rs non-nil, durable — it emits persist effects for
// every crash-surviving state transition and replays rs (the folded state
// of its store) before joining. In conflict mode that includes the applied
// set (wal.EntryDelivered), which replaces the GTS frontier as the restart
// re-delivery guard.
func (p Protocol) New(pid mcast.ProcessID, top *mcast.Topology, po *obs.Proto, rs *wal.State, appHorizon bool) (node.Handler, error) {
	return NewReplica(Config{
		PID:               pid,
		Top:               top,
		RetryInterval:     p.RetryInterval,
		HeartbeatInterval: p.HeartbeatInterval,
		SuspectTimeout:    p.SuspectTimeout,
		GCInterval:        p.GCInterval,
		AppGCHorizon:      p.AppGCHorizon || appHorizon,
		Obs:               po,
		Durable:           rs != nil,
		Recovered:         rs,
		Conflicts:         p.Generic,
	})
}

// NewReplica implements harness.Protocol.
func (p Protocol) NewReplica(pid mcast.ProcessID, top *mcast.Topology) (node.Handler, error) {
	return p.New(pid, top, nil, nil, false)
}

// NewReplicaObs is New, volatile.
func (p Protocol) NewReplicaObs(pid mcast.ProcessID, top *mcast.Topology, po *obs.Proto) (node.Handler, error) {
	return p.New(pid, top, po, nil, false)
}

// NewReplicaStored is New.
func (p Protocol) NewReplicaStored(pid mcast.ProcessID, top *mcast.Topology, po *obs.Proto, rs *wal.State) (node.Handler, error) {
	return p.New(pid, top, po, rs, false)
}

// Conflicts implements harness.Builder: the holder whose relation the
// partial-order checks verify deliveries against, nil for the total-order
// contract of plain white-box.
func (p Protocol) Conflicts() *mcast.ConflictHolder { return p.Generic }

// Contacts returns, per group, the process a client contacts: its initial
// leader (the Cur_leader guess of Fig. 4 line 2).
func (Protocol) Contacts(top *mcast.Topology) func(g mcast.GroupID) []mcast.ProcessID {
	return func(g mcast.GroupID) []mcast.ProcessID {
		return []mcast.ProcessID{top.InitialLeader(g)}
	}
}

// Relation wraps a payload-level conflict relation as the holder
// Protocol.Generic and Config.Conflicts take: lifted to whole protocol
// messages, batch envelopes expanded. A nil rel is the all-conflict relation.
func Relation(rel mcast.ConflictRelation) *mcast.ConflictHolder {
	return mcast.NewConflictHolder(batch.Conflicts(rel))
}

// PayloadClasses returns a synthetic conflict relation that hashes payloads
// into k classes: two payloads conflict iff they land in the same class.
// Chaos tests use it so roughly 1/k of message pairs conflict — enough
// commuting pairs for early releases (and cross-replica reorderings) to
// actually occur, while every class still exercises the ordered path.
// k ≤ 1 returns nil (every pair conflicts).
func PayloadClasses(k int) mcast.ConflictRelation {
	if k <= 1 {
		return nil
	}
	class := func(p []byte) uint32 {
		h := fnv.New32a()
		h.Write(p)
		return h.Sum32() % uint32(k)
	}
	return func(a, b []byte) bool { return class(a) == class(b) }
}
