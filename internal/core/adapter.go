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

// Protocol is the harness adapter for the white-box protocol and, with
// Generic set, for its conflict-aware mode, the "genmcast" protocol (it
// satisfies internal/harness.Protocol structurally, including the
// observability, durability and conflict extensions).
type Protocol struct {
	// RetryInterval, HeartbeatInterval, SuspectTimeout and GCInterval are
	// forwarded to every replica's Config; zero values disable the
	// corresponding background behaviour for deterministic tests.
	RetryInterval     time.Duration
	HeartbeatInterval time.Duration
	SuspectTimeout    time.Duration
	GCInterval        time.Duration
	// AppGCHorizon forwards Config.AppGCHorizon: pruning additionally
	// waits for node.GCHorizon inputs raising the app durability horizon.
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

// NewReplica implements harness.Protocol.
func (p Protocol) NewReplica(pid mcast.ProcessID, top *mcast.Topology) (node.Handler, error) {
	return p.NewReplicaObs(pid, top, nil)
}

// NewReplicaObs implements the harness's optional observability extension:
// like NewReplica, with an instrumentation handle for the replica.
func (p Protocol) NewReplicaObs(pid mcast.ProcessID, top *mcast.Topology, po *obs.Proto) (node.Handler, error) {
	return p.NewReplicaStored(pid, top, po, nil)
}

// NewReplicaStored implements the harness's optional durability extension:
// rs, when non-nil, makes the replica durable — it emits persist effects
// for every crash-surviving state transition and replays rs (the folded
// state of its store) before joining. In conflict mode that includes the
// applied set (wal.EntryDelivered), which replaces the GTS frontier as the
// restart re-delivery guard.
func (p Protocol) NewReplicaStored(pid mcast.ProcessID, top *mcast.Topology, po *obs.Proto, rs *wal.State) (node.Handler, error) {
	return NewReplica(Config{
		PID:               pid,
		Top:               top,
		RetryInterval:     p.RetryInterval,
		HeartbeatInterval: p.HeartbeatInterval,
		SuspectTimeout:    p.SuspectTimeout,
		GCInterval:        p.GCInterval,
		AppGCHorizon:      p.AppGCHorizon,
		Obs:               po,
		Durable:           rs != nil,
		Recovered:         rs,
		Conflicts:         p.Generic,
	})
}

// Conflicts implements the harness's conflict extension: the holder whose
// relation the partial-order checks verify deliveries against, nil for the
// total-order contract of plain white-box.
func (p Protocol) Conflicts() *mcast.ConflictHolder { return p.Generic }

// Contacts implements harness.Protocol: clients contact the initial leader
// of each group (the Cur_leader guess of Fig. 4 line 2).
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
