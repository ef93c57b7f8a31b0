package wbcast

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"wbcast/internal/batch"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/protocols"
	"wbcast/internal/wal"
)

// Replica is a handle to one protocol replica hosted on a Transport. A
// Cluster holds one Replica per process of the topology; a distributed
// deployment starts exactly the replicas that live on this host with
// NewReplica, one per process (see cmd/wbcast-node).
type Replica struct {
	cfg Config // normalised
	top *mcast.Topology
	pid ProcessID
	tr  Transport
	reg *obs.Registry
	// store is nil without Config.Storage. While the replica runs, only its
	// shard's node.Step uses it, one hand-off at a time; Close and Shutdown
	// do once crash has stopped the loop and joined the hand-off in flight.
	store wal.Storage
	app   AppState // application state recovered at construction
	// lastSender is the largest sender ID among the messages the recovered
	// state records, NoProcess when it records none.
	lastSender ProcessID

	mu     sync.Mutex
	subs   []*Subscription
	closed bool
	// stopOnce guards the crash + store-teardown sequence shared by Close
	// and Shutdown, so a double Close never double-closes the store.
	stopOnce sync.Once
}

// NewReplica builds, starts and returns replica pid of the topology
// described by cfg, hosted on cfg.Transport. The replica participates in
// ordering from the moment NewReplica returns; deliveries are observed
// through Deliveries.
//
// pid must be a replica slot of the topology: 0 ≤ pid < Groups×Replicas,
// assigned group-major (replica pid belongs to group pid/Replicas).
func NewReplica(cfg Config, pid ProcessID) (*Replica, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	top := mcast.UniformTopology(cfg.Groups, cfg.Replicas)
	if err := cfg.Transport.open(&cfg); err != nil {
		return nil, err
	}
	return newReplicaOn(cfg, top, pid)
}

// newReplicaOn wires one replica into an already-opened transport; cfg is
// normalised.
func newReplicaOn(cfg Config, top *mcast.Topology, pid ProcessID) (*Replica, error) {
	if !top.IsReplica(pid) {
		return nil, fmt.Errorf("wbcast: process %d is not a replica of a %d×%d topology", pid, cfg.Groups, cfg.Replicas)
	}
	reg := obs.NewRegistry(fmt.Sprintf(`proc="%d"`, pid))
	po := obs.NewProto(reg, cfg.clock, cfg.tracer, pid)
	// The protocol's timers derive from Delta, except on the plain
	// simulated transport: with the background timers (retries, heartbeats,
	// failure detection, GC) off, its runs quiesce and replay identically.
	// Chaos mode (SimulatedOptions.Faults) keeps them, because the
	// timer-driven recovery machinery is exactly what is under test.
	opts := protocols.Options{Conflicts: cfg.conflicts}
	if cfg.Transport.backgroundTimers() {
		opts.Delta = cfg.Delta
	}
	proto, _ := cfg.Protocol.entry()
	proto = proto.With(opts)
	r := &Replica{cfg: cfg, top: top, pid: pid, tr: cfg.Transport, reg: reg, lastSender: NoProcess}
	// build makes the protocol handler that replays rs, the folded state of
	// the replica's store, before joining (nil: volatile).
	build := func(rs *wal.State) (node.Handler, error) {
		return proto.New(pid, top, po, rs, cfg.AppGCHorizon)
	}
	var (
		rs      *wal.State
		rebuild func() (node.Handler, error)
	)
	if cfg.Storage != nil {
		store, err := cfg.Storage(pid)
		if err != nil {
			return nil, fmt.Errorf("wbcast: opening storage for process %d: %w", pid, err)
		}
		if im, ok := store.(interface{ SetMetrics(*obs.Store) }); ok {
			im.SetMetrics(obs.NewStore(reg))
		}
		if rs, err = store.Load(); err != nil {
			store.Close()
			return nil, fmt.Errorf("wbcast: recovering storage for process %d: %w", pid, err)
		}
		r.store = store
		// The simulated transport rebuilds the replica at every FaultPlan
		// restart, so a revived process recovers from its store rather than
		// from leftover RAM — but never once the replica was closed through
		// the API and its store with it: then it keeps its in-memory handler.
		rebuild = func() (node.Handler, error) {
			r.mu.Lock()
			closed := r.closed
			r.mu.Unlock()
			if closed {
				return nil, nil
			}
			rs, err := store.Load()
			if err != nil {
				return nil, err
			}
			return build(rs)
		}
	}
	h, err := build(rs)
	if err != nil {
		if r.store != nil {
			r.store.Close()
		}
		return nil, err
	}
	if rs != nil {
		r.lastSender = lastSender(rs)
		r.app = AppState{
			Snapshot: rs.AppSnapshot,
			Log:      rs.AppLog,
			Replay:   appReplay(rs, top.GroupOf(pid)),
		}
	}
	if err := cfg.Transport.add(h, hostOptions{
		onDeliver: r.dispatch,
		reg:       reg,
		store:     r.store,
		rebuild:   rebuild,
	}); err != nil {
		r.closeSubs()
		if r.store != nil {
			r.store.Close()
		}
		return nil, err
	}
	return r, nil
}

// dispatch fans one delivery out to every live subscription. It runs on
// the delivering process's goroutine, so per-replica order is preserved.
func (r *Replica) dispatch(d Delivery) {
	r.mu.Lock()
	subs := r.subs
	r.mu.Unlock()
	for _, s := range subs {
		s.push(d)
	}
}

// ID returns the replica's process ID.
func (r *Replica) ID() ProcessID { return r.pid }

// Group returns the group the replica belongs to.
func (r *Replica) Group() GroupID { return r.top.GroupOf(r.pid) }

// Addr returns the address the replica is reachable at, or "" on
// transports without addresses (in-process, simulated).
func (r *Replica) Addr() string { return r.tr.addr(r.pid) }

// Deliveries subscribes to the replica's deliveries: a lossless
// subscription with a 1024-delivery buffer. Each call creates an
// independent subscription that observes every delivery from the point of
// subscription on.
func (r *Replica) Deliveries() *Subscription {
	s := newSubscription(1024)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		s.Close()
	} else {
		// Copy on write: dispatch reads r.subs outside the lock.
		r.subs = append(slices.Clip(r.subs), s)
	}
	return s
}

// Stats returns the replica's transport-level counters: its node's I/O
// statistics on the TCP and in-process transports, all zeros on the
// simulated one.
func (r *Replica) Stats() TransportStats { return r.tr.stats(r.pid) }

// Metrics returns a snapshot of the replica's metrics: per-stage latency
// histograms, recovery counters, delivery counts and the transport's
// runtime counters, keyed by metric name (see docs/OBSERVABILITY.md for
// the catalog). Snapshots of many processes merge with MergeMetrics.
func (r *Replica) Metrics() MetricsSnapshot { return r.reg.Snapshot() }

// Trace returns the deployment-wide trace recorded so far: the stage
// timelines of sampled messages interleaved with recovery and fault
// events, in recording order. The tracer is shared by every process of the
// deployment (any replica returns the same events); it is nil — and Trace
// returns nothing — unless Config.TraceSample is set.
func (r *Replica) Trace() []TraceEvent { return r.cfg.tracer.Events() }

// Close crash-stops the replica: it stops processing inputs (and, on the
// TCP transport, closes its listener and connections) and its
// subscriptions are closed. The group tolerates up to (Replicas-1)/2
// closed or crashed members. A configured store is closed with a final
// sync but no snapshot — a later restart on the same storage replays the
// WAL; Shutdown is the graceful variant that snapshots first.
func (r *Replica) Close() { _ = r.stop(false) } // Shutdown reports the store's errors

// Shutdown stops the replica cleanly: it stops processing inputs (as
// Close), then writes a final synced snapshot and closes its store, so a
// later restart on the same storage recovers from the snapshot alone
// without WAL replay. Without a configured store, Shutdown is Close. The
// returned error is the storage's — a failed final snapshot still leaves
// the synced WAL, from which a restart recovers just as correctly.
func (r *Replica) Shutdown() error { return r.stop(true) }

// stop is Close and Shutdown: the first call crashes the process and tears
// its store down, with a final snapshot or without.
func (r *Replica) stop(snapshot bool) (err error) {
	// Subscriptions first: a full subscription blocks the delivering
	// goroutine inside push, and the transports' crash paths join (or lock
	// against) exactly that goroutine. Closing the
	// subscriptions releases it; Cluster.Close orders the same way.
	r.closeSubs()
	r.stopOnce.Do(func() {
		// crash returns once the shard loop can no longer touch the store.
		r.tr.crash(r.pid)
		if r.store == nil {
			return
		}
		if snapshot {
			err = r.store.Snapshot()
		}
		if cerr := r.store.Close(); err == nil {
			err = cerr
		}
	})
	return err
}

// SetConflictRelation rebinds the replica's conflict relation (Genmcast
// only) and reports whether it took effect — false means the replica runs a
// different protocol and the call was a no-op. Until the first call every
// pair conflicts. Batched payloads are handled per payload: two batches
// conflict iff any payload pair across them does. The replicas of one
// Cluster share the relation, so one call rebinds them all; a replica built
// by NewReplica has its own, so a deployment of such replicas calls it on
// each replica built by NewReplica. Rebinding is safe at any time: messages
// already released stay released, and in-flight messages are evaluated
// under the relation current at their release scan — since a correct
// application relation only ever refines (removes conflicts from) the
// conservative default, every interleaving remains one the new relation
// allows. Services layered on the replica use this to install their
// payload-aware relation (kv.NewService installs the key-based one on every
// replica it serves).
func (r *Replica) SetConflictRelation(rel ConflictRelation) bool {
	if r.cfg.conflicts == nil {
		return false
	}
	r.cfg.conflicts.Set(batch.Conflicts(rel))
	return true
}

// AppState is the application-level durable state a Replica recovered from
// its Storage: what a service layered on the replica (a kv shard engine)
// needs to rebuild its own state machine after a crash.
type AppState struct {
	// Snapshot is the last application snapshot saved with SaveAppSnapshot
	// (nil when none was ever saved).
	Snapshot []byte
	// Log holds the application records appended with AppendAppState since
	// that snapshot, in append order.
	Log [][]byte
	// Replay holds the protocol's own record of deliveries this replica
	// had already exposed before the crash (committed records addressed to
	// its group with GTS at or below the durable delivery frontier), in
	// delivery order. Without Config.AppGCHorizon the protocol logs its
	// frontier before releasing a delivery and never re-delivers behind it
	// after a restart, so any delivery the application applied but had not
	// itself persisted when the process died appears here and nowhere
	// else. With it the frontier is logged lazily: Replay reaches as far as
	// the log kept it, the group re-delivers everything above, and the
	// application ignores what it already holds. Applications replay the
	// suffix past their own recovered position. Replay is populated from
	// the white-box protocol's message records; records already
	// garbage-collected are not recoverable this way, which is why a
	// durable application sets Config.AppGCHorizon: records then outlive
	// the horizon it advances (AdvanceGCHorizon), and a service that hands
	// every applied record to AppendAppState before advancing it only
	// needs Replay for the tail past its own log.
	Replay []Delivery
}

// RecoveredAppState returns the application-level state recovered from the
// replica's Storage at construction. Without Config.Storage (or on a cold
// store) every field is empty.
func (r *Replica) RecoveredAppState() AppState { return r.app }

// AppendAppState hands application records to the replica's durable
// store. It does not wait for the disk: the records are posted to the
// replica's shard loop — calls of one goroutine in order, and ahead of its
// later AdvanceGCHorizon calls — which appends them to the log behind the
// protocol entries of the deliveries they describe, and they become durable
// with the replica's next sync. A crash before that loses them together
// with everything logged after them, and recovery re-obtains the deliveries
// from RecoveredAppState.Replay or the group's catch-up, so an application
// that applies deterministically and ignores deliveries at or below its own
// frontier loses nothing (docs/DURABILITY.md). Surviving records come back
// through RecoveredAppState.Log (or folded into the next snapshot). The
// replica keeps the records' bytes (not the slice of them) past the call.
// The error reports a closed replica; without Config.Storage the call is a
// no-op.
func (r *Replica) AppendAppState(recs ...[]byte) error {
	if r.store == nil || len(recs) == 0 {
		return nil
	}
	return r.tr.inject(r.pid, node.AppLog{Recs: slices.Clone(recs)})
}

// SaveAppSnapshot replaces the application snapshot in the replica's
// durable store, by the same route and in the same order as AppendAppState:
// the snapshot supersedes every record appended so far
// (RecoveredAppState.Log restarts empty after it) and, like them, does not
// wait for the disk: it is one more lazy entry that rides the replica's
// next sync, and the store compacts its WAL by its own rule. The caller
// keeps snap. Without Config.Storage it is a no-op.
func (r *Replica) SaveAppSnapshot(snap []byte) error {
	if r.store == nil {
		return nil
	}
	return r.tr.inject(r.pid, node.AppLog{Snapshot: append([]byte{}, snap...)})
}

// AdvanceGCHorizon reports that the application's own state for every
// delivery with global timestamp at or below ts is durable, or was handed
// to AppendAppState/SaveAppSnapshot earlier by the same goroutine, so the
// protocol may garbage-collect its records for them (Config.AppGCHorizon):
// the prune is logged behind those records and cannot survive a crash they
// did not. The horizon is monotone — a stale ts is a no-op — and is
// advisory: a horizon lost to a crash or a closed transport is simply
// re-raised by the application's next apply. Without Config.AppGCHorizon
// the input is ignored.
func (r *Replica) AdvanceGCHorizon(ts Timestamp) {
	// Best-effort by design: an error here means the replica is closed or
	// crashed, and a fresh horizon will be re-derived after recovery.
	_ = r.tr.inject(r.pid, node.GCHorizon{TS: ts})
}

// lastSender returns the largest sender ID among the messages rs records —
// white-box records, the applied set, the Paxos log's commands — or
// NoProcess when it records none.
func lastSender(rs *wal.State) ProcessID {
	last := NoProcess
	for id := range rs.Records {
		last = max(last, id.Sender())
	}
	for id := range rs.Delivered {
		last = max(last, id.Sender())
	}
	for _, ps := range rs.PaxosLog {
		last = max(last, ps.Cmd.M.ID.Sender(), ps.Cmd.ID.Sender())
	}
	return last
}

// appReplay reconstructs the deliveries replica group g had already
// exposed before a crash, from the protocol's durable message records:
// committed records addressed to g that the replica had applied, in
// (GTS, Sub) order, with batch envelopes unpacked into their per-payload
// deliveries exactly as the live path does.
//
// What "had applied" means depends on the delivery mode. In total order,
// deliveries advance the GTS frontier gap-free, so a record was applied iff
// its GTS is at or below the durable frontier. In conflict mode (genmcast)
// releases are not in GTS order and the protocol logs the applied set
// itself (wal.State.Delivered); a GTS threshold would replay committed
// records this replica never exposed. Replaying the conflict-mode set in
// GTS order is correct: conflicting pairs were applied in GTS order live,
// and commuting pairs may reorder freely.
func appReplay(rs *wal.State, g GroupID) []Delivery {
	if rs == nil || len(rs.Records) == 0 {
		return nil
	}
	conflictMode := len(rs.Delivered) > 0
	if !conflictMode && rs.MaxDelivered.IsZero() {
		return nil
	}
	var ds []Delivery
	for id, rec := range rs.Records {
		if rec.Phase != msgs.PhaseCommitted || rec.GTS.IsZero() {
			continue
		}
		if !rec.M.Dest.Contains(g) {
			continue
		}
		if conflictMode {
			if !rs.Delivered[id] {
				continue
			}
		} else if rs.MaxDelivered.Less(rec.GTS) {
			continue
		}
		ds = append(ds, batch.Expand(mcast.Delivery{Msg: rec.M, GTS: rec.GTS})...)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Before(ds[j]) })
	return ds
}

func (r *Replica) closeSubs() {
	r.mu.Lock()
	subs := r.subs
	r.subs = nil
	r.closed = true
	r.mu.Unlock()
	for _, s := range subs {
		s.Close()
	}
}
