package kvstore

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"sync"

	"wbcast/internal/mcast"
	"wbcast/internal/obs"
	"wbcast/internal/wire"
)

// Persister is the durability hook an Engine writes applied state through.
// *wbcast.Replica satisfies it: records land in the replica's write-ahead
// log as app entries and come back via RecoveredAppState after a restart.
// A nil Persister makes the engine volatile.
//
// The engine does not wait for a sync and needs none: an operation it
// applies is already ACCEPTED on a quorum of every destination group's
// logs, a restarted replica re-obtains every delivery its log lost, and
// applying is deterministic. What it needs from the persister is order:
// calls take effect in the order one goroutine makes them, and keep the
// records' bytes (not the slice holding them) past the call.
type Persister interface {
	// AppendAppState hands over opaque application records, in log order.
	AppendAppState(recs ...[]byte) error
	// SaveAppSnapshot replaces the application snapshot and clears the
	// accumulated application log, in order with the records before it. The
	// engine calls it once the redo bytes it handed over since its last
	// snapshot reach that snapshot's length, so the log stays smaller than
	// the state plus one apply batch.
	SaveAppSnapshot(snap []byte) error
}

// Resp reports the outcome of one applied operation to the service layer,
// which routes it back to the waiting client by (ID, Sub).
type Resp struct {
	ID    mcast.MsgID
	Sub   int
	Group mcast.GroupID
	// Results holds one entry per flattened sub-operation, in submission
	// order, so multi-shard transaction results merge positionally.
	Results []OpResult
}

// OpResult is the outcome of one single-key operation at one shard.
type OpResult struct {
	// Owned reports whether this shard owns the key. Shards answer only
	// for positions they own; the client merges per-shard responses.
	Owned bool
	// Found reports whether the key existed (Get: at read time; Delete: at
	// removal time; Put: always true).
	Found bool
	// Val is the value read by a Get (nil otherwise).
	Val []byte
}

// Applied records one delivery applied by an engine, in the order applied.
// Check consumes these to validate the shard histories; Payload lets its
// partial-order mode evaluate the conflict relation between entries.
type Applied struct {
	ID      mcast.MsgID
	GTS     mcast.Timestamp
	Sub     int
	Dest    mcast.GroupSet
	Payload []byte
}

// EngineConfig configures a shard engine.
type EngineConfig struct {
	// Group is the shard (multicast group) this engine executes.
	Group mcast.GroupID
	// PID is the hosting replica, used only for diagnostics.
	PID mcast.ProcessID
	// Owns reports whether this shard owns a key. Ownership must agree
	// with the partitioner that routed the operation.
	Owns func(key []byte) bool
	// OnResult, if non-nil, receives the outcome of every applied
	// operation. Called on the applying goroutine, in delivery order.
	OnResult func(Resp)
	// Persist, if non-nil, makes applied state durable (see Persister).
	Persist Persister
	// RecordApplied retains the full applied history for the checker.
	// Tests only: the history grows without bound.
	RecordApplied bool
	// Unordered runs the engine under the conflict-aware (genmcast)
	// delivery contract: deliveries may arrive out of (GTS, Sub) order, so
	// duplicates are filtered by the set of applied stamps instead of the
	// frontier, and the frontier tracks the maximum applied stamp (a
	// monotone clock, comparable across replicas that applied the same
	// set). App snapshots switch to version 2, which carries the applied-
	// stamp set so recovery can dedupe the protocol replay — the set grows
	// with history, matching the protocol side, which also retains every
	// record in conflict mode (GC off).
	Unordered bool
	// OnDurableFrontier, if non-nil, is invoked after a successful persist
	// that moved the applied global timestamp, with the largest timestamp
	// strictly below the new one: every delivery at or below it — including
	// every sub-operation of a batch sharing that timestamp — was handed to
	// Persist before this call, so anything the ordering layer logs on its
	// account (a prune) follows those records in the same log and cannot
	// outlive them (wbcast.Replica.AdvanceGCHorizon). Called on the
	// applying goroutine with the engine lock held; it must not call back
	// into the engine. Only meaningful with Persist set.
	OnDurableFrontier func(mcast.Timestamp)
	// Registry, if non-nil, receives the engine's kv_* metrics.
	Registry *obs.Registry
}

// Engine is one replica's deterministic copy of one shard. Deliveries are
// fed in via Apply (or Run over a subscription channel) in the replica's
// delivery order; the engine filters duplicates by global position, so
// replaying a prefix after recovery is harmless.
type Engine struct {
	cfg EngineConfig

	mu      sync.Mutex
	data    map[string][]byte
	lastGTS mcast.Timestamp // position of the last applied delivery (max in unordered mode)
	lastSub int
	seen    map[stamp]bool // applied stamps; unordered mode only
	applied []Applied
	err     error    // first persistence failure; sticky
	resps   []Resp   // apply's scratch: the batch's outcomes ...
	recs    [][]byte // ... and redo records

	// The app log's compaction rule: once the redo bytes handed to Persist
	// since the last app snapshot (logBytes) reach that snapshot's length
	// (snapBytes), the engine saves a fresh one.
	logBytes, snapBytes int

	appliedC  obs.Counter
	replayedC obs.Counter
	dupC      obs.Counter
}

// stamp is one delivery's global position, unique per Invariant 4; the
// unordered duplicate filter keys on it (EncodeApplied carries no MsgID).
type stamp struct {
	gts mcast.Timestamp
	sub int
}

// NewEngine builds an engine for one shard replica.
func NewEngine(cfg EngineConfig) *Engine {
	e := &Engine{cfg: cfg, data: make(map[string][]byte)}
	if cfg.Unordered {
		e.seen = make(map[stamp]bool)
	}
	if r := cfg.Registry; r != nil {
		r.RegisterCounter(obs.MetricKVApplied, "Operations applied by this kv shard engine.", &e.appliedC)
		r.RegisterCounter(obs.MetricKVReplayed, "Operations re-applied at recovery by this kv shard engine.", &e.replayedC)
		r.RegisterCounter(obs.MetricKVDuplicates, "Duplicate deliveries skipped by this kv shard engine.", &e.dupC)
		r.RegisterFunc(obs.MetricKVKeys, "Keys currently stored by this kv shard engine.", obs.KindGauge, func() int64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return int64(len(e.data))
		})
	}
	return e
}

// maxApplyBatch bounds how many queued deliveries Run applies, logs and
// answers together.
const maxApplyBatch = 64

// Run consumes deliveries from ch until it closes. It is the usual way to
// drive an engine from a subscription's channel. Deliveries already queued
// when one arrives are applied with it and logged with one AppendAppState
// call (one log append for the batch); results and the durable frontier
// follow the call that covers them.
func (e *Engine) Run(ch <-chan mcast.Delivery) {
	batch := make([]mcast.Delivery, 0, maxApplyBatch)
	for d := range ch {
		batch = append(batch[:0], d)
	fill:
		for len(batch) < maxApplyBatch {
			select {
			case d, ok := <-ch:
				if !ok {
					break fill
				}
				batch = append(batch, d)
			default:
				break fill
			}
		}
		e.apply(batch)
		clear(batch)
	}
}

// Apply executes one delivery. Deliveries at or below the applied frontier
// are skipped (duplicates from a recovery replay); fresh ones mutate the
// store, persist a redo record, and report their outcome via OnResult.
func (e *Engine) Apply(d mcast.Delivery) { e.apply([]mcast.Delivery{d}) }

// apply executes ds in order, then logs the fresh ones' redo records with
// one append, and only then raises the durable frontier and reports the
// outcomes. A failed append answers none of them: state diverged from the
// log, so the engine stops answering clients for it.
func (e *Engine) apply(ds []mcast.Delivery) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// below is the largest timestamp the frontier moved past in this batch.
	// Deliveries arrive in (GTS, Sub) order, so a higher GTS proves all subs
	// of the previous one were applied: once the batch is logged, everything
	// at or below it is in the log. The frontier's own GTS stays above the
	// horizon — a later sub of the same envelope may still be in flight.
	var below mcast.Timestamp
	resps, recs := e.resps[:0], e.recs[:0]
	for _, d := range ds {
		if !e.after(d) {
			e.dupC.Inc()
			continue
		}
		prev := e.lastGTS
		resp, ok := e.applyLocked(d)
		if e.lastGTS != prev {
			below = prev
		}
		if !ok {
			continue // undecodable: skipped on every replica alike
		}
		resps = append(resps, resp)
		if e.cfg.Persist != nil {
			recs = append(recs, EncodeApplied(d))
		}
	}
	if e.logLocked(recs, below) && e.cfg.OnResult != nil {
		for _, resp := range resps {
			e.cfg.OnResult(resp)
		}
	}
	clear(resps)
	clear(recs)
	e.resps, e.recs = resps[:0], recs[:0]
}

// logLocked hands one batch's redo records to the persister with one
// append, then reports the frontier they cover and compacts the app log once
// it has reached the snapshot that replaces it. It reports false, with the
// failure recorded in Err, when the append failed. Callers hold e.mu.
func (e *Engine) logLocked(recs [][]byte, below mcast.Timestamp) bool {
	if len(recs) == 0 {
		return true
	}
	if err := e.cfg.Persist.AppendAppState(recs...); err != nil {
		if e.err == nil {
			e.err = fmt.Errorf("kvstore: shard %d: persist %d records: %w", e.cfg.Group, len(recs), err)
		}
		return false
	}
	// Unordered mode has no proof that nothing below the frontier is still
	// to come, and its protocol never GCs, so the callback stays silent.
	if !e.cfg.Unordered && e.cfg.OnDurableFrontier != nil && !below.IsZero() {
		e.cfg.OnDurableFrontier(below)
	}
	e.logBytes += recBytes(recs)
	if e.logBytes >= e.snapBytes {
		snap := e.snapshotLocked()
		e.logBytes, e.snapBytes = 0, len(snap)
		if err := e.cfg.Persist.SaveAppSnapshot(snap); err != nil && e.err == nil {
			e.err = fmt.Errorf("kvstore: shard %d: snapshot: %w", e.cfg.Group, err)
		}
	}
	return true
}

// after reports whether d is fresh: strictly beyond the applied frontier
// (ordered mode — the initial frontier is (⊥, 0) and protocols never issue
// ⊥, so every live delivery starts out "after"), or not yet in the applied-
// stamp set (unordered mode, where a lower stamp may legitimately arrive
// after a higher one).
// Callers hold e.mu.
func (e *Engine) after(d mcast.Delivery) bool {
	if e.cfg.Unordered {
		return !e.seen[stamp{gts: d.GTS, sub: d.Sub}]
	}
	if d.GTS != e.lastGTS {
		return e.lastGTS.Less(d.GTS)
	}
	return d.Sub > e.lastSub
}

// advance records d as applied: the frontier moves to d's stamp in ordered
// mode, and to the running maximum (with d added to the applied set) in
// unordered mode. Callers hold e.mu.
func (e *Engine) advance(d mcast.Delivery) {
	if e.cfg.Unordered {
		e.seen[stamp{gts: d.GTS, sub: d.Sub}] = true
		if e.lastGTS.Less(d.GTS) || (e.lastGTS == d.GTS && d.Sub > e.lastSub) {
			e.lastGTS, e.lastSub = d.GTS, d.Sub
		}
		return
	}
	e.lastGTS, e.lastSub = d.GTS, d.Sub
}

// applyLocked mutates the store for d and advances the frontier; logging
// the redo record is the caller's part. It reports false for a delivery
// that does not decode (recorded in Err, skipped). Callers hold e.mu.
func (e *Engine) applyLocked(d mcast.Delivery) (Resp, bool) {
	op, err := DecodeOp(d.Msg.Payload)
	if err != nil {
		// Every replica sees the same bytes, so a decode failure is
		// deterministic: record it and skip the delivery everywhere.
		if e.err == nil {
			e.err = fmt.Errorf("kvstore: shard %d: decode %v: %w", e.cfg.Group, d.Msg.ID, err)
		}
		e.advance(d)
		return Resp{}, false
	}
	resp := Resp{ID: d.Msg.ID, Sub: d.Sub, Group: e.cfg.Group}
	for _, sub := range op.Flatten() {
		var r OpResult
		if e.cfg.Owns == nil || e.cfg.Owns(sub.Key) {
			r.Owned = true
			switch sub.Kind {
			case OpGet:
				v, ok := e.data[string(sub.Key)]
				r.Found = ok
				if ok {
					r.Val = append([]byte(nil), v...)
				}
			case OpPut:
				e.data[string(sub.Key)] = append([]byte(nil), sub.Val...)
				r.Found = true
			case OpDelete:
				_, r.Found = e.data[string(sub.Key)]
				delete(e.data, string(sub.Key))
			}
		}
		resp.Results = append(resp.Results, r)
	}
	e.advance(d)
	e.appliedC.Inc()
	if e.cfg.RecordApplied {
		e.applied = append(e.applied, Applied{
			ID: d.Msg.ID, GTS: d.GTS, Sub: d.Sub, Dest: d.Msg.Dest.Clone(),
			Payload: append([]byte(nil), d.Msg.Payload...),
		})
	}
	return resp, true
}

// Recover rebuilds the engine from the durable state a restarted replica
// reports (wbcast.Replica.RecoveredAppState): the app snapshot, then the
// app log, then the protocol-level replay of committed deliveries the
// engine had not yet logged. Replayed deliveries are re-logged in one
// batch so the next crash recovers them from the app channel directly.
// Recover must run before the engine consumes live deliveries. The app log
// it recovers and re-logs counts towards the next compaction, which the
// first live batch makes if the log has reached the snapshot. The restored
// values alias snapshot, which the caller must not write again.
func (e *Engine) Recover(snapshot []byte, log [][]byte, replay []mcast.Delivery) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.snapBytes, e.logBytes = len(snapshot), recBytes(log)
	if len(snapshot) > 0 {
		if err := e.restoreSnapshotLocked(snapshot); err != nil {
			return err
		}
		e.replayedC.Inc()
	}
	for _, rec := range log {
		d, err := DecodeApplied(rec)
		if err != nil {
			return err
		}
		if !e.after(d) {
			continue
		}
		e.applyLocked(d)
		e.replayedC.Inc()
	}
	var recs [][]byte
	for _, d := range replay {
		if !e.after(d) {
			continue
		}
		e.applyLocked(d)
		e.replayedC.Inc()
		recs = append(recs, EncodeApplied(d))
	}
	if len(recs) > 0 && e.cfg.Persist != nil {
		if err := e.cfg.Persist.AppendAppState(recs...); err != nil {
			return fmt.Errorf("kvstore: shard %d: re-log replay: %w", e.cfg.Group, err)
		}
		e.logBytes += recBytes(recs)
	}
	return e.err
}

func recBytes(recs [][]byte) int {
	n := 0
	for _, rec := range recs {
		n += len(rec)
	}
	return n
}

// snapshotVersion versions the app snapshot encoding; unordered engines
// write snapshotVersionUnordered, which additionally carries the applied-
// stamp set (the frontier alone cannot say which deliveries a state
// includes when they were applied out of stamp order).
const (
	snapshotVersion          = 1
	snapshotVersionUnordered = 2
)

// Snapshot serialises the full shard state: the applied frontier and every
// key/value pair in sorted key order (so equal states encode identically).
func (e *Engine) Snapshot() []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshotLocked()
}

func (e *Engine) snapshotLocked() []byte {
	// The encoding outgrows the last snapshot by at most the records
	// logged since, so one allocation usually holds it.
	w := make(wire.Writer, 0, e.snapBytes+e.logBytes)
	w.Byte(snapshotVersion)
	if e.cfg.Unordered {
		w[0] = snapshotVersionUnordered
	}
	w.TS(e.lastGTS)
	w.Uint(uint64(e.lastSub))
	if e.cfg.Unordered {
		stamps := slices.AppendSeq(make([]stamp, 0, len(e.seen)), maps.Keys(e.seen))
		slices.SortFunc(stamps, func(a, b stamp) int {
			return cmp.Or(a.gts.Compare(b.gts), cmp.Compare(a.sub, b.sub))
		})
		w.Uint(uint64(len(stamps)))
		for _, s := range stamps {
			w.TS(s.gts)
			w.Uint(uint64(s.sub))
		}
	}
	w.Uint(uint64(len(e.data)))
	for _, k := range e.sortedKeys() {
		w.Uint(uint64(len(k)))
		w = append(w, k...)
		w.Bytes(e.data[k])
	}
	return w
}

// sortedKeys returns the stored keys in order, so that equal states
// encode and hash identically. Callers hold e.mu.
func (e *Engine) sortedKeys() []string {
	keys := slices.AppendSeq(make([]string, 0, len(e.data)), maps.Keys(e.data))
	slices.Sort(keys)
	return keys
}

// restoreSnapshotLocked replaces the engine's state with a snapshot's.
// Callers hold e.mu.
func (e *Engine) restoreSnapshotLocked(snap []byte) error {
	version := byte(snapshotVersion)
	if e.cfg.Unordered {
		version = snapshotVersionUnordered
	}
	r := wire.NewReader(snap)
	if v := r.Byte(); v != version {
		r.Fail(fmt.Errorf("version %d, want %d (ordered/unordered mode mismatch?)", v, version))
	}
	gts, sub := r.TS(), int(r.Uint())
	var seen map[stamp]bool
	if e.cfg.Unordered {
		n := r.Count()
		seen = make(map[stamp]bool, n)
		for range n {
			seen[stamp{gts: r.TS(), sub: int(r.Uint())}] = true
		}
	}
	n := r.Count()
	data := make(map[string][]byte, n)
	for range n {
		k := r.Bytes()
		data[string(k)] = r.Bytes()
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("kvstore: app snapshot: %w", err)
	}
	e.data, e.lastGTS, e.lastSub = data, gts, sub
	if e.cfg.Unordered {
		e.seen = seen
	}
	return nil
}

// Digest hashes the shard state (sorted pairs plus the applied frontier);
// replicas of one shard that applied the same prefix have equal digests.
func (e *Engine) Digest() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var w wire.Writer
	w.TS(e.lastGTS)
	w.Uint(uint64(e.lastSub))
	h := fnv.New64a()
	for _, k := range e.sortedKeys() {
		w.Uint(uint64(len(k)))
		w = append(append(w, k...), e.data[k]...)
		h.Write(w) //nolint:errcheck
		w = w[:0]
	}
	h.Write(w) //nolint:errcheck
	return h.Sum64()
}

// Frontier returns the global position (GTS, Sub) of the last applied
// delivery.
func (e *Engine) Frontier() (mcast.Timestamp, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastGTS, e.lastSub
}

// Get reads a key directly from the local replica state, bypassing the
// ordering layer (no linearizability guarantee; tests and status endpoints
// only).
func (e *Engine) Get(key []byte) ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.data[string(key)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Len returns the number of keys stored.
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.data)
}

// AppliedLog returns a copy of the applied history (requires
// RecordApplied).
func (e *Engine) AppliedLog() []Applied {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Applied(nil), e.applied...)
}

// Counters returns the applied / replayed / duplicate counts, for status
// endpoints and tests.
func (e *Engine) Counters() (applied, replayed, duplicates uint64) {
	return e.appliedC.Load(), e.replayedC.Load(), e.dupC.Load()
}

// Err returns the first persistence or decode failure, if any.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}
