package kv

import (
	"fmt"

	"wbcast"
	"wbcast/internal/kvstore"
	"wbcast/internal/obs"
)

// Operation types, re-exported from the engine so callers never import
// internal packages (the same aliasing idiom the root package uses for
// mcast types).
type (
	// Op is one key-value operation; see the OpGet..OpTxn kinds.
	Op = kvstore.Op
	// OpKind identifies an operation kind.
	OpKind = kvstore.OpKind
	// OpResult is the outcome of one single-key operation.
	OpResult = kvstore.OpResult
	// Resp is a shard engine's response to one applied operation.
	Resp = kvstore.Resp
	// Applied is one entry of a shard engine's applied history.
	Applied = kvstore.Applied
)

// Conflicts is the key-based conflict relation over encoded kv operation
// payloads: two operations conflict iff some pair of their single-key
// sub-operations touches the same key with at least one write, so reads
// commute with reads and disjoint-key operations commute outright. A
// payload that fails to decode conflicts with everything. NewService
// installs it automatically when the cluster runs the conflict-aware
// wbcast.Genmcast protocol; it is exported so callers that install a
// relation themselves (Replica.SetConflictRelation) use the exact one the
// engines assume.
var Conflicts wbcast.ConflictRelation = kvstore.Conflicts

// The operation kinds.
const (
	// OpGet reads Key.
	OpGet = kvstore.OpGet
	// OpPut writes Val under Key.
	OpPut = kvstore.OpPut
	// OpDelete removes Key.
	OpDelete = kvstore.OpDelete
	// OpTxn applies Subs atomically (built by Client.Txn; Subs must be
	// single-key operations).
	OpTxn = kvstore.OpTxn
)

// Shard is one replica's engine for one shard of the keyspace, consuming
// the replica's delivery subscription. NewService creates one per replica.
type Shard struct {
	eng       *kvstore.Engine
	sub       *wbcast.Subscription
	reg       *obs.Registry
	group     wbcast.GroupID
	pid       wbcast.ProcessID
	unordered bool
	done      chan struct{}
}

// attachShard builds the shard engine for replica r, one of shards: it
// recovers any durable application state (snapshot, app log, and the
// protocol's replay of committed-but-unlogged deliveries), subscribes to
// r's deliveries, and applies them on a background goroutine until the
// subscription closes, handing every outcome to onResult. Attach exactly
// one engine per replica, before the replica starts receiving traffic the
// engine must observe.
//
// The subscription is the replica's lossless Deliveries stream: a state
// machine must see every delivery.
func attachShard(r *wbcast.Replica, shards int, opts Options, onResult func(Resp)) (*Shard, error) {
	g := r.Group()
	reg := obs.NewRegistry(fmt.Sprintf(`proc="%d"`, r.ID()))
	// Conflict-aware protocol (Genmcast): install the key-based relation so
	// disjoint-key operations and read pairs actually commute, and run the
	// engine unordered — the replica may expose deliveries out of stamp
	// order. SetConflictRelation is a no-op (false) on the total-order
	// protocols.
	unordered := r.SetConflictRelation(Conflicts)
	var persist kvstore.Persister
	var onDurable func(wbcast.Timestamp)
	if opts.Persist {
		persist = r
		// Every applied delivery is in the replica's WAL before the engine
		// moves on, so the app durability frontier can raise the protocol's
		// GC horizon (Config.AppGCHorizon) instead of disabling GC. In
		// conflict mode the protocol never GCs, so no horizon to advance.
		if !unordered {
			onDurable = r.AdvanceGCHorizon
		}
	}
	eng := kvstore.NewEngine(kvstore.EngineConfig{
		Group: g,
		PID:   r.ID(),
		Owns: func(key []byte) bool {
			return HashPartitioner{}.Shard(key, shards) == int(g)
		},
		OnResult:          onResult,
		Persist:           persist,
		RecordApplied:     opts.RecordApplied,
		OnDurableFrontier: onDurable,
		Registry:          reg,
		Unordered:         unordered,
	})
	rs := r.RecoveredAppState()
	if err := eng.Recover(rs.Snapshot, rs.Log, rs.Replay); err != nil {
		return nil, fmt.Errorf("kv: shard %d recovery: %w", g, err)
	}
	s := &Shard{eng: eng, reg: reg, group: g, pid: r.ID(), unordered: unordered, done: make(chan struct{})}
	s.sub = r.Deliveries()
	go func() {
		defer close(s.done)
		eng.Run(s.sub.C())
	}()
	return s, nil
}

// Group returns the shard (multicast group) this engine executes.
func (s *Shard) Group() wbcast.GroupID { return s.group }

// Digest hashes the shard replica's state; replicas of one shard that
// applied the same prefix have equal digests.
func (s *Shard) Digest() uint64 { return s.eng.Digest() }

// Frontier returns the global position (GTS, Sub) of the last applied
// delivery.
func (s *Shard) Frontier() (wbcast.Timestamp, int) { return s.eng.Frontier() }

// Counters returns the applied / replayed / duplicate operation counts.
func (s *Shard) Counters() (applied, replayed, duplicates uint64) { return s.eng.Counters() }

// AppliedLog returns the applied history (requires RecordApplied).
func (s *Shard) AppliedLog() []Applied { return s.eng.AppliedLog() }

// Get reads a key from this replica's local state, bypassing the ordering
// layer — a dirty read for status endpoints and tests; use Client.Get for
// ordered reads.
func (s *Shard) Get(key []byte) ([]byte, bool) { return s.eng.Get(key) }

// Len returns the number of keys this shard replica stores.
func (s *Shard) Len() int { return s.eng.Len() }

// Err returns the engine's first persistence or decode failure, if any.
func (s *Shard) Err() error { return s.eng.Err() }

// MetricsSource exposes the shard's kv_* metrics for ServeMetrics.
func (s *Shard) MetricsSource() wbcast.MetricsSource { return wbcast.NewAppSource(s.reg) }

// Close unsubscribes from the replica and waits for the apply loop to
// drain. The engine's state remains readable.
func (s *Shard) Close() {
	s.sub.Close()
	<-s.done
}

// Options configures a Service.
type Options struct {
	// Persist logs every shard engine's applied state through its replica's
	// WAL (Config.Storage) and recovers it on restart. The engine compacts
	// its app log into an app snapshot once the log has reached the
	// snapshot's length. Without it an engine rebuilds from the protocol
	// replay only. Durable kv needs the WhiteBox or Genmcast protocol: a
	// FastCast or FTSkeen replica does not replay to the engine the
	// deliveries its recovery consumed, so a crash can lose acknowledged
	// writes. (Skeen takes no Config.Storage at all.) Pair it with
	// Config.AppGCHorizon, as every durable deployment here does: without
	// it the protocol prunes delivered records on its own watermarks, which
	// can outrun the engine's log, and a pruned record cannot be replayed
	// into the engine after a crash (docs/KVSTORE.md, "GC coupling").
	Persist bool
	// RecordApplied retains every applied operation for Verify and
	// AppliedLog. The history grows with every operation and is never
	// pruned, so set it only for runs that end in a Verify: tests,
	// examples/kvstore and the benchmark's verify mode.
	RecordApplied bool
}

// Service runs the key-value state machine over a whole cluster hosted in
// this process: one shard engine per replica, one response hub shared by
// the clients it creates. Each multicast group of the cluster is one shard
// of the keyspace.
type Service struct {
	cluster       *wbcast.Cluster
	shards        int
	hub           *hub
	reps          []*Shard
	recordApplied bool
}

// NewService attaches shard engines to every replica of c. Create the
// Service before submitting kv traffic, so no engine misses a delivery.
func NewService(c *wbcast.Cluster, opts Options) (*Service, error) {
	s := &Service{cluster: c, shards: c.NumGroups(), hub: newHub(), recordApplied: opts.RecordApplied}
	for _, r := range c.Replicas() {
		sh, err := attachShard(r, s.shards, opts, s.hub.dispatch)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.reps = append(s.reps, sh)
	}
	return s, nil
}

// NewClient creates a key-value client backed by a new multicast client of
// the underlying cluster.
func (s *Service) NewClient() (*Client, error) {
	cl, err := s.cluster.NewClient()
	if err != nil {
		return nil, err
	}
	return newClient(cl, s.shards, s.hub), nil
}

// NumShards returns the number of shards (the cluster's group count).
func (s *Service) NumShards() int { return s.shards }

// Partitioner returns the key placement every shard and client uses.
func (s *Service) Partitioner() HashPartitioner { return HashPartitioner{} }

// Replicas returns every attached shard engine (cluster replica order).
func (s *Service) Replicas() []*Shard { return append([]*Shard(nil), s.reps...) }

// Err returns the first engine failure across the service, if any.
func (s *Service) Err() error {
	for _, sh := range s.reps {
		if err := sh.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Verify checks the shard histories against the service's correctness
// contract (kvstore.Check): every replica's applied log passes the
// multicast safety checker — one global stamp per operation, nothing
// applied twice or at a shard it was not addressed to, strictly increasing
// stamps per replica and gap-free shards — replicas that applied the same
// log have equal digests, and (with complete, once traffic has quiesced)
// multi-shard transactions are atomic. Under the conflict-aware Genmcast
// protocol the order checks relax to the partial-order contract:
// conflicting operations stamp-ordered at every replica, and equal digests
// on equal applied sets. It fails when the service was built without
// Options.RecordApplied, which keeps the logs it reads. The chaos harness
// calls this after every seeded run.
func (s *Service) Verify(complete bool) error {
	if err := s.Err(); err != nil {
		return err
	}
	if !s.recordApplied {
		return fmt.Errorf("kv: Verify needs Options.RecordApplied: the engines kept no applied history")
	}
	var conflicts func(a, b []byte) bool
	hs := make([]kvstore.History, 0, len(s.reps))
	for _, sh := range s.reps {
		if sh.unordered {
			conflicts = Conflicts
		}
		hs = append(hs, kvstore.History{
			PID:    sh.pid,
			Group:  sh.group,
			Log:    sh.AppliedLog(),
			Digest: sh.Digest(),
		})
	}
	return kvstore.Check(hs, complete, conflicts)
}

// MetricsSource bundles every shard engine's kv_* metrics for
// ServeMetrics (clients expose their own via Client.MetricsSource).
func (s *Service) MetricsSource() wbcast.MetricsSource {
	regs := make([]*obs.Registry, 0, len(s.reps))
	for _, sh := range s.reps {
		regs = append(regs, sh.reg)
	}
	return wbcast.NewAppSource(regs...)
}

// Close detaches every shard engine. It does not close the underlying
// cluster.
func (s *Service) Close() {
	for _, sh := range s.reps {
		sh.Close()
	}
}
