// Package wbcast is a genuine atomic multicast library for Go, implementing
// the white-box atomic multicast protocol of Gotsman, Lefort and Chockler
// (DSN 2019) together with the two baselines the paper compares against
// (fault-tolerant Skeen and FastCast).
//
// Atomic multicast delivers messages to multiple groups of replicas in one
// global total order: each group receives the projection of that order onto
// the messages addressed to it. The white-box protocol delivers in 3 network
// delays at group leaders in the collision-free case and at most 5 under
// contention, tolerating f crash failures per group of 2f+1 replicas.
//
// # Transports
//
// The same protocol state machines run on any of three transports, selected
// by Config.Transport: InProcess (goroutines and in-memory links — the
// default), Simulated (a deterministic discrete-event simulator for test
// authors) and TCP (real sockets, for distributed deployments). A Cluster
// hosts the whole topology on one transport; a distributed deployment
// instead starts its local processes individually with NewReplica and
// NewClient on a TCP transport — one process per host:
//
//	// Host 3 of a 2-group × 3-replica cluster (replica 3, group 1):
//	tr := wbcast.TCP("0.0.0.0:7003", peers) // peers: ProcessID → address, same on every host
//	rep, err := wbcast.NewReplica(wbcast.Config{Groups: 2, Replicas: 3, Transport: tr}, 3)
//	defer rep.Close()
//
// # Quickstart
//
//	cluster, err := wbcast.New(wbcast.Config{Groups: 2})
//	defer cluster.Close()
//	sub := cluster.Replica(0).Deliveries()
//	client, err := cluster.NewClient()
//	id, err := client.Multicast(ctx, []byte("hello"), 0, 1)
//	d := <-sub.C() // replica 0's deliveries, in increasing (GTS, Sub) order
//
// Deliveries at each replica happen in increasing global-timestamp (GTS)
// order; the GTS exposes the system-wide total order to applications such
// as replicated state machines and shared logs. Deliveries are consumed
// through pull-based, lossless subscriptions (Replica.Deliveries): each
// holds up to 1024 deliveries, and a full one makes the delivering process
// wait, so every subscriber sees its group's projection of the total order
// without gaps. A subscription's channel is its buffer: the delivering
// process sends on it directly, no goroutine in between, and once the
// subscription is closed the deliveries still buffered remain receivable
// before the channel reports closed.
//
// # Batching
//
// A client batches on its own: what one drain of its mailbox holds — the
// Multicast and MulticastAsync calls that queued up while it was busy —
// leaves as one protocol-level multicast per destination set, amortising the
// fixed per-message ordering cost (timestamp proposals, ACK quorums, a
// delivery-queue pass) over the drain. A lone call leaves at once, as
// itself, so a closed-loop caller never waits for a batch, and there is
// nothing to configure (on the Simulated transport every call is a drain of
// its own). Batching is transparent to applications:
// deliveries arrive per payload, with the original message IDs, in the total
// order (GTS, Sub); the payloads of one batch share a GTS and are
// sub-sequenced by Delivery.Sub in submission order.
package wbcast

import (
	"fmt"
	"time"

	"wbcast/internal/core"
	"wbcast/internal/mcast"
	"wbcast/internal/obs"
	"wbcast/internal/protocols"
)

// Re-exported core types. See the internal/mcast documentation for details.
type (
	// ProcessID identifies a replica or client process.
	ProcessID = mcast.ProcessID
	// GroupID identifies a replica group.
	GroupID = mcast.GroupID
	// MsgID uniquely identifies a multicast message.
	MsgID = mcast.MsgID
	// Timestamp is a multicast timestamp; deliveries are ordered by it.
	Timestamp = mcast.Timestamp
	// GroupSet is a sorted set of destination groups.
	GroupSet = mcast.GroupSet
	// AppMsg is an application message with its destinations.
	AppMsg = mcast.AppMsg
	// Delivery is a delivered message with its global timestamp. Its
	// payload and destination set are shared with the protocol and with
	// other deliveries of the same message: read them, never write them
	// (copy what you must change).
	Delivery = mcast.Delivery
)

// NoProcess marks the absence of a process where it must be
// distinguishable from process 0.
const NoProcess = mcast.NoProcess

// NewGroupSet builds a normalised destination set.
func NewGroupSet(groups ...GroupID) GroupSet { return mcast.NewGroupSet(groups...) }

// Protocol selects the multicast implementation.
type Protocol int

// Available protocols.
const (
	// WhiteBox is the paper's protocol: 3δ collision-free, 5δ failure-free.
	WhiteBox Protocol = iota + 1
	// FastCast is the baseline of Coelho et al.: 4δ / 8δ.
	FastCast
	// FTSkeen is the classical black-box baseline: 6δ / 12δ.
	FTSkeen
	// Skeen is the original non-fault-tolerant protocol of Skeen (2δ / 4δ): it
	// assumes reliable processes, requires singleton groups (Replicas must
	// be 1) and refuses Config.Storage. It is the latency floor the paper's
	// baselines are measured against; production deployments use the
	// fault-tolerant protocols above.
	Skeen
	// Genmcast is the conflict-aware generalisation of WhiteBox (generic
	// multicast in the sense of Bolina et al.): it runs the same timestamp
	// and ballot machinery but only orders messages that conflict under the
	// relation installed by Replica.SetConflictRelation (until then every
	// pair conflicts) — mutually commuting messages are delivered as soon
	// as they commit, without waiting behind smaller timestamps. Deliveries
	// still carry the global timestamp, and any two conflicting messages
	// are delivered in GTS order at every common destination; the relative
	// order of commuting messages may differ between replicas. GC of
	// delivered messages is disabled (as for the FastCast and FTSkeen
	// baselines).
	Genmcast
)

// entry returns p's entry of the protocol table (internal/protocols), which
// lists the protocols in the order of this enum; false for a value that
// names none.
func (p Protocol) entry() (protocols.Protocol, bool) {
	if p < WhiteBox || int(p) > len(protocols.All) {
		return protocols.Protocol{}, false
	}
	return protocols.All[p-1], true
}

// String returns the protocol's canonical name, accepted by
// ParseProtocol.
func (p Protocol) String() string {
	if e, ok := p.entry(); ok {
		return e.Name()
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// ParseProtocol resolves a protocol name — "wbcast", "fastcast", "ftskeen",
// "skeen" or "genmcast" — to its Protocol value. Command-line tools use it
// so the accepted names match Protocol.String.
func ParseProtocol(name string) (Protocol, error) {
	for i, e := range protocols.All {
		if e.Name() == name {
			return Protocol(i + 1), nil
		}
	}
	_, err := protocols.ByName(name)
	return 0, fmt.Errorf("wbcast: %w", err)
}

// ConflictRelation reports whether two application payloads conflict —
// whether their delivery order is observable by the application. Under the
// Genmcast protocol, only conflicting messages are mutually ordered;
// non-conflicting (commuting) messages may be delivered in different
// relative orders at different replicas.
//
// The relation must be symmetric and deterministic, and may only ever be
// conservative: reporting a conflict where none exists costs latency, never
// safety. The zero relation (nil) treats every pair as conflicting, which
// makes Genmcast deliver exactly like WhiteBox.
type ConflictRelation = mcast.ConflictRelation

// MetricsSnapshot is a point-in-time copy of a process's metrics, keyed by
// metric name (including the label set, e.g.
// `wbcast_stage_latency_seconds{stage="commit"}`). See docs/OBSERVABILITY.md
// for the catalog.
type MetricsSnapshot = obs.Snapshot

// LatencyStats summarises a latency histogram: count, sum, max and the
// p50/p95/p99 quantiles (upper bucket bounds of a log₂ histogram), plus the
// raw bucket counts so snapshots merge exactly.
type LatencyStats = obs.LatencyStats

// TraceEvent is one timestamped record of a message-lifecycle trace: a
// stage transition of a sampled message, a recovery event, or an injected
// fault.
type TraceEvent = obs.Event

// Metric and stage names used when reading MetricsSnapshot maps from
// application code; the full catalog is in docs/OBSERVABILITY.md.
const (
	// MetricStageLatency is the per-stage latency histogram family,
	// labelled {stage="propose|accept|commit|deliver"}.
	MetricStageLatency = obs.MetricStageLatency
	// MetricClientE2E is the client submit-to-complete latency histogram.
	MetricClientE2E = obs.MetricClientE2E
	// MetricDeliveries counts protocol-level deliveries at a replica.
	MetricDeliveries = obs.MetricDeliveries
	// MetricKVOps counts kv client operations, labelled
	// {op="get|put|delete|txn"}.
	MetricKVOps = obs.MetricKVOps
	// MetricKVOpLatency is the kv client operation latency histogram,
	// labelled {dests="single|multi"}.
	MetricKVOpLatency = obs.MetricKVOpLatency
	// MetricKVApplied counts operations applied by a kv shard engine.
	MetricKVApplied = obs.MetricKVApplied
	// MetricKVReplayed counts operations a kv shard engine re-applied at
	// recovery.
	MetricKVReplayed = obs.MetricKVReplayed
)

// MergeMetrics folds many per-process snapshots into one: counters and
// gauges sum, histograms merge bucket-wise so the percentiles of the union
// are exact to bucket resolution.
func MergeMetrics(snaps ...MetricsSnapshot) MetricsSnapshot {
	return obs.MergeSnapshots(snaps...)
}

// FormatTimeline renders trace events as one canonical line each, in
// recording order. On the simulated transport two runs of the same seeded
// schedule render byte-identical timelines.
func FormatTimeline(events []TraceEvent) string { return obs.FormatTimeline(events) }

// FormatMessageTimelines renders a per-message stage timeline (events
// grouped by message, annotated with deltas from the message's first
// event), with system and fault events in a trailing section. This is the
// wbcast-sim -trace output format.
func FormatMessageTimelines(events []TraceEvent) string {
	return obs.FormatMessageTimelines(events)
}

// Config parametrises a deployment: the topology and protocol options
// shared by every transport, plus the transport itself. The zero value of
// every field except Groups is usable; construction validates the rest
// (see Validate).
type Config struct {
	// Protocol defaults to WhiteBox.
	Protocol Protocol
	// Groups is the number of replica groups (required, ≥ 1).
	Groups int
	// Replicas is the group size 2f+1 (default 3).
	Replicas int
	// Delta is the expected one-way network delay, from which protocol
	// timeouts (retries, heartbeats, suspicion) and the simulated
	// transport's default link latency are derived. Default 2 ms —
	// appropriate for in-process deployments; distributed deployments
	// should set it to their network's delay.
	Delta time.Duration
	// Transport hosts the deployment's processes; nil means InProcess().
	// A Transport value is single-use: one deployment per value.
	Transport Transport
	// Latency optionally injects artificial one-way delays between
	// processes on the InProcess and Simulated transports (see LAN and
	// WAN for the paper's testbed profiles). On InProcess it must be
	// constant per ordered pair of processes, which keeps each link FIFO.
	// Setting it on a TCP transport is a validation error — real networks
	// have real latency.
	Latency func(from, to ProcessID) time.Duration
	// AppGCHorizon gates garbage collection on an application durability
	// horizon (WhiteBox only): a delivered message's protocol record is
	// pruned only once the watermark conditions hold AND the application
	// has reported, via Replica.AdvanceGCHorizon, that its own durable
	// state covers the message's global timestamp — so GC can never
	// discard a record the app would still need replayed after a crash.
	// Nothing is pruned before the first AdvanceGCHorizon call; durable
	// applications (e.g. kv.NewService with Persist) raise the horizon
	// automatically. The flag also declares that the application keeps its
	// own delivery frontier and ignores deliveries at or below it: with
	// Storage, the records a delivery logs then ride the next sync instead
	// of waiting for their own, and a restarted replica may repeat the
	// deliveries above the frontier its log kept (docs/DURABILITY.md).
	// Without the flag, Deliveries() is exactly-once across restarts.
	AppGCHorizon bool
	// Storage, when non-nil, gives every locally hosted replica a durable
	// store: the factory is invoked once per replica at construction, the
	// store's Load recovers the replica's durable state (ballot promises,
	// accepted records, the delivery frontier), and from then on every
	// crash-surviving state transition is appended, and synced before the
	// message that vouches for it leaves the replica. See DirStorage for
	// disk-backed stores and MemoryStorage for simulator-restart semantics
	// without disk I/O; docs/DURABILITY.md describes the design. Clients
	// have no durable state; the factory is not invoked for them. Skeen
	// keeps no protocol state and refuses a store. Nil means
	// no durability: replicas are volatile (the crash-stop model), and a
	// returning process rejoins empty through the NEW_STATE transfer.
	Storage func(pid ProcessID) (Storage, error)
	// TraceSample enables message-lifecycle tracing (internal/obs; metrics
	// are always on): every TraceSample-th message of each sender (by
	// client-local sequence number — a deterministic rule, so two runs of
	// the same seeded simulation trace the same messages) has its stage
	// events recorded. 1 traces every message; 0 disables tracing. Rare
	// system events (step-downs, elections, injected faults) are recorded
	// regardless of sampling. The tracer retains at most 65536 events;
	// overflow increments wbcast_trace_dropped_total instead of growing
	// without bound.
	TraceSample int
	// Logf, when non-nil, receives transport diagnostics (connection
	// errors, dropped frames) on transports that produce them (TCP).
	Logf func(format string, args ...any)

	// clock and tracer are the deployment-wide observability runtime,
	// assigned by Transport.open on every call so late-started processes
	// (NewReplica / NewClient with fresh Config values on a shared
	// transport) all share them. The clock is wall time since the transport
	// opened on live transports and virtual time on the simulator — which
	// is what makes simulated traces deterministic.
	clock  obs.Clock
	tracer *obs.Tracer
	// conflicts holds the effective (batch-envelope-aware) conflict
	// relation of a Genmcast deployment, made with every pair conflicting by
	// each call of normalized(): the replicas of one Cluster share it, and a
	// replica built by NewReplica has its own.
	conflicts *mcast.ConflictHolder
}

// Validate reports whether the configuration is well-formed: it is the
// check every constructor (New, NewReplica, NewClient) applies before
// building anything.
func (cfg Config) Validate() error {
	_, err := cfg.normalized()
	return err
}

// normalized validates cfg and fills in defaults, returning the effective
// configuration.
func (cfg Config) normalized() (Config, error) {
	if cfg.Groups < 1 {
		return cfg, fmt.Errorf("wbcast: Config.Groups must be ≥ 1")
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 3
	}
	if cfg.Replicas < 0 || cfg.Replicas%2 == 0 {
		return cfg, fmt.Errorf("wbcast: Config.Replicas must be positive and odd (2f+1), got %d", cfg.Replicas)
	}
	if cfg.Protocol == 0 {
		cfg.Protocol = WhiteBox
	}
	e, ok := cfg.Protocol.entry()
	switch {
	case !ok:
		return cfg, fmt.Errorf("wbcast: unknown protocol %v", cfg.Protocol)
	case !e.FaultTolerant && cfg.Replicas != 1:
		return cfg, fmt.Errorf("wbcast: the %v protocol requires singleton groups (Replicas must be 1, got %d); use ftskeen for replicated groups", cfg.Protocol, cfg.Replicas)
	case !e.FaultTolerant && cfg.Storage != nil:
		return cfg, fmt.Errorf("wbcast: the %v protocol keeps no durable state and cannot recover from Config.Storage", cfg.Protocol)
	case e.ConflictAware && cfg.conflicts == nil:
		cfg.conflicts = core.Relation(nil)
	}
	if cfg.Delta == 0 {
		cfg.Delta = 2 * time.Millisecond
	}
	if cfg.Delta < 0 {
		return cfg, fmt.Errorf("wbcast: Config.Delta must be positive, got %v", cfg.Delta)
	}
	if cfg.TraceSample < 0 {
		return cfg, fmt.Errorf("wbcast: Config.TraceSample must be ≥ 0, got %d", cfg.TraceSample)
	}
	if cfg.Transport == nil {
		cfg.Transport = InProcess()
	}
	if cfg.Latency != nil {
		if t, ok := cfg.Transport.(*tcpTransport); ok && !t.memory {
			return cfg, fmt.Errorf("wbcast: Config.Latency applies to the InProcess and Simulated transports only; a TCP deployment has real network latency")
		}
	}
	return cfg, nil
}

// LAN returns the paper's LAN latency profile for Config.Latency: a
// uniform 50µs one-way delay on every link (the CloudLab testbed of §VI
// has ~0.1ms round trips).
func LAN() func(from, to ProcessID) time.Duration {
	return func(from, to ProcessID) time.Duration { return 50 * time.Microsecond }
}

// wanOneWay holds the one-way delays between the paper's three data centres
// — Oregon, N. Virginia, England — half the §VI round trips of 60ms (R1–R2),
// 75ms (R2–R3) and 130ms (R1–R3); 250µs within one.
var wanOneWay = [3][3]time.Duration{
	{250 * time.Microsecond, 30 * time.Millisecond, 65 * time.Millisecond},
	{30 * time.Millisecond, 250 * time.Microsecond, 37500 * time.Microsecond},
	{65 * time.Millisecond, 37500 * time.Microsecond, 250 * time.Microsecond},
}

// WAN returns the paper's WAN latency profile for Config.Latency on a
// uniform topology of groups×replicas: every group has one replica in each
// of the three data centres (Oregon, N. Virginia, England), with the §VI
// inter-datacentre round-trip matrix. Clients are spread round-robin over
// the data centres.
func WAN(groups, replicas int) func(from, to ProcessID) time.Duration {
	dc := func(p ProcessID) int {
		if int(p) < groups*replicas { // a replica: rank p mod replicas
			return int(p) % replicas % 3
		}
		return int(p) % 3
	}
	return func(from, to ProcessID) time.Duration { return wanOneWay[dc(from)][dc(to)] }
}
