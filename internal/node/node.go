package node

import (
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/wal"
)

// Input is an event consumed by a Handler. Exactly one of the concrete
// types below is passed to Handle per call.
type Input interface{ isInput() }

// Recv is the arrival of a protocol message from another process (or from
// the process itself; self-sends are legal and delivered with zero latency).
type Recv struct {
	From mcast.ProcessID
	Msg  msgs.Message
}

// Timer is the expiry of a timer previously armed via Effects.SetTimer.
// Kind and Data echo the values given when arming; stale timers are the
// handler's responsibility to detect and ignore.
type Timer struct {
	Kind TimerKind
	Data uint64
}

// Start is delivered exactly once, before any other input, letting the
// handler arm its initial timers.
type Start struct{}

// Submit asks a client handler to multicast an application message. It is
// only meaningful for client handlers. Done, if non-nil, is closed once
// every destination group has replied; never, if the message is cancelled.
type Submit struct {
	Msg  mcast.AppMsg
	Done chan struct{}
}

// Cancel asks a client handler to give up the multicast of message ID: to
// stop re-sending it and never to report it complete. It is only
// meaningful for client handlers; an ID already complete is a no-op.
type Cancel struct {
	ID mcast.MsgID
}

// GCHorizon raises a replica handler's application durability horizon: the
// application layered on top (e.g. the kv engine) has made all deliveries
// with global timestamp ≤ TS durable in its own right, so the protocol may
// garbage-collect its records for them. Handlers running with an
// app-driven GC horizon must not prune a delivered record above the
// horizon; handlers without one ignore the input. Horizons are monotone —
// a stale TS is a no-op.
type GCHorizon struct {
	TS mcast.Timestamp
}

// AppLog carries application state for the process's durable store: redo
// records for lazy wal.EntryApp entries and, when Snapshot is non-nil, an
// application snapshot that supersedes them, staged behind them as one more
// lazy entry (wal.EntryAppSnapshot): it rides the next sync, and the store
// compacts by its own rule. Step consumes it itself — no Handler ever sees
// one — so application records enter the log in the shard's own order,
// behind the protocol entries of every delivery they describe. Step owns
// both slices from the moment the input is posted.
type AppLog struct {
	Recs     [][]byte
	Snapshot []byte
}

func (Recv) isInput()      {}
func (Timer) isInput()     {}
func (Start) isInput()     {}
func (Submit) isInput()    {}
func (Cancel) isInput()    {}
func (GCHorizon) isInput() {}
func (AppLog) isInput()    {}

// TimerKind distinguishes the timers a handler arms. Kinds are scoped to a
// handler; runtimes treat them as opaque.
type TimerKind int

// Timer kinds used across the protocol packages. They live here so that the
// composite handlers (protocol + election) cannot collide.
const (
	// TimerRetry re-sends MULTICAST for a message stuck in flight
	// (paper Fig. 4 line 32, and client-side message recovery, §IV).
	TimerRetry TimerKind = iota + 1
	// TimerHeartbeat is the leader's periodic heartbeat broadcast.
	TimerHeartbeat
	// TimerSuspect fires when a follower has not heard from its leader
	// for the suspicion timeout.
	TimerSuspect
	// TimerCandidacy fires to (re-)attempt leader recovery after backoff.
	TimerCandidacy
	// TimerGC drives periodic garbage-collection watermark exchange.
	TimerGC
	// TimerClient is the client's per-request retry timer.
	TimerClient
	// TimerReplies flushes a white-box follower's queued client replies
	// (one ClientReplies message per client).
	TimerReplies
	// TimerApp is reserved for application-level handlers built on the
	// public API. It stays the last kind: applications count up from it.
	TimerApp
)

// Effects collects the I/O requested by a handler during one Handle call. A
// zero Effects is ready to use. Runtimes do not apply it themselves: Step
// owns it, makes Persists durable FIRST (append and sync; a storage failure
// crash-stops the process instead of applying the rest) and hands the
// runtime only the remainder, as a Release — see docs/CONCURRENCY.md, "The
// shard driver". LazyPersists are logged with the call, after its
// Persists, but gate nothing: they ride the log's next sync. Entries may
// alias received messages, like Sends; a store never writes through them.
type Effects struct {
	Sends        []Send
	Deliveries   []mcast.Delivery
	Timers       []SetTimer
	Persists     []wal.Entry
	LazyPersists []wal.Entry
}

// Send is a request to transmit Msg. When Tos is nil the send is a unicast
// to To; when Tos is non-nil the same message goes to every process in Tos
// (and To is ignored). Representing a fan-out as one Send lets runtimes
// exploit it — the TCP runtime serialises Msg exactly once, whatever the
// fan-out. Self-sends are permitted and are delivered with zero network
// latency.
//
// Tos is owned by the runtime only until it has released the send; it may
// alias long-lived slices such as Topology.Members and must not be
// mutated or retained.
type Send struct {
	To  mcast.ProcessID
	Tos []mcast.ProcessID
	Msg msgs.Message
}

// NumRecipients returns how many processes the send addresses.
func (s Send) NumRecipients() int {
	if s.Tos == nil {
		return 1
	}
	return len(s.Tos)
}

// Recipient returns the i-th recipient (0 ≤ i < NumRecipients).
func (s Send) Recipient(i int) mcast.ProcessID {
	if s.Tos == nil {
		return s.To
	}
	return s.Tos[i]
}

// SetTimer is a request to deliver a Timer{Kind, Data} input After from now.
// Timers are one-shot and cannot be cancelled; handlers must ignore stale
// expiries (e.g. by checking current state against Data).
type SetTimer struct {
	After time.Duration
	Kind  TimerKind
	Data  uint64
}

// Send appends a unicast send.
func (fx *Effects) Send(to mcast.ProcessID, m msgs.Message) {
	fx.Sends = append(fx.Sends, Send{To: to, Msg: m})
}

// SendAll appends one fan-out send of m to every process in tos. The slice
// is not copied: it must stay unmodified until the runtime has applied the
// effects (topology member slices and other static recipient lists qualify;
// a scratch buffer the handler reuses does not).
func (fx *Effects) SendAll(tos []mcast.ProcessID, m msgs.Message) {
	switch len(tos) {
	case 0:
	case 1:
		fx.Send(tos[0], m)
	default:
		fx.Sends = append(fx.Sends, Send{Tos: tos, Msg: m})
	}
}

// SendGroups appends one fan-out send of m to every member of every group
// in gs, resolved through top. The whole multi-group fan-out is a single
// Send, so runtimes serialise m once regardless of how many groups and
// replicas it addresses (e.g. an ACCEPT to 3 groups of 3 is one encode, not
// nine).
func (fx *Effects) SendGroups(top *mcast.Topology, gs mcast.GroupSet, m msgs.Message) {
	switch len(gs) {
	case 0:
		return
	case 1:
		fx.SendAll(top.Members(gs[0]), m)
		return
	}
	n := 0
	for _, g := range gs {
		n += top.GroupSize(g)
	}
	tos := make([]mcast.ProcessID, 0, n)
	for _, g := range gs {
		tos = append(tos, top.Members(g)...)
	}
	fx.Sends = append(fx.Sends, Send{Tos: tos, Msg: m})
}

// Deliver appends an application-message delivery.
func (fx *Effects) Deliver(d mcast.Delivery) {
	fx.Deliveries = append(fx.Deliveries, d)
}

// SetTimer appends a timer-arming request.
func (fx *Effects) SetTimer(after time.Duration, kind TimerKind, data uint64) {
	fx.Timers = append(fx.Timers, SetTimer{After: after, Kind: kind, Data: data})
}

// Persist appends a durable-storage entry, to be made durable before any
// timer, send or delivery of this Handle call is released. Later calls that
// persist nothing this way are not held up by it, unless they send a message
// of a kind that vouches for the log (msgs.Kind.Vouches). On a runtime without
// a configured store the entry is discarded.
func (fx *Effects) Persist(e wal.Entry) {
	fx.Persists = append(fx.Persists, e)
}

// PersistLazy appends a durable-storage entry that no message or delivery
// released by this Handle call vouches for to another process: it is
// logged in order and becomes durable with the store's next sync, and a
// crash before that loses it. The handler must be able to recompute what
// it records from entries that were persisted eagerly (docs/DURABILITY.md).
func (fx *Effects) PersistLazy(e wal.Entry) {
	fx.LazyPersists = append(fx.LazyPersists, e)
}

// Reset empties the sink for reuse, retaining capacity but no reference:
// the used prefix is cleared, so a long-lived Effects does not pin the
// largest burst it ever carried (a NEW_STATE, a catch-up's ACCEPT payloads,
// the received messages its entries alias).
func (fx *Effects) Reset() {
	clear(fx.Sends)
	clear(fx.Deliveries)
	clear(fx.Persists)
	clear(fx.LazyPersists)
	fx.Sends = fx.Sends[:0]
	fx.Deliveries = fx.Deliveries[:0]
	fx.Timers = fx.Timers[:0]
	fx.Persists = fx.Persists[:0]
	fx.LazyPersists = fx.LazyPersists[:0]
}

// Handler is a deterministic protocol node. Handle must not retain fx, which
// the runtime reuses, and must not perform I/O or read clocks; runtimes may
// call it from different goroutines over time but never concurrently.
//
// # Shard model
//
// A handler is one ordering shard: groups are disjoint (mcast.Topology
// rejects overlapping memberships), so one handler serves exactly one
// group's protocol state, and runtimes may run the handlers they host on
// independent goroutines with independent mailboxes (see
// docs/CONCURRENCY.md). The happens-before contract between shards is:
// shards share no mutable protocol state; the only cross-shard edge is a
// message — a send enqueued by shard A and later consumed as a Recv by
// shard B, with A's persist effects synced before the enqueue (the
// persist-before-release invariant). Within one shard, Handle calls are
// totally ordered and each call's effects are applied before the next
// input is consumed.
//
// # Received messages
//
// A received message is immutable, and a handler may keep any part of it —
// store it, re-send it, log it — for as long as it likes. No runtime reuses
// the memory a message lives in (the TCP runtime reads each frame into a
// buffer of its own), and no handler writes into one.
type Handler interface {
	// ID returns the process this handler implements.
	ID() mcast.ProcessID
	// Handle consumes one input and appends requested effects to fx.
	Handle(in Input, fx *Effects)
}

// Drainer is a handler that also acts at the end of each drain: the inputs
// its runtime consumes between two commit hooks (Mailbox.Run), or one
// simulator dispatch. The client is one: what a drain submitted leaves as one
// multicast per destination set (internal/client). Step.EndDrain calls it.
type Drainer interface {
	EndDrain(fx *Effects)
	// Gather reports whether a wall-clock runtime whose queue has run dry
	// should yield the processor once more before it ends the drain, so that
	// goroutines ready to run can post into it (Mailbox.Gather).
	Gather() bool
}

// Func adapts a function to the Handler interface for tests and small
// runtime shims.
type Func struct {
	PID mcast.ProcessID
	F   func(in Input, fx *Effects)
}

// ID implements Handler.
func (f Func) ID() mcast.ProcessID { return f.PID }

// Handle implements Handler.
func (f Func) Handle(in Input, fx *Effects) { f.F(in, fx) }

var _ Handler = Func{}
