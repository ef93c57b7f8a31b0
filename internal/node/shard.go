package node

import (
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/ring"
	"wbcast/internal/wal"
)

// Release is what a runtime acts on: the effects of one Handle call, or of
// every call one Commit covers, in call order. Step hands it over only once
// the persist entries of those calls are durable, and it carries neither
// the entries nor the store, so no runtime can release ahead of the sync.
// A runtime releases in field order — timers, then sends, then deliveries —
// so a protocol send never waits behind an application callback. The
// slices are valid until the Step's next Do.
type Release struct {
	Timers     []SetTimer
	Sends      []Send
	Deliveries []mcast.Delivery
}

// Step runs one handler's Handle calls under the shard contract
// (docs/CONCURRENCY.md, "The shard driver"): Do runs Handle and stages the
// call's persist entries; Commit syncs once for every call staged since the
// last one and only then releases their effects (group commit). It is the
// store's only writer while the shard runs — application records reach it
// as AppLog inputs — and the single place in the repository where a runtime
// touches a store. A Step is used by one goroutine at a time (the shard's
// loop, or the simulator's dispatch).
type Step struct {
	h     Handler
	store wal.Storage // nil discards persist effects: no durability
	fx    Effects     // the current call's; reused across calls
	held  Release     // effects of the calls awaiting Commit, in call order
	nheld int         // how many calls those are
	err   error       // the storage failure that crash-stopped the shard
}

// NewStep binds a handler to its durable store (nil for none).
func NewStep(h Handler, store wal.Storage) *Step { return &Step{h: h, store: store} }

// Do consumes one input. The call's entries are staged (Append) in call
// order, eager before lazy. A call that emits eager entries has its effects
// held for Commit, and so has every later call until then — releasing it
// earlier could overtake the held ones. The Release is then empty and Held
// reports the backlog. With no store, or no eager entry staged since the
// last Commit, the call's effects are released at once: lazy entries gate
// nothing and are no reason to sync.
//
// An AppLog never reaches Handle: its records are staged as lazy app
// entries, and a snapshot is staged, synced and followed by the store's
// compaction, all within the call.
//
// A storage error crash-stops the shard: nothing held is released (from
// outside, the process died before the sync, which is the state a restart
// recovers from), and every later Do and Commit returns the same error
// without calling Handle — the runtime's part is to stop feeding it and to
// mark the process down in its own way.
func (s *Step) Do(in Input) (Release, error) {
	if s.err != nil {
		return Release{}, s.err
	}
	s.fx.Reset()
	al, isLog := in.(AppLog)
	if !isLog {
		s.h.Handle(in, &s.fx)
	}
	for _, rec := range al.Recs {
		s.fx.PersistLazy(wal.Entry{Kind: wal.EntryApp, App: rec})
	}
	if al.Snapshot != nil {
		s.fx.PersistLazy(wal.Entry{Kind: wal.EntryAppSnapshot, App: al.Snapshot})
	}
	if s.store != nil {
		for _, es := range [2][]wal.Entry{s.fx.Persists, s.fx.LazyPersists} {
			if len(es) == 0 {
				continue
			}
			if err := s.store.Append(es...); err != nil {
				return Release{}, s.fail(err)
			}
		}
		if al.Snapshot != nil {
			err := s.store.Sync()
			if err == nil {
				err = s.store.Snapshot()
			}
			if err != nil {
				return Release{}, s.fail(err)
			}
		}
	}
	if s.store == nil || (len(s.fx.Persists) == 0 && s.nheld == 0) {
		return Release{Timers: s.fx.Timers, Sends: s.fx.Sends, Deliveries: s.fx.Deliveries}, nil
	}
	if s.nheld == 0 {
		s.held.reset() // a new batch: the last Commit's release is over
	}
	s.held.Timers = append(s.held.Timers, s.fx.Timers...)
	s.held.Sends = append(s.held.Sends, s.fx.Sends...)
	s.held.Deliveries = append(s.held.Deliveries, s.fx.Deliveries...)
	s.nheld++
	return Release{}, nil
}

// Held returns how many calls' effects await Commit.
func (s *Step) Held() int { return s.nheld }

// Commit makes every staged entry durable with one Sync and releases the
// held calls' effects. With nothing held it is a no-op.
func (s *Step) Commit() (Release, error) {
	if s.err != nil {
		return Release{}, s.err
	}
	if s.nheld == 0 {
		return Release{}, nil
	}
	if err := s.store.Sync(); err != nil {
		return Release{}, s.fail(err)
	}
	s.nheld = 0
	return s.held, nil
}

// fail records the storage error that crash-stops the shard and drops what
// was held.
func (s *Step) fail(err error) error {
	s.err = err
	s.held.reset()
	s.nheld = 0
	return err
}

// reset empties the slices for reuse, dropping their references.
func (r *Release) reset() {
	clear(r.Timers)
	clear(r.Sends)
	clear(r.Deliveries)
	r.Timers, r.Sends, r.Deliveries = r.Timers[:0], r.Sends[:0], r.Deliveries[:0]
}

// Restart revives a crash-stopped Step on the same store. h, when non-nil,
// replaces the handler: the one rebuilt by replaying that store.
func (s *Step) Restart(h Handler) {
	if h != nil {
		s.h = h
	}
	s.err = nil
}

// Mailbox is a shard's input queue and the loop that drains it (the TCP
// runtime's encode stage is fed by one too): a bounded lock-free MPSC ring
// with an unbounded overflow (internal/ring), so a post never blocks —
// which rules out buffer-deadlock cycles between shards; load shows up as
// Depth, not as backpressure. The envelope type is the runtime's: the input
// plus whatever must travel with it (the TCP runtime's borrowed frame).
// Envelopes from one producer are consumed in the order it posted them,
// which is what preserves per-link FIFO.
type Mailbox[E any] struct {
	box *ring.MPSC[E]
	// wake nudges Run after a post (capacity 1: a pending wake-up covers
	// any number of posts).
	wake chan struct{}
	quit <-chan struct{}
}

// NewMailbox creates a mailbox whose ring holds capacity envelopes; Run
// returns, and armed timers lapse, once quit is closed.
func NewMailbox[E any](capacity int, quit <-chan struct{}) *Mailbox[E] {
	return &Mailbox[E]{box: ring.New[E](capacity), wake: make(chan struct{}, 1), quit: quit}
}

// Post enqueues e; safe from any goroutine, including the consumer.
func (m *Mailbox[E]) Post(e E) {
	m.box.Enqueue(e)
	select {
	case m.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// PostAfter posts e once d has elapsed (how a wall-clock runtime arms a
// SetTimer), unless the mailbox has quit by then.
func (m *Mailbox[E]) PostAfter(d time.Duration, e E) {
	time.AfterFunc(d, func() {
		select {
		case <-m.quit:
		default:
			m.Post(e)
		}
	})
}

// Depth returns the current queue length.
func (m *Mailbox[E]) Depth() int64 { return m.box.Depth() }

// HighWater returns the largest queue length observed.
func (m *Mailbox[E]) HighWater() int64 { return m.box.HighWater() }

// maxCommitInputs bounds how many inputs Run consumes between two commits,
// so a mailbox that never runs dry cannot hold effects back indefinitely.
const maxCommitInputs = 64

// Run is the shard loop: it calls consume for every envelope, in arrival
// order, until quit is closed, and commit whenever the queue runs dry or
// maxCommitInputs envelopes were consumed since the last commit — where the
// consumer releases what its consume calls held back (Step.Commit; the
// encode stage's ack flush). It is the mailbox's only consumer, so the
// calls never overlap.
func (m *Mailbox[E]) Run(consume func(E), commit func()) {
	n := 0
	for {
		e, ok := m.box.Dequeue()
		if n > 0 && (!ok || n == maxCommitInputs) {
			commit()
			n = 0
		}
		if !ok {
			select {
			case <-m.quit:
				return
			case <-m.wake:
			}
			continue
		}
		select {
		case <-m.quit:
			return
		default:
		}
		consume(e)
		n++
	}
}
