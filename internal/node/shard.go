package node

import (
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/ring"
	"wbcast/internal/wal"
)

// Release is the part of one Handle call's effects a runtime acts on. Step
// hands it over only once the call's persist entries are durable, and it
// carries neither those entries nor the store, so no runtime can release
// ahead of the sync. A runtime releases in field order — timers, then sends,
// then deliveries — so a protocol send never waits behind an application
// callback. The slices are valid until the Step's next Do.
type Release struct {
	Timers     []SetTimer
	Sends      []Send
	Deliveries []mcast.Delivery
}

// Step runs one handler's Handle calls under the shard contract
// (docs/CONCURRENCY.md, "The shard driver"): Handle, then append and sync
// the call's persist entries, then — and only then — release the rest. It
// is the single place in the repository where a runtime touches a store.
// A Step is used by one goroutine at a time (the shard's loop, or the
// simulator's dispatch).
type Step struct {
	h     Handler
	store wal.Storage // nil discards persist effects: no durability
	fx    Effects     // reused across calls
	err   error       // the storage failure that crash-stopped the shard
}

// NewStep binds a handler to its durable store (nil for none).
func NewStep(h Handler, store wal.Storage) *Step { return &Step{h: h, store: store} }

// Do consumes one input. A storage error crash-stops the shard: nothing of
// the failing call is released (from outside, the process died inside
// Handle, which is the state a restart recovers from), and every later Do
// returns the same error without calling Handle — the runtime's part is to
// stop feeding it and to mark the process down in its own way.
func (s *Step) Do(in Input) (Release, error) {
	if s.err != nil {
		return Release{}, s.err
	}
	s.fx.Reset()
	s.h.Handle(in, &s.fx)
	if len(s.fx.Persists) > 0 && s.store != nil {
		err := s.store.Append(s.fx.Persists...)
		if err == nil {
			err = s.store.Sync()
		}
		if err != nil {
			s.err = err
			return Release{}, err
		}
	}
	return Release{Timers: s.fx.Timers, Sends: s.fx.Sends, Deliveries: s.fx.Deliveries}, nil
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

// Run is the shard loop: it calls consume for every envelope, in arrival
// order, until quit is closed. It is the mailbox's only consumer, so
// consume calls never overlap.
func (m *Mailbox[E]) Run(consume func(E)) {
	for {
		e, ok := m.box.Dequeue()
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
	}
}
