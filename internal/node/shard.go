package node

import (
	"runtime"
	"sync"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/pq"
	"wbcast/internal/ring"
	"wbcast/internal/wal"
)

// Release is what a runtime acts on: effects of Handle calls, in call order.
// Step hands one over only once every entry a message in it vouches for is
// durable, and it carries neither the entries nor the store, so no runtime
// can release ahead of the sync. A runtime releases in field order — timers,
// then sends, then deliveries — so a protocol send never waits behind an
// application callback. The slices of one from Do or EndDrain are valid until
// the Step's next Do or EndDrain, those of one from Complete until its next
// Handoff.
type Release struct {
	Timers     []SetTimer
	Sends      []Send
	Deliveries []mcast.Delivery
}

// Step runs one handler's Handle calls under the shard contract
// (docs/CONCURRENCY.md, "The shard driver"). Do runs Handle, stages the
// call's persist entries in memory and releases at once whatever vouches
// for nothing; Handoff takes everything staged since the last one as one
// Commit, whose Run — one Append, one Sync — may proceed on another
// goroutine while the loop goes on calling Do; Complete, back on the loop,
// releases what that commit held. At most one Commit is in flight, so the
// store is used by one goroutine at a time, and this is the single place in
// the repository where a runtime touches it — application records reach it
// as AppLog inputs. A Step itself is used by one goroutine at a time (the
// shard's loop, or the simulator's dispatch).
type Step struct {
	h     Handler
	d     Drainer     // h, if it is one
	store wal.Storage // nil discards persist effects: no durability
	fx    Effects     // the current call's; reused across calls
	cur   *Commit     // what the calls since the last Handoff staged and hold
	fly   *Commit     // the hand-off in flight, nil when none
	spare *Commit     // the completed one, recycled by the next Handoff
	err   error       // the storage failure that crash-stopped the shard
}

// Commit is one hand-off: the entries staged by the calls it covers, in
// call order (eager before lazy within a call), and the effects held for
// it. Between Handoff and Complete it belongs to whoever runs it.
type Commit struct {
	store   wal.Storage
	entries []wal.Entry
	sync    bool // an eager entry is among them: Run syncs
	err     error

	held  Release
	calls int // how many calls held is the whole of
}

// NewStep binds a handler to its durable store (nil for none).
func NewStep(h Handler, store wal.Storage) *Step {
	d, _ := h.(Drainer)
	return &Step{h: h, d: d, store: store, cur: &Commit{store: store}}
}

// Do consumes one input and returns what the runtime may release at once.
// A call that stages an eager entry is held whole for the Commit that
// carries the entry. A call that stages none goes at once, except that a
// send of a vouching kind (msgs.Kind.Vouches) waits, with its whole call,
// for the eager entries staged before it — what it reports may rest on them
// — held calls are released in call order, and deliveries leave in call
// order, so one behind a held delivery waits with it. Nothing else waits:
// a held send may be overtaken on its link by later sends that vouch for
// nothing, for as long as one commit takes. With no store everything is
// released at once.
//
// An AppLog never reaches Handle: its records, then its snapshot, are staged
// as lazy app entries. The snapshot supersedes the records before it when
// the log is folded, so the store compacts by its own rule and any prefix
// of the log still recovers a consistent state.
//
// A storage error crash-stops the shard: nothing held is released (from
// outside, the process died before the sync, which is the state a restart
// recovers from — what left ungated vouched for nothing), and every later
// call returns the same error without calling Handle; the runtime's part is
// to stop feeding it and to mark the process down in its own way.
func (s *Step) Do(in Input) (Release, error) {
	if s.err != nil {
		return Release{}, s.err
	}
	s.fx.Reset()
	al, isLog := in.(AppLog)
	if !isLog {
		s.h.Handle(in, &s.fx)
	}
	return s.stage(al), nil
}

// EndDrain runs the handler's EndDrain, if it is a Drainer, under Do's rules,
// and returns what the runtime may release at once. Every runtime calls it
// where a drain ends — the wall-clock ones from their commit hook, before
// Handoff; the simulator after each dispatch. A crash-stopped Step does
// nothing.
func (s *Step) EndDrain() Release {
	if s.d == nil || s.err != nil {
		return Release{}
	}
	s.fx.Reset()
	s.d.EndDrain(&s.fx)
	return s.stage(AppLog{})
}

// stage stages what the call in s.fx persists, and al, and holds the call's
// effects as Do describes; it returns the effects released at once.
func (s *Step) stage(al AppLog) Release {
	rel := Release{Timers: s.fx.Timers, Sends: s.fx.Sends, Deliveries: s.fx.Deliveries}
	if s.store == nil {
		return rel
	}
	c := s.cur
	c.entries = append(append(c.entries, s.fx.Persists...), s.fx.LazyPersists...)
	for _, rec := range al.Recs {
		c.entries = append(c.entries, wal.Entry{Kind: wal.EntryApp, App: rec})
	}
	if al.Snapshot != nil {
		c.entries = append(c.entries, wal.Entry{Kind: wal.EntryAppSnapshot, App: al.Snapshot})
	}
	held := func(c *Commit) bool { return c != nil && len(c.held.Deliveries) > 0 }
	switch {
	case len(s.fx.Persists) > 0: // waits for the commit that carries its entries
		c.sync = true
	case (c.sync || s.fly != nil && s.fly.sync) && vouches(rel.Sends):
		// Waits for the eager entries staged before it: this commit is handed
		// off once the one in flight is back, if only to release the call.
	case len(rel.Deliveries) > 0 && (held(c) || held(s.fly)):
		c.held.Deliveries = append(c.held.Deliveries, rel.Deliveries...)
		rel.Deliveries = nil
		return rel
	default:
		return rel
	}
	c.held.Timers = append(c.held.Timers, rel.Timers...)
	c.held.Sends = append(c.held.Sends, rel.Sends...)
	c.held.Deliveries = append(c.held.Deliveries, rel.Deliveries...)
	c.calls++
	return Release{}
}

func vouches(sends []Send) bool {
	for i := range sends {
		if sends[i].Msg.Kind().Vouches() {
			return true
		}
	}
	return false
}

// Handoff returns everything staged and held since the last one, for the
// caller to Run and then Complete, or nil when there is nothing or a Commit
// is still in flight. Runtimes call it when their queue runs dry
// (Mailbox.Run's commit hook): one write, and one sync if any call waits for
// it, per drain.
func (s *Step) Handoff() *Commit {
	c := s.cur
	if s.fly != nil || len(c.entries)+c.calls+len(c.held.Deliveries) == 0 {
		return nil
	}
	if s.cur = s.spare; s.cur == nil {
		s.cur = &Commit{store: s.store}
	}
	s.cur.reset()
	s.fly, s.spare = c, nil
	return c
}

// Run writes the commit's entries with one Append and makes them durable
// with one Sync if any call waits for them; entries no call waits for reach
// the store (the OS, on disk) and ride a later sync. It does not touch the
// Step, so it may run beside the shard's loop.
func (c *Commit) Run() {
	if len(c.entries) > 0 {
		c.err = c.store.Append(c.entries...)
	}
	if c.err == nil && c.sync {
		c.err = c.store.Sync()
	}
}

// Calls returns how many calls the commit holds the effects of.
func (c *Commit) Calls() int { return c.calls }

// Complete takes back the commit that Handoff returned, once it has Run,
// and releases the effects held for it.
func (s *Step) Complete(c *Commit) (Release, error) {
	s.fly, s.spare = nil, c
	if c.err != nil {
		return Release{}, s.fail(c.err)
	}
	return c.held, nil
}

// fail records the storage error that crash-stops the shard and drops what
// was staged and held.
func (s *Step) fail(err error) error {
	s.err, s.fly = err, nil
	s.cur.reset()
	return err
}

// reset empties the commit for reuse, dropping its references.
func (c *Commit) reset() {
	clear(c.entries)
	clear(c.held.Timers)
	clear(c.held.Sends)
	clear(c.held.Deliveries)
	*c = Commit{store: c.store, entries: c.entries[:0], held: Release{c.held.Timers[:0], c.held.Sends[:0], c.held.Deliveries[:0]}}
}

// Handler returns the handler the Step drives: after a Restart with a
// rebuilt handler, the rebuilt one.
func (s *Step) Handler() Handler { return s.h }

// Restart revives a crash-stopped Step on the same store, with nothing
// staged or held: what the dead incarnation had not written is lost. h,
// when non-nil, replaces the handler: the one rebuilt by replaying the
// store.
func (s *Step) Restart(h Handler) {
	if h != nil {
		s.h = h
		s.d, _ = h.(Drainer)
	}
	s.fail(nil)
}

// Mailbox is a shard's input queue and the loop that drains it: an MPSC
// queue with no capacity, a mutex and a slice (internal/ring), so a post
// never waits for the loop — which rules out buffer-deadlock cycles between
// shards; load shows up as Depth and HighWater, not as backpressure. The
// envelope type is the runtime's: the input plus whatever must travel with
// it. Envelopes from one producer are consumed in the order it posted them,
// which is what preserves per-link FIFO.
type Mailbox[E any] struct {
	box *ring.MPSC[E]
	// wake nudges Run after a post (capacity 1: a pending wake-up covers
	// any number of posts).
	wake chan struct{}
	quit <-chan struct{}
	// Gather, if set before Run, is asked whenever the queue runs dry in a
	// drain: true makes Run yield the processor and look again (Run).
	Gather func() bool

	// The envelopes armed by PostAfter: a min-heap on (at, seq) behind one
	// runtime timer, which Run sets to the earliest deadline before it
	// sleeps. Run posts the due ones itself, so an armed envelope costs no
	// runtime timer, no goroutine and no wake-up of its own.
	tmu    sync.Mutex
	timers pq.Heap[timed[E]]
	seq    uint64
	timer  *time.Timer
	epoch  time.Time // deadlines count from here
}

// timed is one armed envelope, due at nanoseconds past the mailbox's epoch;
// seq keeps equal deadlines in arming order.
type timed[E any] struct {
	at  time.Duration
	seq uint64
	e   E
}

func (t *timed[E]) before(u *timed[E]) bool {
	return t.at < u.at || t.at == u.at && t.seq < u.seq
}

// NewMailbox creates an empty mailbox; Run returns, and armed timers lapse,
// once quit is closed.
func NewMailbox[E any](quit <-chan struct{}) *Mailbox[E] {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &Mailbox[E]{box: ring.New[E](0), wake: make(chan struct{}, 1), quit: quit, timers: pq.New((*timed[E]).before), timer: t, epoch: time.Now()}
}

// Post enqueues e; safe from any goroutine, including the consumer.
func (m *Mailbox[E]) Post(e E) {
	m.box.Enqueue(e)
	m.nudge()
}

func (m *Mailbox[E]) nudge() {
	select {
	case m.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// PostAfter posts e once d has elapsed (how a wall-clock runtime arms a
// SetTimer), unless the mailbox has quit by then. Envelopes armed for the
// same mailbox are posted in deadline order.
func (m *Mailbox[E]) PostAfter(d time.Duration, e E) {
	t := timed[E]{at: time.Since(m.epoch) + d, e: e}
	m.tmu.Lock()
	m.seq++
	t.seq = m.seq
	m.timers.Push(t)
	first := m.timers.Min().seq == t.seq
	m.tmu.Unlock()
	if first {
		m.nudge() // Run may be asleep until a later deadline
	}
}

// expire posts every armed envelope whose deadline has passed, in deadline
// order, and reports whether there was one. With sleep set and none due it
// sets the runtime timer to the earliest deadline left.
func (m *Mailbox[E]) expire(sleep bool) bool {
	m.tmu.Lock()
	defer m.tmu.Unlock()
	if m.timers.Len() == 0 {
		return false
	}
	now := time.Since(m.epoch)
	due := false
	for m.timers.Len() > 0 && m.timers.Min().at <= now {
		m.box.Enqueue(m.timers.Pop().e)
		due = true
	}
	if sleep && !due && m.timers.Len() > 0 {
		m.timer.Reset(m.timers.Min().at - now)
	}
	return due
}

// Depth returns the current queue length.
func (m *Mailbox[E]) Depth() int64 { return m.box.Depth() }

// HighWater returns the largest queue length observed.
func (m *Mailbox[E]) HighWater() int64 { return m.box.HighWater() }

// maxCommitInputs bounds how many inputs Run consumes between two commit
// hooks, so a mailbox that never runs dry cannot hold effects back
// indefinitely.
const maxCommitInputs = 64

// Run is the shard loop: it calls consume for every envelope, in arrival
// order, until quit is closed, and commit whenever the queue runs dry or
// maxCommitInputs envelopes were consumed since the last commit — where the
// consumer passes on what its consume calls gathered (the TCP runtime's
// link flush, Step.Handoff). At the same points it posts the armed
// envelopes that have come due. It is the mailbox's only consumer, so the
// calls never overlap.
//
// While Gather reports true — a client's loop (Drainer.Gather) — a dry queue
// ends the drain only after a yield (runtime.Gosched) has brought in nothing
// new. Go runs a goroutine woken by a channel send next on the waker's
// processor, so the first of a burst of callers woken together starts the
// loop before the others have posted; the yield lets them post into the same
// drain, which leaves as one multicast. A yield puts the loop behind every
// goroutine that is ready to run, so Gather says no where it cannot help.
// Replica loops do not gather: the end of their drain flushes the sends
// every operation waits on.
func (m *Mailbox[E]) Run(consume func(E), commit func()) {
	n := 0
	for {
		e, ok := m.box.Dequeue()
		if !ok && n > 0 && m.Gather != nil && m.Gather() {
			runtime.Gosched()
			e, ok = m.box.Dequeue()
		}
		if !ok || n == maxCommitInputs {
			if n > 0 {
				commit()
				n = 0
			}
			if due := m.expire(!ok); !ok && !due {
				select {
				case <-m.quit:
					return
				case <-m.wake:
				case <-m.timer.C:
				}
			}
			if !ok {
				continue
			}
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
