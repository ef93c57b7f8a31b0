package sim

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/pq"
	"wbcast/internal/wal"
)

// Latency decides the network delay of one message. It may consult mutable
// test state (the simulator is single-threaded) and the seeded RNG for
// reproducible jitter. Self-sends bypass it and take zero time.
type Latency func(from, to mcast.ProcessID, m msgs.Message, now time.Duration, rng *rand.Rand) time.Duration

// Uniform returns a Latency with constant delay d on every link.
func Uniform(d time.Duration) Latency {
	return func(_, _ mcast.ProcessID, _ msgs.Message, _ time.Duration, _ *rand.Rand) time.Duration {
		return d
	}
}

// UniformJitter returns a Latency uniformly distributed in [d, d+jitter).
func UniformJitter(d, jitter time.Duration) Latency {
	return func(_, _ mcast.ProcessID, _ msgs.Message, _ time.Duration, rng *rand.Rand) time.Duration {
		if jitter <= 0 {
			return d
		}
		return d + time.Duration(rng.Int63n(int64(jitter)))
	}
}

// Verdict is a Filter's decision about one message transmission on one
// link. The zero value transmits the message normally.
type Verdict struct {
	// Drop loses the transmission entirely (the protocols' retry machinery
	// is responsible for recovering).
	Drop bool
	// Duplicates schedules this many extra copies of the message, each with
	// an independently sampled link latency.
	Duplicates int
	// Delay adds to the sampled link latency of every copy.
	Delay time.Duration
	// Reorder exempts this transmission from the per-link FIFO floor, so it
	// may arrive before messages sent earlier on the same link.
	Reorder bool
}

// Filter decides the fate of one message transmission (one recipient of one
// Send). Self-sends bypass it — a process can always reach itself. It may
// consult the seeded RNG for reproducible randomness and mutable fault
// state (the simulator is single-threaded).
type Filter func(from, to mcast.ProcessID, m msgs.Message, now time.Duration, rng *rand.Rand) Verdict

// Config parametrises a simulation.
type Config struct {
	// Latency decides per-message delays; nil defaults to Uniform(10ms).
	Latency Latency
	// CommitTime is how long a stored process's commit — one Append and one
	// Sync (node.Commit) — takes in virtual time, for tests of what waits for
	// the disk and what does not: the process goes on handling inputs while
	// one is in flight, and a crash before it completes loses what it
	// carried. Zero, the default, commits within the dispatch that staged the
	// entries, so a run's storage calls and event order do not depend on
	// batching.
	CommitTime time.Duration
	// Seed initialises the simulator's RNG.
	Seed int64
	// Filter, if non-nil, is consulted once per transmission and may drop,
	// duplicate, delay or reorder it (fault injection; see internal/faults).
	Filter Filter
	// TimerScale, if non-nil, rescales every timer duration armed by
	// process p — a clock-skewed process sees its timeouts stretched or
	// compressed relative to the network.
	TimerScale func(p mcast.ProcessID, after time.Duration) time.Duration
	// Trace, if non-nil, receives every event as it is processed.
	Trace func(TraceEvent)
	// OnDeliver, if non-nil, receives every application delivery as it is
	// recorded, from inside the dispatch of the delivering event. Runtimes
	// built on the simulator (the public Simulated transport) use it to
	// stream deliveries out without polling Deliveries().
	OnDeliver func(p mcast.ProcessID, d mcast.Delivery)
	// OnStorageCrash, if non-nil, observes a process crash-stopping on a
	// storage failure (Append or Sync error on its configured Storage).
	OnStorageCrash func(p mcast.ProcessID, err error)
}

// TraceEvent describes one processed input for debugging and audits.
type TraceEvent struct {
	At   time.Duration
	Proc mcast.ProcessID
	In   node.Input
}

// DeliveryRecord is an application-message delivery observed at a process.
type DeliveryRecord struct {
	Proc mcast.ProcessID
	At   time.Duration
	D    mcast.Delivery
}

// Sim is the simulator. Not safe for concurrent use.
type Sim struct {
	cfg Config
	rng *rand.Rand
	now time.Duration
	seq uint64
	// events is the queue: pointer-free keys ordered by (at, seq), each
	// naming the slot of its event in slab. free lists the slots the queue
	// gave back, which the next events reuse.
	events pq.Heap[eventKey]
	slab   []event
	free   []int32
	// procs holds each process's state, indexed by pid.
	procs []proc

	deliveries []DeliveryRecord
	msgCounts  [256]int // by msgs.Kind
	sent       int
	dropped    int

	// Genuineness audit (paper §II): for every application message, the set
	// of processes that received a protocol message concerning it.
	touched map[mcast.MsgID]mcast.ProcSet
	// submitted records dest(m) and the sender for every Submit.
	submitted map[mcast.MsgID]submitRecord
}

// proc is the simulator's state of one process.
type proc struct {
	// step holds the process's handler behind the shared shard driver's
	// Handle → persist → release step, nil for a pid no handler was added
	// for; the event queue plays the part of the mailbox.
	step *node.Step
	// rebuild, non-nil for a process AddStored gave one, builds its handler
	// afresh from its store at a Restart.
	rebuild func() (node.Handler, error)
	crashed bool
	// floor[to] enforces FIFO on the link to process to: arrival times on a
	// link never decrease, and equal-time events are dispatched in schedule
	// (seq) order. A link never used has floor 0, which no arrival is below.
	floor []time.Duration
}

type submitRecord struct {
	sender mcast.ProcessID
	dest   mcast.GroupSet
	at     time.Duration
	// originated: the record is of a MULTICAST its sender sent first, not of
	// a submission.
	originated bool
}

// New creates a simulator.
func New(cfg Config) *Sim {
	if cfg.Latency == nil {
		cfg.Latency = Uniform(10 * time.Millisecond)
	}
	return &Sim{
		cfg: cfg,
		rng: rand.New(lazySource(sync.OnceValue(func() rand.Source64 {
			return rand.NewSource(cfg.Seed).(rand.Source64)
		}))),
		events:    pq.New(keyBefore),
		touched:   make(map[mcast.MsgID]mcast.ProcSet),
		submitted: make(map[mcast.MsgID]submitRecord),
	}
}

// lazySource is a math/rand source made and seeded on the first draw: most
// simulations never draw, and seeding costs more than the rest of New. It
// is a rand.Source64 like the source it wraps, so a rand.Rand over it
// yields the same stream.
type lazySource func() rand.Source64

func (l lazySource) Int63() int64    { return l().Int63() }
func (l lazySource) Uint64() uint64  { return l().Uint64() }
func (l lazySource) Seed(seed int64) { l().Seed(seed) }

// proc returns pid's state, growing the table to it.
func (s *Sim) proc(pid mcast.ProcessID) *proc {
	if int(pid) >= len(s.procs) {
		s.procs = append(s.procs, make([]proc, int(pid)+1-len(s.procs))...)
	}
	return &s.procs[pid]
}

// Add registers a handler and schedules its Start input at the current time.
func (s *Sim) Add(h node.Handler) { s.AddStored(h, nil, nil) }

// AddStored is Add for a handler backed by a durable store: its eager
// persist effects are appended and synced before any send or delivery of
// the same Handle call, lazy ones ride the next sync (node.Step) — a
// restart on wal.NewMemory loses them until then — and a storage error
// crash-stops it. Each dispatch's entries are one Append, at once or
// Config.CommitTime later. A nil store discards persist effects.
//
// rebuild, if non-nil, builds the process's handler afresh at every
// Restart — by replaying its store, so a simulated restart takes the real
// recovery path instead of reusing the live in-memory handler. A nil
// handler (with a nil error) keeps the in-memory one.
func (s *Sim) AddStored(h node.Handler, st wal.Storage, rebuild func() (node.Handler, error)) {
	pid := h.ID()
	p := s.proc(pid)
	if p.step != nil {
		panic(fmt.Sprintf("sim: duplicate handler for process %d", pid))
	}
	p.step, p.rebuild = node.NewStep(h, st), rebuild
	s.push(s.now, event{proc: pid, in: node.Start{}})
}

// Crash marks a process as crashed: it processes no further events —
// inputs that arrive (or timers that fire) while it is down are lost.
// Crashes are permanent (crash-stop model, paper §II) unless undone by
// Restart.
func (s *Sim) Crash(pid mcast.ProcessID) { s.proc(pid).crashed = true }

// Crashed reports whether pid is down: crashed and not restarted, stopped
// by a storage error, or restarted on a store that could not be replayed.
func (s *Sim) Crashed(pid mcast.ProcessID) bool { return s.proc(pid).crashed }

// Handler returns the live handler of pid, a process added to the
// simulator: after a durable Restart, the one rebuilt from its store.
func (s *Sim) Handler(pid mcast.ProcessID) node.Handler { return s.proc(pid).step.Handler() }

// Restart brings a crashed process back at the current virtual time and
// re-delivers Start so it re-arms its background timers. It is a no-op if
// pid is not crashed.
//
// Without a rebuild function (AddStored), the process returns with its
// in-memory handler state INTACT — an optimistic model equivalent to a long
// pause, not real crash-recovery: nothing was persisted, the state simply
// never left RAM. With one (given with a Storage), the old handler is
// discarded and a fresh one is constructed by replaying the process's
// durable store, which is the real recovery path: state transitions that
// were never synced are lost, exactly as on disk. Either way, everything
// sent to the process while it was down is gone, which is what exercises
// the protocols' catch-up machinery.
//
// Timers the process armed before crashing are purged: they are
// process-local state a real crash loses, and leaving them queued would
// run the pre-crash timer chains concurrently with the ones the fresh
// Start arms (e.g. two interleaved suspicion chains, each consuming the
// other's heartbeat evidence). So is a commit in flight (Config.CommitTime):
// what it carried is lost. The purged events' slab slots are reused.
// In-flight messages are NOT purged — a message already in the network
// legitimately arrives after the restart, and so do ControlAt callbacks.
func (s *Sim) Restart(pid mcast.ProcessID) {
	p := s.proc(pid)
	if !p.crashed {
		return
	}
	p.crashed = false
	s.events.Filter(func(k eventKey) bool {
		ev := &s.slab[k.slot]
		if _, isTimer := ev.in.(node.Timer); ev.proc != pid || !isTimer && ev.commit == nil {
			return true
		}
		s.recycle(k.slot)
		return false
	})
	st := p.step
	if st == nil {
		return
	}
	var h node.Handler // nil keeps the in-memory handler
	if p.rebuild != nil {
		var err error
		if h, err = p.rebuild(); err != nil {
			// A process whose store cannot be replayed stays down (its peers
			// carry on; a later Restart retries).
			p.crashed = true
			if s.cfg.OnStorageCrash != nil {
				s.cfg.OnStorageCrash(pid, err)
			}
			return
		}
	}
	st.Restart(h)
	s.push(s.now, event{proc: pid, in: node.Start{}})
}

// ControlAt schedules fn to run at virtual time at, between handler events.
// The fault engine uses it to fire time-triggered fault actions at exact
// virtual instants, keeping them inside the deterministic event order.
func (s *Sim) ControlAt(at time.Duration, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.push(at, event{proc: mcast.NoProcess, ctl: fn})
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Pending returns the number of events still queued. A driver that pumps
// the simulator to quiescence loops until Pending reaches zero; protocols
// with periodic timers (heartbeats, GC) never quiesce.
func (s *Sim) Pending() int { return s.events.Len() }

// SubmitAt schedules a Submit input for the client handler at time at,
// recording the message for the latency and genuineness audits.
func (s *Sim) SubmitAt(at time.Duration, client mcast.ProcessID, m mcast.AppMsg) {
	if at < s.now {
		panic("sim: SubmitAt in the past")
	}
	s.NoteSubmit(at, client, m)
	s.push(at, event{proc: client, in: node.Submit{Msg: m}})
}

// SubmitBurst is SubmitAt for several messages the client handler consumes
// in one dispatch: one drain, at whose end a client sends the messages that
// share a destination set as one envelope (internal/client). Every other
// dispatch is a drain of one input.
func (s *Sim) SubmitBurst(at time.Duration, client mcast.ProcessID, ms []mcast.AppMsg) {
	if at < s.now {
		panic("sim: SubmitBurst in the past")
	}
	burst := make([]node.Input, len(ms))
	for i, m := range ms {
		s.NoteSubmit(at, client, m)
		burst[i] = node.Submit{Msg: m}
	}
	s.ControlAt(at, func() { s.drain(client, nil, burst...) })
}

// NoteSubmit records a submission for the latency and genuineness audits
// without scheduling any event. Tests that inject MULTICAST traffic directly
// (bypassing a client handler) use it to keep the audits accurate.
func (s *Sim) NoteSubmit(at time.Duration, client mcast.ProcessID, m mcast.AppMsg) {
	s.submitted[m.ID] = submitRecord{sender: client, dest: m.Dest.Clone(), at: at}
}

// Inject schedules an arbitrary input at time at (tests of single handlers).
func (s *Sim) Inject(at time.Duration, pid mcast.ProcessID, in node.Input) {
	if at < s.now {
		panic("sim: Inject in the past")
	}
	s.push(at, event{proc: pid, in: in})
}

// Run processes events until the queue is exhausted or virtual time would
// exceed until. Returns the number of events processed.
func (s *Sim) Run(until time.Duration) int {
	n := 0
	for s.events.Len() > 0 && s.events.Min().at <= until {
		s.dispatch(s.pop())
		n++
	}
	if s.now < until {
		s.now = until
	}
	return n
}

func (s *Sim) dispatch(ev event) {
	if ev.ctl != nil {
		ev.ctl()
		return
	}
	s.drain(ev.proc, ev.commit, ev.in)
}

// drain is one dispatch at process pid: with c nil, one drain — each input
// handled in turn, then the drain's end (Step.EndDrain); otherwise the
// hand-off c completing.
func (s *Sim) drain(pid mcast.ProcessID, c *node.Commit, ins ...node.Input) {
	p := s.proc(pid)
	st := p.step
	if p.crashed || st == nil {
		return
	}
	var rel node.Release
	var err error
	if c == nil {
		for _, in := range ins {
			if err = s.handle(pid, st, in); err != nil {
				break
			}
		}
		if err == nil {
			rel = st.EndDrain()
		}
	}
	// Release what the drain's end handed back, then run what is staged by
	// then through the store: at once, or CommitTime from now as an event —
	// the hand-off completing, which releases what it held and hands off
	// again.
	for {
		if c != nil {
			c.Run()
			rel, err = st.Complete(c)
		}
		if err != nil {
			// Crash-stop on a storage failure: nothing held was released,
			// exactly as if the process had crashed inside Handle.
			p.crashed = true
			if s.cfg.OnStorageCrash != nil {
				s.cfg.OnStorageCrash(pid, err)
			}
			return
		}
		s.release(pid, rel)
		if c = st.Handoff(); c == nil {
			return
		}
		if s.cfg.CommitTime > 0 {
			s.push(s.now+s.cfg.CommitTime, event{proc: pid, commit: c})
			return
		}
	}
}

// handle feeds one input to pid's Step, counting it for the audits, and
// releases what the call handed back.
func (s *Sim) handle(pid mcast.ProcessID, st *node.Step, in node.Input) error {
	if rcv, ok := in.(node.Recv); ok {
		s.msgCounts[rcv.Msg.Kind()]++
		if cn, ok := rcv.Msg.(msgs.Concerner); ok {
			if id, ok := cn.Concerns(); ok {
				if set := s.touched[id]; !set.Has(pid) {
					s.touched[id] = set.Add(pid)
				}
			}
		}
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace(TraceEvent{At: s.now, Proc: pid, In: in})
	}
	rel, err := st.Do(in)
	if err == nil {
		s.release(pid, rel)
	}
	return err
}

// release turns one Handle call's released effects into events, in the
// driver's order: timers, sends, deliveries.
func (s *Sim) release(from mcast.ProcessID, rel node.Release) {
	for _, tm := range rel.Timers {
		after := tm.After
		if s.cfg.TimerScale != nil {
			after = max(s.cfg.TimerScale(from, after), 0)
		}
		s.push(s.now+after, event{proc: from, in: node.Timer{Kind: tm.Kind, Data: tm.Data}})
	}
	for _, snd := range rel.Sends {
		// A MULTICAST for an ID the audits have never seen originates here:
		// the sender synthesised the message itself (a client sending a batch
		// envelope, internal/client). Record it, and that its sender
		// originated it, so genuineness accounting covers protocol-level
		// messages nobody submitted explicitly — and flags one a replica
		// invented.
		if mc, ok := snd.Msg.(msgs.Multicast); ok {
			if _, known := s.submitted[mc.M.ID]; !known {
				s.submitted[mc.M.ID] = submitRecord{sender: from, dest: mc.M.Dest.Clone(), at: s.now, originated: true}
			}
		}
		// Every copy of the send carries one Recv, boxed once.
		in := node.Input(node.Recv{From: from, Msg: snd.Msg})
		floor := s.procs[from].floor
		for i := 0; i < snd.NumRecipients(); i++ {
			to := snd.Recipient(i)
			s.sent++
			var v Verdict
			if to != from && s.cfg.Filter != nil {
				v = s.cfg.Filter(from, to, snd.Msg, s.now, s.rng)
			}
			if v.Drop {
				s.dropped++
				continue
			}
			for copies := 1 + v.Duplicates; copies > 0; copies-- {
				var lat time.Duration
				if to != from {
					lat = max(s.cfg.Latency(from, to, snd.Msg, s.now, s.rng), 0) + v.Delay
				}
				at := s.now + lat
				if !v.Reorder {
					// FIFO: never deliver before an earlier message on the
					// same link. Reordered transmissions skip the floor (and
					// do not raise it for later messages).
					if int(to) >= len(floor) {
						floor = append(floor, make([]time.Duration, max(int(to)+1, len(s.procs))-len(floor))...)
						s.procs[from].floor = floor
					}
					at = max(at, floor[to])
					floor[to] = at
				}
				s.push(at, event{proc: to, in: in})
			}
		}
	}
	for _, d := range rel.Deliveries {
		s.deliveries = append(s.deliveries, DeliveryRecord{Proc: from, At: s.now, D: d})
		if s.cfg.OnDeliver != nil {
			s.cfg.OnDeliver(from, d)
		}
	}
}

// push queues ev at time at, after every event already queued for at.
func (s *Sim) push(at time.Duration, ev event) {
	var slot int32
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
		s.slab[slot] = ev
	} else {
		slot = int32(len(s.slab))
		s.slab = append(s.slab, ev)
	}
	s.seq++
	s.events.Push(eventKey{at: at, seq: s.seq, slot: slot})
}

// pop removes the next event from the queue and advances the clock to it.
func (s *Sim) pop() event {
	k := s.events.Pop()
	ev := s.slab[k.slot]
	s.recycle(k.slot)
	s.now = k.at
	return ev
}

// recycle frees a slot of the slab; its event must not stay reachable.
func (s *Sim) recycle(slot int32) {
	s.slab[slot] = event{}
	s.free = append(s.free, slot)
}

// Deliveries returns all recorded deliveries in processing order.
func (s *Sim) Deliveries() []DeliveryRecord { return s.deliveries }

// DeliveriesAt returns the deliveries observed at one process, in order.
func (s *Sim) DeliveriesAt(pid mcast.ProcessID) []DeliveryRecord {
	return slices.DeleteFunc(slices.Clone(s.deliveries), func(d DeliveryRecord) bool { return d.Proc != pid })
}

// FirstDelivery returns the earliest delivery time of message id at any
// member of group g, and false if it was never delivered there. This is the
// paper's per-group delivery latency reference point (§II). Deliveries are
// recorded as virtual time advances, so the first one found is the
// earliest.
func (s *Sim) FirstDelivery(top *mcast.Topology, id mcast.MsgID, g mcast.GroupID) (time.Duration, bool) {
	for _, d := range s.deliveries {
		if d.D.Msg.ID == id && top.GroupOf(d.Proc) == g {
			return d.At, true
		}
	}
	return 0, false
}

// SubmitTime returns when message id was submitted.
func (s *Sim) SubmitTime(id mcast.MsgID) (time.Duration, bool) {
	r, ok := s.submitted[id]
	return r.at, ok
}

// MessageCount returns how many messages of kind k were received in total.
func (s *Sim) MessageCount(k msgs.Kind) int { return s.msgCounts[k] }

// TotalSent returns the total number of protocol messages sent.
func (s *Sim) TotalSent() int { return s.sent }

// TotalDropped returns the number of transmissions dropped by the Filter.
func (s *Sim) TotalDropped() int { return s.dropped }

// AuditGenuineness verifies the minimality property of paper §II: every
// process that received a message concerning application message m is either
// m's sender or a member of a destination group of m, and m was submitted —
// or sent first by a client, never by a replica. It returns one error per
// violation, in ascending (message ID, process) order, so a replayed run
// reports the same first violation.
func (s *Sim) AuditGenuineness(top *mcast.Topology) []error {
	var errs []error
	for _, id := range slices.Sorted(maps.Keys(s.touched)) {
		rec, ok := s.submitted[id]
		if !ok {
			errs = append(errs, fmt.Errorf("sim: message %v was never submitted but was ordered", id))
			continue
		}
		if rec.originated && top.IsReplica(rec.sender) {
			errs = append(errs, fmt.Errorf("sim: replica %d originated multicast %v, which nobody submitted (genuineness violation)", rec.sender, id))
		}
		for p, set := mcast.ProcessID(0), s.touched[id]; int(p) < 64*len(set); p++ {
			if !set.Has(p) || p == rec.sender || rec.dest.Contains(top.GroupOf(p)) {
				continue
			}
			errs = append(errs, fmt.Errorf("sim: process %d participated in ordering %v with dest %v (genuineness violation)", p, id, rec.dest))
		}
	}
	return errs
}

// eventKey is an event's place in the queue. It holds no pointers, so the
// heap's sifting moves it without write barriers and the garbage collector
// never scans the heap.
type eventKey struct {
	at   time.Duration
	seq  uint64
	slot int32 // of the event in Sim.slab
}

func keyBefore(a, b *eventKey) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

// event is what a queued key stands for.
type event struct {
	proc mcast.ProcessID
	in   node.Input
	// ctl, when non-nil, makes this a control event (ControlAt): dispatch
	// runs the callback instead of routing an input to a handler.
	ctl func()
	// commit, when non-nil, is proc's hand-off completing: dispatch runs it
	// and releases what it held.
	commit *node.Commit
}
