package node_test

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/sim"
	"wbcast/internal/tcpnet"
	"wbcast/internal/wal"
)

const (
	actorPID   = mcast.ProcessID(1)
	witnessPID = mcast.ProcessID(2)
)

// eventLog is the one global order the contract is asserted on: every
// storage call, Handle call, timer expiry, message arrival and delivery
// callback of a run appends to it.
type eventLog struct {
	mu sync.Mutex
	ev []string
}

func (l *eventLog) add(format string, args ...any) {
	l.mu.Lock()
	l.ev = append(l.ev, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *eventLog) index(format string, args ...any) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Index(l.ev, fmt.Sprintf(format, args...))
}

func (l *eventLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return fmt.Sprint(l.ev)
}

// flakyStore logs every storage call ("write n" per Append call, then one
// event per entry), fails the failAt-th Sync and every Append of an entry
// whose Clock is failAppend. onSync, when set, runs at the start of the n-th
// Sync, before it is logged: a test parks the store there to see what the
// shard does meanwhile.
type flakyStore struct {
	*wal.Memory
	log        *eventLog
	failAt     int
	failAppend uint64
	onSync     func(n int)
	writes     int
	syncs      int
}

func (s *flakyStore) Append(entries ...wal.Entry) error {
	s.writes++
	s.log.add("write %d", s.writes)
	for _, e := range entries {
		switch e.Kind {
		case wal.EntryApp:
			s.log.add("append app %d", e.App[0])
		case wal.EntryAppSnapshot:
			s.log.add("append snapshot %d", e.App[0])
		default:
			s.log.add("append %d", e.Clock)
			if e.Clock == s.failAppend {
				return errors.New("injected append failure")
			}
		}
	}
	return s.Memory.Append(entries...)
}

func (s *flakyStore) Sync() error {
	s.syncs++
	if s.onSync != nil {
		s.onSync(s.syncs)
	}
	s.log.add("sync %d", s.syncs)
	if s.syncs == s.failAt {
		return errors.New("injected sync failure")
	}
	return s.Memory.Sync()
}

func (s *flakyStore) Snapshot() error {
	s.log.add("compact %d", s.syncs)
	return s.Memory.Snapshot()
}

// hosted is one runtime hosting the actor (on a store, with a delivery
// sink) and the witness.
type hosted struct {
	inject func(pid mcast.ProcessID, in node.Input)
	// idle reports whether the runtime has consumed (or discarded) every
	// input injected so far; the simulator runs to quiescence first.
	idle func() bool
	stop func()
}

// shardRuntimes hosts the same two handlers on each of the three hosts: the
// simulator, wall-clock nodes in memory ("live", the public InProcess
// transport's) and wall-clock nodes over loopback TCP.
// virtual marks the simulator, whose single event order also shows where
// a timer was armed relative to a send; on the wall-clock runtimes a
// timer's expiry races the send's arrival, so only its place after the
// sync is observable. The simulator runs with a commit time, so that a
// hand-off is in flight while it dispatches what was injected with the held
// call; it hands off after every dispatch, the wall-clock runtimes when
// their mailbox runs dry.
var shardRuntimes = []struct {
	name    string
	virtual bool
	start   func(t *testing.T, actor, witness node.Handler, st wal.Storage, onDeliver func(mcast.Delivery)) hosted
}{
	{"sim", true, func(t *testing.T, actor, witness node.Handler, st wal.Storage, onDeliver func(mcast.Delivery)) hosted {
		s := sim.New(sim.Config{
			Latency:    sim.Uniform(0),
			CommitTime: time.Millisecond,
			OnDeliver:  func(_ mcast.ProcessID, d mcast.Delivery) { onDeliver(d) },
		})
		s.AddStored(actor, st, nil)
		s.Add(witness)
		return hosted{
			inject: func(pid mcast.ProcessID, in node.Input) { s.Inject(s.Now(), pid, in) },
			idle:   func() bool { s.Run(s.Now() + time.Second); return true },
			stop:   func() {},
		}
	}},
	{"live", false, func(t *testing.T, actor, witness node.Handler, st wal.Storage, onDeliver func(mcast.Delivery)) hosted {
		ns := inMemory(t, tcpnet.Config{Handler: actor, Storage: st, OnDeliver: onDeliver}, tcpnet.Config{Handler: witness})
		an, wn := ns[actorPID], ns[witnessPID]
		return hosted{
			// As on tcpnet: a storage failure stops the actor's node.
			inject: func(pid mcast.ProcessID, in node.Input) { _ = ns[pid].Inject(in) },
			idle: func() bool {
				return an.MailboxDepth()+wn.MailboxDepth() == 0 || an.Inject(node.Start{}) != nil
			},
			stop: func() { an.Close(); wn.Close() },
		}
	}},
	{"tcpnet", false, func(t *testing.T, actor, witness node.Handler, st wal.Storage, onDeliver func(mcast.Delivery)) hosted {
		// Two processes, two nodes, one socket each way. What the delivery
		// callback injects at the witness must not overtake the sends released
		// before it, and the only path that cannot is the actor's link: the
		// marker enters the actor's node and crosses as a message.
		an, err := tcpnet.Serve(tcpnet.Config{PID: actorPID, ListenAddr: "127.0.0.1:0", Storage: st, OnDeliver: onDeliver,
			Handler: node.Func{PID: actorPID, F: func(in node.Input, fx *node.Effects) {
				if h, ok := in.(node.GCHorizon); ok {
					fx.Send(witnessPID, msgs.ClientReply{ID: mcast.MsgID(h.TS.Time)})
					return
				}
				actor.Handle(in, fx)
			}}})
		if err != nil {
			t.Fatal(err)
		}
		wn, err := tcpnet.Serve(tcpnet.Config{PID: witnessPID, ListenAddr: "127.0.0.1:0",
			Handler: node.Func{PID: witnessPID, F: func(in node.Input, fx *node.Effects) {
				if rcv, ok := in.(node.Recv); ok {
					if m, ok := rcv.Msg.(msgs.ClientReply); ok {
						in = node.GCHorizon{TS: mcast.Timestamp{Time: uint64(m.ID)}}
					}
				}
				witness.Handle(in, fx)
			}}})
		if err != nil {
			an.Close()
			t.Fatal(err)
		}
		an.SetPeer(witnessPID, wn.Addr().String())
		wn.SetPeer(actorPID, an.Addr().String())
		return hosted{
			// A storage failure stops the actor's node; injecting into it
			// then fails, which is also how idle recognises the crash-stop.
			inject: func(_ mcast.ProcessID, in node.Input) { _ = an.Inject(in) },
			idle: func() bool {
				return an.MailboxDepth()+wn.MailboxDepth() == 0 || an.Inject(node.Start{}) != nil
			},
			stop: func() { an.Close(); wn.Close() },
		}
	}},
}

// inMemory starts the wall-clock nodes of the public InProcess transport:
// tcpnet nodes that listen on nothing and reach each other through one
// registry. Each config names its handler and what else its node needs.
func inMemory(t *testing.T, cfgs ...tcpnet.Config) map[mcast.ProcessID]*tcpnet.Node {
	t.Helper()
	var reg sync.Map
	ns := make(map[mcast.ProcessID]*tcpnet.Node, len(cfgs))
	for _, cfg := range cfgs {
		cfg.PID = cfg.Handler.ID()
		cfg.Peer = func(pid mcast.ProcessID) *tcpnet.Node {
			v, _ := reg.Load(pid)
			n, _ := v.(*tcpnet.Node)
			return n
		}
		n, err := tcpnet.Serve(cfg)
		if err != nil {
			for _, n := range ns {
				n.Close()
			}
			t.Fatal(err)
		}
		reg.Store(cfg.PID, n)
		ns[cfg.PID] = n
	}
	return ns
}

// The actor's inputs: a Submit whose message ID is k is call k. Its payload
// says what the call persists: one eager entry (none), nothing (1 and 4),
// one lazy entry (2), or an eager entry k and then a lazy entry 100+k (3).
// Every call emits one timer, one send to the witness — of a kind that
// vouches for the log (4) or of one that does not — and one delivery. ID 0
// is the gate: its Handle call blocks until the test opens it, so whatever
// the test injects meanwhile is queued when the loop resumes.
func call(k int, payload ...byte) node.Input {
	return node.Submit{Msg: mcast.AppMsg{ID: mcast.MsgID(k), Payload: payload}}
}

func persisting(k int) node.Input { return call(k) }
func volatile(k int) node.Input   { return call(k, 1) }
func lazy(k int) node.Input       { return call(k, 2) }
func both(k int) node.Input       { return call(k, 3) }
func vouching(k int) node.Input   { return call(k, 4) }

// released lists what a call hands the runtime once its entries are safe.
var released = []string{"timer %d", "send %d", "deliver %d", "marker %d"}

// contractRun is one runtime hosting the actor on a flakyStore and the
// witness, with the one event log the contract is asserted on. The delivery
// callback injects a marker at the witness, so a send released before the
// delivery reaches the witness before the marker.
type contractRun struct {
	t       *testing.T
	virtual bool
	log     *eventLog
	gate    chan struct{}
	h       hosted
}

func startContract(t *testing.T, rt int, store *flakyStore) *contractRun {
	c := &contractRun{t: t, virtual: shardRuntimes[rt].virtual, log: &eventLog{}, gate: make(chan struct{})}
	store.Memory, store.log = wal.NewMemory(), c.log
	actor := node.Func{PID: actorPID, F: func(in node.Input, fx *node.Effects) {
		switch in := in.(type) {
		case node.Submit:
			k := uint64(in.Msg.ID)
			if k == 0 {
				<-c.gate
				return
			}
			c.log.add("handle %d", k)
			switch {
			case in.Msg.Payload == nil:
				fx.Persist(wal.Entry{Kind: wal.EntryBallot, Clock: k})
			case in.Msg.Payload[0] == 2:
				fx.PersistLazy(wal.Entry{Kind: wal.EntryBallot, Clock: k})
			case in.Msg.Payload[0] == 3:
				fx.Persist(wal.Entry{Kind: wal.EntryBallot, Clock: k})
				fx.PersistLazy(wal.Entry{Kind: wal.EntryBallot, Clock: 100 + k})
			}
			fx.SetTimer(0, node.TimerApp, k)
			if in.Msg.Payload != nil && in.Msg.Payload[0] == 4 {
				fx.Send(witnessPID, msgs.HeartbeatAck{Bal: mcast.Ballot{N: k}})
			} else {
				fx.Send(witnessPID, msgs.Heartbeat{Bal: mcast.Ballot{N: k}})
			}
			fx.Deliver(mcast.Delivery{GTS: mcast.Timestamp{Time: k}})
		case node.Timer:
			c.log.add("timer %d", in.Data)
		case node.AppLog:
			c.log.add("handle applog %d", len(in.Recs))
		}
	}}
	witness := node.Func{PID: witnessPID, F: func(in node.Input, _ *node.Effects) {
		switch in := in.(type) {
		case node.Recv:
			switch m := in.Msg.(type) {
			case msgs.Heartbeat:
				c.log.add("send %d", m.Bal.N)
			case msgs.HeartbeatAck:
				c.log.add("send %d", m.Bal.N)
			}
		case node.GCHorizon:
			c.log.add("marker %d", in.TS.Time)
		}
	}}
	c.h = shardRuntimes[rt].start(t, actor, witness, store, func(d mcast.Delivery) {
		c.log.add("deliver %d", d.GTS.Time)
		c.h.inject(witnessPID, node.GCHorizon{TS: d.GTS})
	})
	return c
}

// settle waits until the runtime is idle and done holds.
func (c *contractRun) settle(what string, done func() bool) {
	c.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !(c.h.idle() && done()) {
		if time.Now().After(deadline) {
			c.t.Fatalf("timed out waiting for %s; log: %v", what, c.log)
		}
		time.Sleep(time.Millisecond)
	}
}

// logged reports whether the event has happened.
func (c *contractRun) logged(format string, k int) func() bool {
	return func() bool { return c.log.index(format, k) >= 0 }
}

// await parks the caller — a store call — until the event has happened; the
// assertions that follow say what it means if it never does.
func (c *contractRun) await(format string, k int) {
	for deadline := time.Now().Add(5 * time.Second); c.log.index(format, k) < 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// allReleased reports whether everything the calls release has happened.
func (c *contractRun) allReleased(calls ...int) func() bool {
	return func() bool {
		for _, k := range calls {
			for _, e := range released {
				if c.log.index(e, k) < 0 {
					return false
				}
			}
		}
		return true
	}
}

// queued injects the inputs so that the loop finds them all in its mailbox
// at once: behind a blocked gate call on the wall-clock runtimes, at one
// instant on the simulator.
func (c *contractRun) queued(ins ...node.Input) {
	c.t.Helper()
	if !c.virtual {
		c.h.inject(actorPID, persisting(0))
	}
	for _, in := range ins {
		c.h.inject(actorPID, in)
	}
	if !c.virtual {
		select {
		case c.gate <- struct{}{}:
		case <-time.After(5 * time.Second):
			c.t.Fatalf("the gate input never reached Handle; log: %v", c.log)
		}
	}
}

func (c *contractRun) before(a string, ka int, b string, kb int) {
	c.t.Helper()
	if ia, ib := c.log.index(a, ka), c.log.index(b, kb); ia < 0 || ib < 0 || ia > ib {
		c.t.Errorf("%q (at %d) must precede %q (at %d); log: %v",
			fmt.Sprintf(a, ka), ia, fmt.Sprintf(b, kb), ib, c.log)
	}
}

func (c *contractRun) never(why, format string, k int) {
	c.t.Helper()
	if c.log.index(format, k) >= 0 {
		c.t.Errorf("%q happened although %s; log: %v", fmt.Sprintf(format, k), why, c.log)
	}
}

// TestShardContract pins the shard driver's contract (docs/CONCURRENCY.md)
// on every runtime. Three phases. A volatile call on an idle shard is
// released without any store call. Calls 1 (persisting), 2 (volatile), 4
// (vouching, no entry) and 3 (persisting) are queued behind the gate: call 2
// vouches for nothing, so its timer and its send leave before the sync that
// call 1 waits for — the store parks that sync until they have — while its
// delivery keeps its place behind call 1's; call 4 stages nothing but may
// report what call 1 logged, so it waits for the same sync, behind call 1
// and ahead of call 3. On the wall-clock runtimes the three held calls share
// one Append and one Sync, issued beside the loop: the parked sync also
// waits for a call injected meanwhile (8) to be handled and released. The
// simulator hands off per dispatch, so calls 1 and 4 ride the first commit
// and call 3 the second. Last, calls 5 (persisting) and 6 (volatile) are
// queued with the Sync failing: nothing held is released — call 5, and call
// 6's delivery behind it — what left ungated stays left, and call 7 never
// reaches Handle. Throughout: an entry's Append and Sync precede everything
// its call releases, sends precede deliveries, and on the simulator timers
// precede sends.
func TestShardContract(t *testing.T) {
	for i, rt := range shardRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			// The failing batch's Sync: the second on the wall-clock
			// runtimes, the third where calls 1 and 3 each had their own.
			failAt, syncOf3 := 2, 1
			if rt.virtual {
				failAt, syncOf3 = 3, 2
			}
			store := &flakyStore{failAt: failAt}
			c := startContract(t, i, store)
			defer c.h.stop()
			store.onSync = func(n int) {
				switch {
				case n == 1:
					c.await("send %d", 2)
					c.await("timer %d", 2)
					if !rt.virtual {
						c.h.inject(actorPID, volatile(8))
						c.await("send %d", 8) // its delivery waits behind call 1's
					}
				case n == failAt:
					c.await("send %d", 6) // a crash-stop closes tcpnet's link under it
					c.await("timer %d", 6)
				}
			}

			c.h.inject(actorPID, volatile(9))
			c.settle("the volatile call on the idle shard", c.allReleased(9))
			c.never("the call had no persist entries", "write %d", 1)
			// The healthy batch settles before the failing one: a crash-stop
			// also takes down what is still in flight (pending timers; on
			// tcpnet the whole node).
			c.queued(persisting(1), volatile(2), vouching(4), persisting(3))
			c.settle("the healthy batch", c.allReleased(1, 2, 3, 4))
			c.queued(persisting(5), volatile(6))
			c.settle("the failing sync", c.logged("sync %d", failAt))
			c.h.inject(actorPID, persisting(7))
			c.settle("the input after the crash-stop to drain", func() bool { return true })
			c.h.stop() // joins the runtime's goroutines: the log is final

			for _, e := range []string{"timer %d", "send %d"} {
				c.before(e, 2, "sync %d", 1)
			}
			if !rt.virtual {
				c.before("handle %d", 3, "write %d", 1)
				c.before("send %d", 8, "sync %d", 1)
			}
			// One Append per commit: the next one follows the first Sync.
			c.before("write %d", 1, "append %d", 1)
			c.before("sync %d", 1, "write %d", 2)
			c.before("append %d", 1, "sync %d", 1)
			c.before("append %d", 3, "sync %d", syncOf3)
			for k, sync := range map[int]int{1: 1, 4: 1, 3: syncOf3} {
				for _, e := range released {
					c.before("sync %d", sync, e, k)
				}
			}
			for _, k := range []int{9, 1, 2, 3, 4} {
				c.before("send %d", k, "marker %d", k)
				if rt.virtual {
					c.before("timer %d", k, "send %d", k)
				}
			}
			// Held calls keep their order; deliveries keep the call order.
			c.before("send %d", 1, "send %d", 4)
			c.before("send %d", 4, "send %d", 3)
			c.before("deliver %d", 1, "deliver %d", 2)
			c.before("deliver %d", 2, "deliver %d", 4)
			c.before("deliver %d", 4, "deliver %d", 3)

			c.before("append %d", 5, "sync %d", failAt)
			for _, e := range released {
				c.never("the batch's sync failed", e, 5)
			}
			c.never("it waits behind call 5's delivery, whose sync failed", "deliver %d", 6)
			c.never("the process had crash-stopped", "sync %d", failAt+1)
			c.never("the process had crash-stopped", "handle %d", 7)
		})
	}
}

// TestShardContractLazy pins what the driver does with entries no release
// waits for, on every runtime. A lazy-only call (9) and an AppLog (record
// 1) on an idle shard are released at once, the AppLog never shown to
// Handle, and their entries reach the store when the drain ends, with no
// Sync. Then calls 1 (eager), 2 (lazy), an AppLog (record 2) and call 3
// (eager, then lazy 103) are queued: the entries reach the store in exactly
// that order — on the wall-clock runtimes in one Append, under one Sync —
// and call 2, which vouches for nothing, does not wait for call 1's sync
// (the store parks it until call 2's send has left). An AppLog snapshot is
// appended behind the AppLog's record, as one more lazy entry: no Sync and
// no compaction is owed to it. Last, the Append that
// carries call 5's entry fails: the process crash-stops, nothing of call 5
// is released, no Sync follows, call 6 never reaches Handle.
func TestShardContractLazy(t *testing.T) {
	for i, rt := range shardRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			store := &flakyStore{failAppend: 5}
			c := startContract(t, i, store)
			defer c.h.stop()
			store.onSync = func(n int) {
				if n == 1 {
					c.await("send %d", 2)
				}
			}
			lastSync := 1 // of the mixed batch
			if rt.virtual {
				lastSync = 2
			}

			c.h.inject(actorPID, lazy(9))
			c.h.inject(actorPID, node.AppLog{Recs: [][]byte{{1}}})
			c.settle("the lazy call and the AppLog on the idle shard", func() bool {
				return c.allReleased(9)() && c.logged("append app %d", 1)()
			})
			c.before("append %d", 9, "append app %d", 1)
			c.never("only lazy entries were staged", "sync %d", 1)

			c.queued(persisting(1), lazy(2), node.AppLog{Recs: [][]byte{{2}}}, both(3))
			c.settle("the mixed batch", c.allReleased(1, 2, 3))
			c.h.inject(actorPID, node.AppLog{Recs: [][]byte{{3}}, Snapshot: []byte{4}})
			c.settle("the snapshot", c.logged("append snapshot %d", 4))
			c.h.inject(actorPID, persisting(5))
			c.settle("the failing append", c.logged("append %d", 5))
			c.h.inject(actorPID, volatile(6))
			c.settle("the input after the crash-stop to drain", func() bool { return true })
			c.h.stop() // joins the runtime's goroutines: the log is final

			c.before("append %d", 1, "append %d", 2)
			c.before("append %d", 2, "append app %d", 2)
			c.before("append app %d", 2, "append %d", 3)
			c.before("append %d", 3, "append %d", 103)
			c.before("send %d", 2, "sync %d", 1)
			c.before("sync %d", 1, "deliver %d", 2)
			if !rt.virtual {
				c.before("handle %d", 3, "append %d", 1)
			}
			c.before("append %d", 103, "sync %d", lastSync)
			for _, e := range released {
				c.before("sync %d", 1, e, 1)
				c.before("sync %d", lastSync, e, 3)
			}
			c.before("deliver %d", 1, "deliver %d", 2)
			c.before("deliver %d", 2, "deliver %d", 3)
			c.before("append app %d", 3, "append snapshot %d", 4)
			c.never("a snapshot is a lazy entry, and call 5's append failed", "sync %d", lastSync+1)
			for k := 0; k <= lastSync+1; k++ {
				c.never("the store compacts by its own rule", "compact %d", k)
			}
			c.never("Step consumes every AppLog itself", "handle applog %d", 1)
			for _, e := range released {
				c.never("the append of the call's entry failed", e, 5)
			}
			c.never("the process had crash-stopped", "handle %d", 6)
			c.never("the append before it failed", "sync %d", lastSync+2)
		})
	}
}

// TestShardContractNoStore: a Step without a store discards eager entries,
// lazy entries and AppLogs alike, holds and hands off nothing, and still
// keeps the AppLog from the handler.
func TestShardContractNoStore(t *testing.T) {
	handled := 0
	step := node.NewStep(node.Func{PID: actorPID, F: func(in node.Input, fx *node.Effects) {
		handled++
		fx.Persist(wal.Entry{Kind: wal.EntryBallot, Clock: 1})
		fx.PersistLazy(wal.Entry{Kind: wal.EntryBallot, Clock: 2})
		fx.Deliver(mcast.Delivery{})
	}}, nil)
	for _, in := range []node.Input{persisting(1), node.AppLog{Recs: [][]byte{{1}}, Snapshot: []byte{2}}} {
		rel, err := step.Do(in)
		_, isCall := in.(node.Submit)
		if err != nil || step.Handoff() != nil || (len(rel.Deliveries) == 1) != isCall {
			t.Errorf("Do(%T) = %d deliveries, %v, or something to hand off", in, len(rel.Deliveries), err)
		}
	}
	if handled != 1 {
		t.Errorf("Handle ran %d times, want 1 (the AppLog must not reach it)", handled)
	}
}
