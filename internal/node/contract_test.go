package node_test

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"wbcast/internal/live"
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

// flakyStore logs every storage call and fails the failAt-th Sync.
type flakyStore struct {
	*wal.Memory
	log    *eventLog
	failAt int
	syncs  int
}

func (s *flakyStore) Append(entries ...wal.Entry) error {
	for _, e := range entries {
		s.log.add("append %d", e.Clock)
	}
	return s.Memory.Append(entries...)
}

func (s *flakyStore) Sync() error {
	s.syncs++
	s.log.add("sync %d", s.syncs)
	if s.syncs == s.failAt {
		return errors.New("injected sync failure")
	}
	return s.Memory.Sync()
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

// shardRuntimes hosts the same two handlers on each of the three runtimes.
// virtual marks the simulator, whose single event order also shows where
// a timer was armed relative to a send; on the wall-clock runtimes a
// timer's expiry races the send's arrival, so only its place after the
// sync is observable.
var shardRuntimes = []struct {
	name    string
	virtual bool
	start   func(t *testing.T, actor, witness node.Handler, st wal.Storage, onDeliver func(mcast.Delivery)) hosted
}{
	{"sim", true, func(t *testing.T, actor, witness node.Handler, st wal.Storage, onDeliver func(mcast.Delivery)) hosted {
		s := sim.New(sim.Config{
			Latency:   sim.Uniform(0),
			OnDeliver: func(_ mcast.ProcessID, d mcast.Delivery) { onDeliver(d) },
		})
		s.AddStored(actor, st)
		s.Add(witness)
		return hosted{
			inject: func(pid mcast.ProcessID, in node.Input) { s.Inject(s.Now(), pid, in) },
			idle:   func() bool { s.Run(s.Now() + time.Second); return true },
			stop:   func() {},
		}
	}},
	{"live", false, func(t *testing.T, actor, witness node.Handler, st wal.Storage, onDeliver func(mcast.Delivery)) hosted {
		n := live.New(live.Config{OnDeliver: func(_ mcast.ProcessID, d mcast.Delivery) { onDeliver(d) }})
		if err := errors.Join(n.AddStored(actor, st), n.Add(witness), n.Start()); err != nil {
			t.Fatal(err)
		}
		return hosted{
			inject: func(pid mcast.ProcessID, in node.Input) { _ = n.Inject(pid, in) }, // fails only after Close
			idle:   func() bool { return n.MailboxDepth(actorPID)+n.MailboxDepth(witnessPID) == 0 },
			stop:   n.Close,
		}
	}},
	{"tcpnet", false, func(t *testing.T, actor, witness node.Handler, st wal.Storage, onDeliver func(mcast.Delivery)) hosted {
		n, err := tcpnet.Serve(tcpnet.Config{ListenAddr: "127.0.0.1:0", Shards: []tcpnet.ShardConfig{
			{Handler: actor, Storage: st, OnDeliver: onDeliver},
			{Handler: witness},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return hosted{
			// A storage failure stops the node; injecting into it then
			// fails, which is also how idle recognises the crash-stop.
			inject: func(pid mcast.ProcessID, in node.Input) { _ = n.InjectTo(pid, in) },
			idle: func() bool {
				return n.MailboxDepth() == 0 || n.InjectTo(witnessPID, node.Start{}) != nil
			},
			stop: n.Close,
		}
	}},
}

// The actor's inputs: a Submit whose message ID is k is call k. A call
// without payload emits one persist entry, a call with one emits none; both
// emit one timer, one send to the witness and one delivery. ID 0 is the
// gate: its Handle call blocks until the test opens it, so whatever the
// test injects meanwhile is queued when the loop resumes.
func persisting(k int) node.Input {
	return node.Submit{Msg: mcast.AppMsg{ID: mcast.MsgID(k)}}
}

func volatile(k int) node.Input {
	return node.Submit{Msg: mcast.AppMsg{ID: mcast.MsgID(k), Payload: []byte{1}}}
}

// TestShardContract pins the shard driver's contract (docs/CONCURRENCY.md)
// on every runtime. The delivery callback injects a marker at the witness,
// so a send released before the delivery reaches the witness before the
// marker. Three phases: a volatile call on an idle shard (released without
// any Sync); calls 1 (persisting), 2 (volatile) and 3 (persisting) queued
// behind the gate (on the wall-clock runtimes one Sync, after all three
// Handle calls and before anything they release, in call order; the
// simulator commits per dispatch, so one Sync per persisting call); calls 5
// and 6 queued the same way with the Sync failing (nothing of either is
// released and call 7 never reaches Handle). Throughout: Append and Sync
// precede everything released by the same call, sends precede deliveries,
// and on the simulator timers precede sends.
func TestShardContract(t *testing.T) {
	for _, rt := range shardRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			// The second batch's Sync fails: the second Sync on the wall-clock
			// runtimes, the third where calls 1 and 3 each had their own.
			failAt := 2
			if rt.virtual {
				failAt = 3
			}
			log := &eventLog{}
			gate := make(chan struct{})
			actor := node.Func{PID: actorPID, F: func(in node.Input, fx *node.Effects) {
				switch in := in.(type) {
				case node.Submit:
					k := uint64(in.Msg.ID)
					if k == 0 {
						<-gate
						return
					}
					log.add("handle %d", k)
					if in.Msg.Payload == nil {
						fx.Persist(wal.Entry{Kind: wal.EntryBallot, Clock: k})
					}
					fx.SetTimer(0, node.TimerApp, k)
					fx.Send(witnessPID, msgs.Heartbeat{Bal: mcast.Ballot{N: k}})
					fx.Deliver(mcast.Delivery{GTS: mcast.Timestamp{Time: k}})
				case node.Timer:
					log.add("timer %d", in.Data)
				}
			}}
			witness := node.Func{PID: witnessPID, F: func(in node.Input, _ *node.Effects) {
				switch in := in.(type) {
				case node.Recv:
					log.add("send %d", in.Msg.(msgs.Heartbeat).Bal.N)
				case node.GCHorizon:
					log.add("marker %d", in.TS.Time)
				}
			}}
			var h hosted
			h = rt.start(t, actor, witness,
				&flakyStore{Memory: wal.NewMemory(), log: log, failAt: failAt},
				func(d mcast.Delivery) {
					log.add("deliver %d", d.GTS.Time)
					h.inject(witnessPID, node.GCHorizon{TS: d.GTS})
				})
			defer h.stop()
			settle := func(what string, done func() bool) {
				t.Helper()
				deadline := time.Now().Add(5 * time.Second)
				for !(h.idle() && done()) {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s; log: %v", what, log)
					}
					time.Sleep(time.Millisecond)
				}
			}
			released := []string{"timer %d", "send %d", "deliver %d", "marker %d"}
			allReleased := func(calls ...int) func() bool {
				return func() bool {
					for _, k := range calls {
						for _, e := range released {
							if log.index(e, k) < 0 {
								return false
							}
						}
					}
					return true
				}
			}
			// queued injects the inputs so that the loop finds them all in its
			// mailbox at once: behind a blocked gate call on the wall-clock
			// runtimes, at one instant on the simulator.
			queued := func(ins ...node.Input) {
				t.Helper()
				if !rt.virtual {
					h.inject(actorPID, persisting(0))
				}
				for _, in := range ins {
					h.inject(actorPID, in)
				}
				if !rt.virtual {
					select {
					case gate <- struct{}{}:
					case <-time.After(5 * time.Second):
						t.Fatalf("the gate input never reached Handle; log: %v", log)
					}
				}
			}

			h.inject(actorPID, volatile(9))
			settle("the volatile call on the idle shard", allReleased(9))
			if log.index("sync %d", 1) >= 0 {
				t.Errorf("a call without persist entries on an idle shard was synced; log: %v", log)
			}
			// The healthy batch settles before the failing one: a crash-stop
			// also takes down what is still in flight (pending timers; on
			// tcpnet the whole node).
			queued(persisting(1), volatile(2), persisting(3))
			settle("the healthy batch", allReleased(1, 2, 3))
			queued(persisting(5), volatile(6))
			settle("the failing sync", func() bool { return log.index("sync %d", failAt) >= 0 })
			h.inject(actorPID, persisting(7))
			settle("the input after the crash-stop to drain", func() bool { return true })
			h.stop() // joins the runtime's goroutines: the log is final

			before := func(a string, ka int, b string, kb int) {
				t.Helper()
				if ia, ib := log.index(a, ka), log.index(b, kb); ia < 0 || ib < 0 || ia > ib {
					t.Errorf("%q (at %d) must precede %q (at %d); log: %v",
						fmt.Sprintf(a, ka), ia, fmt.Sprintf(b, kb), ib, log)
				}
			}
			// Call 1 is covered by Sync 1; call 3 by the same Sync where the
			// batch formed, by Sync 2 on the simulator. Call 2 has no entries
			// but is queued behind call 1, whose Sync it waits for.
			syncOf := map[int]int{1: 1, 2: 1, 3: failAt - 1}
			if !rt.virtual {
				before("handle %d", 3, "sync %d", 1)
			}
			for _, k := range []int{1, 3} {
				before("append %d", k, "sync %d", syncOf[k])
			}
			for k, sync := range syncOf {
				for _, e := range released {
					before("sync %d", sync, e, k)
				}
			}
			for _, k := range []int{9, 1, 2, 3} {
				before("send %d", k, "marker %d", k)
				if rt.virtual {
					before("timer %d", k, "send %d", k)
				}
			}
			for _, e := range []string{"send %d", "deliver %d"} {
				before(e, 1, e, 2)
				before(e, 2, e, 3)
			}
			before("append %d", 5, "sync %d", failAt)
			for _, k := range []int{5, 6} {
				for _, e := range released {
					if i := log.index(e, k); i >= 0 {
						t.Errorf("%q was released although the batch's sync failed; log: %v", fmt.Sprintf(e, k), log)
					}
				}
			}
			if log.index("sync %d", failAt+1) >= 0 || log.index("handle %d", 7) >= 0 {
				t.Errorf("the crash-stopped process consumed another input; log: %v", log)
			}
		})
	}
}
