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

// TestShardContract pins the shard driver's contract (docs/CONCURRENCY.md)
// on every runtime. The actor answers its k-th Submit with one persist
// entry, one timer, one send to the witness and one delivery, and the
// delivery callback injects a marker at the witness — so a send released
// before the delivery reaches the witness before the marker. The store
// fails its failAt-th Sync. Asserted: Append and Sync precede everything
// released by the same call; release order (sends before deliveries; on
// the simulator also timers before sends); nothing of the failing call is
// released; and the crash-stopped process handles no later input.
func TestShardContract(t *testing.T) {
	const failAt, extra = 3, 2
	for _, rt := range shardRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			log := &eventLog{}
			calls := uint64(0) // touched by the actor's serial Handle calls only
			actor := node.Func{PID: actorPID, F: func(in node.Input, fx *node.Effects) {
				switch in := in.(type) {
				case node.Submit:
					calls++
					log.add("handle %d", calls)
					fx.Persist(wal.Entry{Kind: wal.EntryBallot, Clock: calls})
					fx.SetTimer(0, node.TimerApp, calls)
					fx.Send(witnessPID, msgs.Heartbeat{Bal: mcast.Ballot{N: calls}})
					fx.Deliver(mcast.Delivery{GTS: mcast.Timestamp{Time: calls}})
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

			// The healthy calls settle first: a crash-stop also takes down what
			// is still in flight (pending timers; on tcpnet the whole node).
			for i := 1; i < failAt; i++ {
				h.inject(actorPID, node.Submit{})
			}
			released := []string{"timer %d", "send %d", "deliver %d", "marker %d"}
			settle("the calls before the failing sync", func() bool {
				for k := 1; k < failAt; k++ {
					for _, e := range released {
						if log.index(e, k) < 0 {
							return false
						}
					}
				}
				return true
			})
			h.inject(actorPID, node.Submit{})
			settle("the failing sync", func() bool { return log.index("sync %d", failAt) >= 0 })
			for i := 0; i < extra; i++ {
				h.inject(actorPID, node.Submit{})
			}
			settle("the inputs after the crash-stop to drain", func() bool { return true })
			h.stop() // joins the runtime's goroutines: the log is final

			before := func(a, b string, k int) {
				t.Helper()
				if ia, ib := log.index(a, k), log.index(b, k); ia < 0 || ib < 0 || ia > ib {
					t.Errorf("%q (at %d) must precede %q (at %d); log: %v",
						fmt.Sprintf(a, k), ia, fmt.Sprintf(b, k), ib, log)
				}
			}
			for k := 1; k < failAt; k++ {
				before("append %d", "sync %d", k)
				for _, e := range released {
					before("sync %d", e, k)
				}
				before("send %d", "marker %d", k)
				if rt.virtual {
					before("timer %d", "send %d", k)
				}
			}
			before("append %d", "sync %d", failAt)
			for _, e := range released {
				if i := log.index(e, failAt); i >= 0 {
					t.Errorf("%q was released although its sync failed; log: %v", fmt.Sprintf(e, failAt), log)
				}
			}
			if log.index("handle %d", failAt+1) >= 0 {
				t.Errorf("the crash-stopped process consumed another input; log: %v", log)
			}
		})
	}
}
