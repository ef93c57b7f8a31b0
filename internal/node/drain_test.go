package node_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	"wbcast/internal/batch"
	"wbcast/internal/client"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/sim"
	"wbcast/internal/tcpnet"
	"wbcast/internal/wire"
)

// The envelope contract: what one drain of a client's mailbox submitted
// leaves, from the end-of-drain call every runtime makes (Step.EndDrain), as
// one MULTICAST per destination set — a lone submission as itself — and a
// retry or a leader change re-sends that MULTICAST whole.

const clientPID = mcast.ProcessID(100)

// reception is one MULTICAST a fake replica received, in wire form.
type reception struct {
	id    mcast.MsgID
	bytes string
}

// replyMode is how a fake replica answers a MULTICAST.
type replyMode int

const (
	answer    replyMode = iota // a ClientReply each time
	dropFirst                  // nothing the first time an ID arrives
	deposed                    // a ClientReplies naming p2 group 0's leader, answering nothing
)

// drainRun is one runtime hosting the client and three fake replicas: p0
// leads group 0 and p1 group 1 at first, p2 is group 0's next leader.
type drainRun struct {
	t      *testing.T
	cl     *client.Client
	queue  func(ms []mcast.AppMsg)
	settle func() // the simulator runs a second of virtual time; the others wait
	stop   func()

	mu        sync.Mutex
	got       map[mcast.ProcessID][]reception
	completed map[mcast.MsgID]int
}

// gatedClient blocks its loop on a GCHorizon input until the test opens the
// gate, so that what the test injects meanwhile is consumed in one drain.
type gatedClient struct {
	*client.Client
	gate chan struct{}
}

func (g gatedClient) Handle(in node.Input, fx *node.Effects) {
	if _, ok := in.(node.GCHorizon); ok {
		<-g.gate
		return
	}
	g.Client.Handle(in, fx)
}

// drainRuntimes start a drainRun's processes on each runtime and make queue
// hand the client a drain of submissions: a burst on the simulator, the
// submissions queued behind a gate input on the wall-clock runtimes.
var drainRuntimes = []struct {
	name  string
	start func(r *drainRun, g gatedClient, replicas []node.Handler)
}{
	{"sim", func(r *drainRun, g gatedClient, replicas []node.Handler) {
		s := sim.New(sim.Config{Latency: sim.Uniform(time.Millisecond)})
		s.Add(g)
		for _, h := range replicas {
			s.Add(h)
		}
		r.queue = func(ms []mcast.AppMsg) { s.SubmitBurst(s.Now(), clientPID, ms) }
		r.settle = func() { s.Run(s.Now() + time.Second) }
		r.stop = func() {}
	}},
	{"live", func(r *drainRun, g gatedClient, replicas []node.Handler) {
		cfgs := []tcpnet.Config{{Handler: g}}
		for _, h := range replicas {
			cfgs = append(cfgs, tcpnet.Config{Handler: h})
		}
		ns := inMemory(r.t, cfgs...)
		r.queue = func(ms []mcast.AppMsg) {
			_ = ns[clientPID].Inject(node.GCHorizon{}) // fails only after Close
			for _, m := range ms {
				_ = ns[clientPID].Inject(node.Submit{Msg: m})
			}
			g.gate <- struct{}{}
		}
		r.settle = func() { time.Sleep(time.Millisecond) }
		r.stop = func() {
			for _, n := range ns {
				n.Close()
			}
		}
	}},
	{"tcpnet", func(r *drainRun, g gatedClient, replicas []node.Handler) {
		var nodes []*tcpnet.Node
		r.stop = func() {
			for _, n := range nodes {
				n.Close()
			}
		}
		for _, h := range append([]node.Handler{g}, replicas...) {
			n, err := tcpnet.Serve(tcpnet.Config{PID: h.ID(), ListenAddr: "127.0.0.1:0", Handler: h})
			if err != nil {
				r.stop()
				r.t.Fatal(err)
			}
			nodes = append(nodes, n)
		}
		for i, a := range nodes {
			for j, b := range nodes {
				if i != j {
					a.SetPeer(append([]node.Handler{g}, replicas...)[j].ID(), b.Addr().String())
				}
			}
		}
		r.queue = func(ms []mcast.AppMsg) {
			_ = nodes[0].Inject(node.GCHorizon{}) // fails only after Close
			for _, m := range ms {
				_ = nodes[0].Inject(node.Submit{Msg: m})
			}
			g.gate <- struct{}{}
		}
		r.settle = func() { time.Sleep(time.Millisecond) }
	}},
}

// startDrain hosts the client, retrying after retry (zero: never), and
// replicas p0, p1, p2 answering in the given modes.
func startDrain(t *testing.T, rt int, retry time.Duration, modes [3]replyMode) *drainRun {
	r := &drainRun{t: t, got: make(map[mcast.ProcessID][]reception), completed: make(map[mcast.MsgID]int)}
	r.cl = client.New(client.Config{
		PID:      clientPID,
		Contacts: func(g mcast.GroupID) []mcast.ProcessID { return []mcast.ProcessID{mcast.ProcessID(g)} },
		Retry:    retry,
		OnComplete: func(id mcast.MsgID) {
			r.mu.Lock()
			r.completed[id]++
			r.mu.Unlock()
		},
	})
	var replicas []node.Handler
	for pid, g := range []mcast.GroupID{0, 1, 0} {
		replicas = append(replicas, r.replica(mcast.ProcessID(pid), g, modes[pid]))
	}
	drainRuntimes[rt].start(r, gatedClient{Client: r.cl, gate: make(chan struct{})}, replicas)
	return r
}

func (r *drainRun) replica(pid mcast.ProcessID, g mcast.GroupID, mode replyMode) node.Handler {
	seen := make(map[mcast.MsgID]bool)
	return node.Func{PID: pid, F: func(in node.Input, fx *node.Effects) {
		rcv, ok := in.(node.Recv)
		if !ok {
			return
		}
		mc, ok := rcv.Msg.(msgs.Multicast)
		if !ok {
			return
		}
		b, _ := wire.Encode(nil, mc) // it decoded, so it encodes
		r.mu.Lock()
		r.got[pid] = append(r.got[pid], reception{mc.M.ID, string(b)})
		r.mu.Unlock()
		first := !seen[mc.M.ID]
		seen[mc.M.ID] = true
		switch {
		case mode == deposed:
			fx.Send(rcv.From, msgs.ClientReplies{Group: g, Bal: mcast.Ballot{N: 2, Proc: 2}})
		case mode == dropFirst && first:
		default:
			fx.Send(rcv.From, msgs.ClientReply{ID: mc.M.ID, Group: g})
		}
	}}
}

// await settles the run until every submission has completed and cond
// holds, then stops it: what it recorded is final.
func (r *drainRun) await(ms []mcast.AppMsg, cond func() bool) {
	r.t.Helper()
	done := func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, m := range ms {
			if r.completed[m.ID] == 0 {
				return false
			}
		}
		return cond()
	}
	for deadline := time.Now().Add(5 * time.Second); !done(); r.settle() {
		if time.Now().After(deadline) {
			r.stop()
			r.t.Fatalf("timed out; received %v, completed %v", r.got, r.completed)
		}
	}
	r.stop()
	for _, m := range ms {
		if n := r.completed[m.ID]; n != 1 {
			r.t.Errorf("%v completed %d times, want once", m.ID, n)
		}
	}
}

// submissions builds the test's submissions, one per destination set given.
func submissions(dests ...mcast.GroupSet) []mcast.AppMsg {
	ms := make([]mcast.AppMsg, len(dests))
	for i, d := range dests {
		ms[i] = mcast.AppMsg{ID: mcast.MakeMsgID(clientPID, uint32(i+1)), Dest: d, Payload: []byte{byte(i), 'p'}}
	}
	return ms
}

// envelope checks that rec is an envelope to dest carrying exactly ms, in
// order, byte for byte.
func envelope(t *testing.T, rec reception, dest mcast.GroupSet, ms ...mcast.AppMsg) {
	t.Helper()
	m, err := wire.DecodeBorrowed([]byte(rec.bytes))
	if err != nil {
		t.Fatal(err)
	}
	env := m.(msgs.Multicast).M
	entries, err := batch.DecodePayload(env.Payload)
	if !mcast.IsBatchID(env.ID) || err != nil || !env.Dest.Equal(dest) || len(entries) != len(ms) {
		t.Fatalf("got %v to %v with %d entries (%v), want an envelope to %v of %d", env.ID, env.Dest, len(entries), err, dest, len(ms))
	}
	for i, e := range entries {
		if e.ID != ms[i].ID || string(e.Payload) != string(ms[i].Payload) {
			t.Errorf("entry %d is %v %q, want %v %q", i, e.ID, e.Payload, ms[i].ID, ms[i].Payload)
		}
	}
}

var (
	to0  = mcast.NewGroupSet(0)
	to01 = mcast.NewGroupSet(0, 1)
)

// TestEnvelopeContract pins the contract on every runtime. A drain holding
// one submission sends exactly the submitted message. A drain holding
// submissions to {0} and {0,1}, interleaved, sends one envelope per
// destination set, and each payload completes exactly once. With every first
// reply to an envelope dropped, the retry re-sends the same bytes, never a
// subset. A reply naming a new leader of group 0 makes the client re-send the
// whole envelope to it (noteBallot), with no retry timer armed.
func TestEnvelopeContract(t *testing.T) {
	for i, rt := range drainRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			t.Run("lone", func(t *testing.T) {
				r := startDrain(t, i, 0, [3]replyMode{})
				ms := submissions(to0)
				r.queue(ms)
				r.await(ms, func() bool { return true })
				want, _ := wire.Encode(nil, msgs.Multicast{M: ms[0]})
				if got := r.got[0]; len(got) != 1 || got[0] != (reception{ms[0].ID, string(want)}) {
					t.Errorf("p0 received %v, want the submitted message %v alone", got, ms[0].ID)
				}
				if n := r.cl.BatchesSent(); n != 1 {
					t.Errorf("BatchesSent = %d, want 1", n)
				}
			})
			t.Run("envelopes", func(t *testing.T) {
				r := startDrain(t, i, 0, [3]replyMode{})
				ms := submissions(to0, to01, to0, to01, to0)
				r.queue(ms)
				r.await(ms, func() bool { return true })
				if got := r.got[0]; len(got) != 2 {
					t.Fatalf("p0 received %d multicasts, want 2", len(got))
				}
				envelope(t, r.got[0][0], to0, ms[0], ms[2], ms[4])
				envelope(t, r.got[0][1], to01, ms[1], ms[3])
				if got := r.got[1]; len(got) != 1 || got[0] != r.got[0][1] {
					t.Errorf("p1 received %v, want the {0,1} envelope p0 received", got)
				}
				if n := r.cl.BatchesSent(); n != 2 {
					t.Errorf("BatchesSent = %d, want 2", n)
				}
			})
			t.Run("retry", func(t *testing.T) {
				r := startDrain(t, i, 20*time.Millisecond, [3]replyMode{dropFirst, dropFirst})
				ms := submissions(to0, to01, to0, to01)
				r.queue(ms)
				r.await(ms, func() bool { return len(r.got[0]) >= 4 && len(r.got[1]) >= 2 })
				for pid, want := range map[mcast.ProcessID][]reception{0: r.got[0][:2], 1: r.got[1][:1]} {
					for _, rec := range r.got[pid][len(want):] {
						if !slices.Contains(want, rec) {
							t.Errorf("p%d: a re-send differs from every first send: %v", pid, rec)
						}
					}
				}
				envelope(t, r.got[0][0], to0, ms[0], ms[2])
				envelope(t, r.got[1][0], to01, ms[1], ms[3])
			})
			t.Run("leader change", func(t *testing.T) {
				r := startDrain(t, i, 0, [3]replyMode{deposed, answer, answer})
				ms := submissions(to01, to01)
				r.queue(ms)
				r.await(ms, func() bool { return true })
				if len(r.got[0]) != 1 || len(r.got[2]) != 1 || r.got[2][0] != r.got[0][0] {
					t.Fatalf("p0 received %v, p2 %v: want the one envelope at each", r.got[0], r.got[2])
				}
				envelope(t, r.got[2][0], to01, ms...)
			})
		})
	}
}
