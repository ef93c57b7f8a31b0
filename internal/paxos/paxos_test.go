package paxos_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/paxos"
	"wbcast/internal/sim"
)

const delta = 10 * time.Millisecond

// pxNode wraps a paxos.Replica as a node.Handler and records applied
// commands.
type pxNode struct {
	pid     mcast.ProcessID
	px      *paxos.Replica
	applied []msgs.Command
	slots   []uint64
	led     int // number of OnLead callbacks
}

func (n *pxNode) ID() mcast.ProcessID { return n.pid }
func (n *pxNode) Handle(in node.Input, fx *node.Effects) {
	switch in := in.(type) {
	case node.Start:
		n.px.Start(fx)
	case node.Recv:
		n.px.HandleMessage(in.From, in.Msg, fx)
	case node.Timer:
		n.px.HandleTimer(in, fx)
	case node.Submit:
		// Tests submit commands through the leader node.
		n.px.Propose(msgs.Command{Op: msgs.CmdAssign, M: in.Msg}, fx)
	}
}

func (n *pxNode) Apply(slot uint64, cmd msgs.Command, leading bool, fx *node.Effects) {
	n.applied = append(n.applied, cmd)
	n.slots = append(n.slots, slot)
}

func buildGroup(t *testing.T, s *sim.Sim, size int, hb time.Duration, cold bool) []*pxNode {
	t.Helper()
	top := mcast.UniformTopology(1, size)
	nodes := make([]*pxNode, size)
	for i := 0; i < size; i++ {
		n := &pxNode{pid: mcast.ProcessID(i)}
		px, err := paxos.New(paxos.Config{
			PID: n.pid, Top: top,
			HeartbeatInterval: hb, ColdStart: cold,
			OnLead: func(fx *node.Effects) { n.led++ },
		}, n)
		if err != nil {
			t.Fatal(err)
		}
		n.px = px
		nodes[i] = n
		s.Add(n)
	}
	return nodes
}

func cmd(i uint32) mcast.AppMsg {
	return mcast.AppMsg{ID: mcast.MakeMsgID(100, i), Dest: mcast.NewGroupSet(0), Payload: []byte(fmt.Sprint(i))}
}

func forceCandidacy(s *sim.Sim, at time.Duration, pid mcast.ProcessID) {
	s.Inject(at, pid, node.Timer{Kind: node.TimerCandidacy, Data: 1})
}

func requireSamePrefix(t *testing.T, nodes []*pxNode, want int, skip map[mcast.ProcessID]bool) {
	t.Helper()
	var ref *pxNode
	for _, n := range nodes {
		if skip[n.pid] {
			continue
		}
		if len(n.applied) != want {
			t.Fatalf("p%d applied %d commands, want %d", n.pid, len(n.applied), want)
		}
		if ref == nil {
			ref = n
			continue
		}
		for i := range n.applied {
			if n.applied[i].M.ID != ref.applied[i].M.ID || n.applied[i].Op != ref.applied[i].Op {
				t.Fatalf("p%d disagrees with p%d at position %d", n.pid, ref.pid, i)
			}
		}
	}
}

func TestSteadyStateAgreement(t *testing.T) {
	s := sim.New(sim.Config{Latency: sim.Uniform(delta)})
	nodes := buildGroup(t, s, 3, 0, false)
	for i := uint32(1); i <= 10; i++ {
		s.SubmitAt(time.Duration(i)*time.Millisecond, 0, cmd(i))
	}
	s.Run(time.Second)
	if !nodes[0].px.Leading() {
		t.Fatal("initial leader lost leadership without faults")
	}
	requireSamePrefix(t, nodes, 10, nil)
	for _, n := range nodes {
		for i := range n.slots {
			if n.slots[i] != uint64(i) {
				t.Fatalf("p%d applied slot %d at position %d", n.pid, n.slots[i], i)
			}
		}
	}
}

func TestSingletonGroupImmediateChoice(t *testing.T) {
	s := sim.New(sim.Config{Latency: sim.Uniform(delta)})
	nodes := buildGroup(t, s, 1, 0, false)
	s.SubmitAt(0, 0, cmd(1))
	s.Run(time.Second)
	if len(nodes[0].applied) != 1 {
		t.Fatalf("applied = %d, want 1", len(nodes[0].applied))
	}
}

// TestLeaderChangeAdoptsAcceptedEntries: the leader proposes a command whose
// P2a reaches only one follower before the leader crashes; the new leader
// must adopt it during phase 1 and choose it, preserving agreement.
func TestLeaderChangeAdoptsAcceptedEntries(t *testing.T) {
	block := true
	lat := func(_, to mcast.ProcessID, m msgs.Message, _ time.Duration, _ *rand.Rand) time.Duration {
		if _, ok := m.(msgs.P2a); ok && block && to == 2 {
			return time.Hour
		}
		return delta
	}
	s := sim.New(sim.Config{Latency: lat})
	nodes := buildGroup(t, s, 3, 0, false)
	s.SubmitAt(0, 0, cmd(1)) // P2a reaches p1 only; p0 has its own accept
	s.Run(25 * time.Millisecond)
	s.Crash(0)
	block = false
	forceCandidacy(s, 30*time.Millisecond, 1)
	s.Run(time.Second)
	if !nodes[1].px.Leading() {
		t.Fatal("p1 did not take over")
	}
	if nodes[1].led != 1 {
		t.Fatalf("OnLead fired %d times at p1, want 1", nodes[1].led)
	}
	// p1 and p2 must both apply cmd(1) at slot 0.
	requireSamePrefix(t, nodes, 1, map[mcast.ProcessID]bool{0: true})
	if nodes[1].applied[0].M.ID != cmd(1).ID {
		t.Fatal("adopted command lost")
	}
}

// TestLeaderChangeFillsHoles drives a candidate directly with crafted P1b
// messages reporting slot 1 accepted but slot 0 unknown — a history that
// per-link FIFO channels cannot produce, but that general Paxos must handle:
// the new leader fills slot 0 with a no-op (which is never applied) and
// re-proposes slot 1.
func TestLeaderChangeFillsHoles(t *testing.T) {
	top := mcast.UniformTopology(1, 3)
	n := &pxNode{pid: 1}
	px, err := paxos.New(paxos.Config{PID: 1, Top: top, ColdStart: true}, n)
	if err != nil {
		t.Fatal(err)
	}
	n.px = px
	var fx node.Effects
	b := mcast.Ballot{N: 1, Proc: 1}
	oldBal := mcast.Ballot{N: 1, Proc: 0}
	surviving := msgs.Command{Op: msgs.CmdAssign, M: cmd(7), LTS: mcast.Timestamp{Time: 1}}

	px.HandleTimer(node.Timer{Kind: node.TimerCandidacy, Data: 1}, &fx) // P1a broadcast
	px.HandleMessage(1, msgs.P1a{Group: 0, Bal: b}, &fx)                // own promise
	px.HandleMessage(1, msgs.P1b{Group: 0, Bal: b}, &fx)                // own empty vote
	px.HandleMessage(2, msgs.P1b{Group: 0, Bal: b, Entries: []msgs.P1bEntry{
		{Slot: 1, VBal: oldBal, Cmd: surviving},
	}}, &fx)
	if !px.Leading() {
		t.Fatal("candidate did not take over after a quorum of P1bs")
	}
	// Quorum acceptance for both re-proposed slots.
	px.HandleMessage(2, msgs.P2b{Group: 0, Bal: b, Slot: 0}, &fx)
	px.HandleMessage(2, msgs.P2b{Group: 0, Bal: b, Slot: 1}, &fx)

	if len(n.applied) != 1 {
		t.Fatalf("applied %d commands, want 1 (the no-op must be skipped)", len(n.applied))
	}
	if n.applied[0].M.ID != cmd(7).ID {
		t.Fatal("surviving command lost")
	}
	if n.slots[0] != 1 {
		t.Fatalf("surviving command applied at slot %d, want 1", n.slots[0])
	}
	if px.Executed() != 2 {
		t.Fatalf("executed = %d, want 2", px.Executed())
	}
}

// TestAutomaticFailoverWithHeartbeats: full liveness stack, no manual help.
func TestAutomaticFailoverWithHeartbeats(t *testing.T) {
	s := sim.New(sim.Config{Latency: sim.Uniform(delta)})
	nodes := buildGroup(t, s, 3, 5*delta, false)
	for i := uint32(1); i <= 5; i++ {
		s.SubmitAt(time.Duration(i)*time.Millisecond, 0, cmd(i))
	}
	s.Run(200 * time.Millisecond)
	s.Crash(0)
	s.Run(5 * time.Second)
	leaders := 0
	var leader *pxNode
	for _, n := range nodes[1:] {
		if n.px.Leading() {
			leaders++
			leader = n
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders after failover = %d, want 1", leaders)
	}
	// The new leader can still commit.
	s.SubmitAt(s.Now(), leader.pid, cmd(6))
	s.Run(s.Now() + time.Second)
	requireSamePrefix(t, nodes, 6, map[mcast.ProcessID]bool{0: true})
}

// TestSuspicionIsOneTimeout: the black-box protocols' detector is the
// white-box one (node.Suspicion). The rank-1 follower campaigns exactly
// SuspectTimeout + HeartbeatInterval/2 after the last heartbeat it received
// and leads one phase-1 round trip later; rank 2 never campaigns.
func TestSuspicionIsOneTimeout(t *testing.T) {
	const hb = 5 * delta // SuspectTimeout defaults to 4×hb
	s := sim.New(sim.Config{Latency: sim.Uniform(delta)})
	nodes := buildGroup(t, s, 3, hb, false)
	s.Run(4 * hb) // the heartbeat of 4×hb is on its way
	s.Crash(0)
	lead := (4*hb + delta) + 4*hb + hb/2 + 2*delta
	s.Run(lead - 1)
	if nodes[1].px.Leading() {
		t.Fatalf("p1 leads before %v", lead)
	}
	s.Run(lead)
	if !nodes[1].px.Leading() || nodes[1].led != 1 {
		t.Fatalf("p1 does not lead at %v: last heartbeat + SuspectTimeout + HeartbeatInterval/2 + 2δ", lead)
	}
	s.Run(lead + 20*hb)
	if nodes[2].px.Leading() || nodes[2].led != 0 || nodes[1].led != 1 {
		t.Errorf("after the take-over: p2 led %d times, p1 %d times; want 0 and 1", nodes[2].led, nodes[1].led)
	}
}

// TestColdStartElectsLeader: with ColdStart the heartbeat machinery must
// elect exactly one leader.
func TestColdStartElectsLeader(t *testing.T) {
	s := sim.New(sim.Config{Latency: sim.Uniform(delta)})
	nodes := buildGroup(t, s, 3, 5*delta, true)
	s.Run(5 * time.Second)
	leaders := 0
	for _, n := range nodes {
		if n.px.Leading() {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want 1", leaders)
	}
}

// TestDuelingCandidatesConverge: two simultaneous candidacies must resolve
// to a single leader (ballot order + backoff).
func TestDuelingCandidatesConverge(t *testing.T) {
	s := sim.New(sim.Config{Latency: sim.Uniform(delta)})
	nodes := buildGroup(t, s, 3, 5*delta, false)
	s.Run(50 * time.Millisecond)
	s.Crash(0)
	forceCandidacy(s, 60*time.Millisecond, 1)
	forceCandidacy(s, 60*time.Millisecond, 2)
	s.Run(10 * time.Second)
	leaders := 0
	for _, n := range nodes[1:] {
		if n.px.Leading() {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want 1", leaders)
	}
	// And the log still works end to end.
	for _, n := range nodes[1:] {
		if n.px.Leading() {
			s.SubmitAt(s.Now(), n.pid, cmd(9))
		}
	}
	s.Run(s.Now() + time.Second)
	requireSamePrefix(t, nodes, 1, map[mcast.ProcessID]bool{0: true})
}
