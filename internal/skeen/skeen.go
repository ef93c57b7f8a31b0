package skeen

import (
	"fmt"

	"wbcast/internal/batch"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/ordering"
)

// Node is the Skeen process of one singleton group. It implements
// node.Handler.
type Node struct {
	pid   mcast.ProcessID
	group mcast.GroupID
	top   *mcast.Topology

	clock uint64 // Fig. 1 line 1
	state map[mcast.MsgID]*mstate
	queue *ordering.Queue
}

// mstate is the per-message state: Phase, LocalTS, GlobalTS and Delivered of
// Fig. 1, plus the set of received PROPOSE timestamps.
type mstate struct {
	app       mcast.AppMsg
	havApp    bool
	phase     msgs.Phase
	lts       mcast.Timestamp
	gts       mcast.Timestamp
	delivered bool
	proposals map[mcast.GroupID]mcast.Timestamp
}

// New constructs the Skeen node for process pid. The topology must consist
// of singleton groups.
func New(pid mcast.ProcessID, top *mcast.Topology) (*Node, error) {
	g := top.GroupOf(pid)
	if g == mcast.NoGroup {
		return nil, fmt.Errorf("skeen: process %d is not in any group", pid)
	}
	if top.GroupSize(g) != 1 {
		return nil, fmt.Errorf("skeen: group %d has %d members; Skeen's protocol requires singleton groups", g, top.GroupSize(g))
	}
	return &Node{
		pid:   pid,
		group: g,
		top:   top,
		state: make(map[mcast.MsgID]*mstate),
		queue: ordering.NewQueue(),
	}, nil
}

// ID implements node.Handler.
func (n *Node) ID() mcast.ProcessID { return n.pid }

// Clock exposes the logical clock for tests.
func (n *Node) Clock() uint64 { return n.clock }

// Phase exposes a message's phase for tests.
func (n *Node) Phase(id mcast.MsgID) msgs.Phase {
	if st, ok := n.state[id]; ok {
		return st.phase
	}
	return msgs.PhaseStart
}

// Handle implements node.Handler.
func (n *Node) Handle(in node.Input, fx *node.Effects) {
	rcv, ok := in.(node.Recv)
	if !ok {
		return
	}
	switch m := rcv.Msg.(type) {
	case msgs.Multicast:
		n.onMulticast(m.M, fx)
	case msgs.Propose:
		n.onPropose(m, fx)
	}
}

// onMulticast handles Fig. 1 lines 8–12.
func (n *Node) onMulticast(app mcast.AppMsg, fx *node.Effects) {
	st := n.get(app.ID)
	if !st.havApp {
		st.app = app
		st.havApp = true
	}
	if st.phase == msgs.PhaseStart {
		n.clock++                                               // line 9
		st.lts = mcast.Timestamp{Time: n.clock, Group: n.group} // line 10
		st.phase = msgs.PhaseProposed                           // line 11
		n.queue.SetPending(app.ID, st.lts)
	}
	// line 12: send PROPOSE to every destination process (including self,
	// for uniformity) as one fan-out. On duplicate MULTICAST this re-sends
	// the stored proposal, which is idempotent.
	fx.SendGroups(n.top, st.app.Dest, msgs.Propose{ID: app.ID, Group: n.group, LTS: st.lts})
	n.maybeCommit(st, fx)
}

// onPropose handles Fig. 1 lines 13–16.
func (n *Node) onPropose(p msgs.Propose, fx *node.Effects) {
	st := n.get(p.ID)
	if st.proposals == nil {
		st.proposals = make(map[mcast.GroupID]mcast.Timestamp)
	}
	st.proposals[p.Group] = p.LTS
	n.maybeCommit(st, fx)
}

// maybeCommit fires the "received PROPOSE for every g ∈ dest(m)" guard. It
// requires the application message itself (for dest(m)) and the local phase
// to be at least PROPOSED, i.e. our own MULTICAST processing happened — a
// remote PROPOSE can overtake the client's MULTICAST under jittery links.
func (n *Node) maybeCommit(st *mstate, fx *node.Effects) {
	if !st.havApp || st.phase != msgs.PhaseProposed {
		return
	}
	for _, g := range st.app.Dest {
		if _, ok := st.proposals[g]; !ok {
			return
		}
	}
	// Lines 14–16.
	var all []mcast.Timestamp
	for _, ts := range st.proposals {
		all = append(all, ts)
	}
	st.gts = mcast.MaxTimestamp(all...)
	if n.clock < st.gts.Time {
		n.clock = st.gts.Time // line 15
	}
	st.phase = msgs.PhaseCommitted // line 16
	n.queue.Commit(st.app.ID, st.gts)
	n.drain(fx)
}

// drain delivers every message allowed by the delivery rule (Fig. 1
// lines 17–19), in global-timestamp order.
func (n *Node) drain(fx *node.Effects) {
	for {
		id, gts, ok := n.queue.PopDeliverable()
		if !ok {
			return
		}
		st := n.state[id]
		st.delivered = true
		batch.ExpandInto(fx, mcast.Delivery{Msg: st.app, GTS: gts})
		fx.Send(id.Sender(), msgs.ClientReply{ID: id, Group: n.group})
	}
}

func (n *Node) get(id mcast.MsgID) *mstate {
	st, ok := n.state[id]
	if !ok {
		st = &mstate{}
		n.state[id] = st
	}
	return st
}

var _ node.Handler = (*Node)(nil)
