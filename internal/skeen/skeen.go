package skeen

import (
	"fmt"
	"slices"

	"wbcast/internal/batch"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/rsm"
)

// Node is the Skeen process of one singleton group: the Fig. 1 machine
// (rsm.Machine) driven by MULTICAST and PROPOSE messages. It implements
// node.Handler.
type Node struct {
	pid   mcast.ProcessID
	group mcast.GroupID
	top   *mcast.Topology
	sm    *rsm.Machine
	// proposals holds the PROPOSE timestamps received for each message not
	// yet committed.
	proposals map[mcast.MsgID][]msgs.GroupTS
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
	return &Node{pid: pid, group: g, top: top, sm: rsm.New(g), proposals: make(map[mcast.MsgID][]msgs.GroupTS)}, nil
}

// ID implements node.Handler.
func (n *Node) ID() mcast.ProcessID { return n.pid }

// Handle implements node.Handler.
func (n *Node) Handle(in node.Input, fx *node.Effects) {
	rcv, ok := in.(node.Recv)
	if !ok {
		return
	}
	switch m := rcv.Msg.(type) {
	case msgs.Multicast:
		// Lines 8–12: assign a local timestamp and send PROPOSE to every
		// destination process, self included, as one fan-out. A duplicate
		// MULTICAST re-sends the stored proposal, which is idempotent.
		lts, _ := n.sm.ApplyAssignClock(m.M)
		fx.SendGroups(n.top, m.M.Dest, msgs.Propose{ID: m.M.ID, Group: n.group, LTS: lts})
		n.maybeCommit(m.M, fx)
	case msgs.Propose:
		if n.sm.Phase(m.ID) == msgs.PhaseCommitted {
			return // a re-sent PROPOSE of a committed message
		}
		n.proposals[m.ID] = append(n.proposals[m.ID], msgs.GroupTS{Group: m.Group, TS: m.LTS})
		if app, ok := n.sm.App(m.ID); ok {
			n.maybeCommit(app, fx)
		}
	}
}

// maybeCommit fires the "received PROPOSE for every g ∈ dest(m)" guard
// (lines 13–16), then delivers what the delivery rule allows (lines 17–19).
// It needs the local phase PROPOSED, i.e. our own MULTICAST processing: a
// remote PROPOSE can overtake the client's MULTICAST under jittery links.
func (n *Node) maybeCommit(app mcast.AppMsg, fx *node.Effects) {
	if n.sm.Phase(app.ID) != msgs.PhaseProposed {
		return
	}
	ltss := n.proposals[app.ID]
	for _, g := range app.Dest {
		if !slices.ContainsFunc(ltss, func(t msgs.GroupTS) bool { return t.Group == g }) {
			return
		}
	}
	delete(n.proposals, app.ID)
	n.sm.ApplyCommit(app.ID, ltss)
	for d, ok := n.sm.Deliver(); ok; d, ok = n.sm.Deliver() {
		batch.ExpandInto(fx, d)
		fx.Send(d.Msg.ID.Sender(), msgs.ClientReply{ID: d.Msg.ID, Group: n.group})
	}
}

var _ node.Handler = (*Node)(nil)
