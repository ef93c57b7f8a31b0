package check

import (
	"fmt"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/sim"
)

// WbAudit observes the white-box protocol's traffic (via the simulator's
// trace hook) and checks the communication-level invariants of paper Fig. 6
// that are expressible over messages:
//
//	Invariant 1:  ACCEPT(m, g, b, lts) carries one lts per (m, g, b).
//	Invariant 3a: DELIVER(m, _, lts, _) to the same group carries one lts.
//	Invariant 3b: DELIVER(m, _, _, gts) carries one gts anywhere.
//	Invariant 4:  distinct messages never share a gts.
type WbAudit struct {
	top        *mcast.Topology
	acceptLTS  map[acceptKey]mcast.Timestamp
	deliverLTS map[deliverKey]mcast.Timestamp
	deliverGTS map[mcast.MsgID]mcast.Timestamp
	gtsOwner   map[mcast.Timestamp]mcast.MsgID
	errs       errList
	accepts    int
	delivers   int
}

type acceptKey struct {
	id    mcast.MsgID
	group mcast.GroupID
	bal   mcast.Ballot
}

type deliverKey struct {
	id    mcast.MsgID
	group mcast.GroupID
}

// NewWbAudit builds an auditor for the given topology.
func NewWbAudit(top *mcast.Topology) *WbAudit {
	return &WbAudit{
		top:        top,
		acceptLTS:  make(map[acceptKey]mcast.Timestamp),
		deliverLTS: make(map[deliverKey]mcast.Timestamp),
		deliverGTS: make(map[mcast.MsgID]mcast.Timestamp),
		gtsOwner:   make(map[mcast.Timestamp]mcast.MsgID),
	}
}

// Trace is a sim.Config.Trace hook.
func (a *WbAudit) Trace(ev sim.TraceEvent) {
	rcv, ok := ev.In.(node.Recv)
	if !ok {
		return
	}
	switch m := rcv.Msg.(type) {
	case msgs.Accept:
		a.accepts++
		if prev, _ := record(a.acceptLTS, acceptKey{id: m.M.ID, group: m.Group, bal: m.Bal}, m.LTS); prev != m.LTS {
			a.errs.add(fmt.Errorf(
				"invariant 1: ACCEPT(%v, g%d, %v) carried lts %v and %v", m.M.ID, m.Group, m.Bal, prev, m.LTS))
		}
	case msgs.Deliver:
		a.delivers++
		g := a.top.GroupOf(ev.Proc)
		if prev, _ := record(a.deliverLTS, deliverKey{id: m.ID, group: g}, m.LTS); prev != m.LTS {
			a.errs.add(fmt.Errorf(
				"invariant 3a: DELIVER(%v) to group %d carried lts %v and %v", m.ID, g, prev, m.LTS))
		}
		if prev, fresh := record(a.deliverGTS, m.ID, m.GTS); prev != m.GTS {
			a.errs.add(fmt.Errorf(
				"invariant 3b: DELIVER(%v) carried gts %v and %v", m.ID, prev, m.GTS))
		} else if fresh {
			if other, clash := a.gtsOwner[m.GTS]; clash && other != m.ID {
				a.errs.add(fmt.Errorf(
					"invariant 4: %v and %v share gts %v", m.ID, other, m.GTS))
			}
			a.gtsOwner[m.GTS] = m.ID
		}
	}
}

// record stores v under k unless k holds a value already, and returns what
// k holds and whether it was stored now.
func record[K, V comparable](seen map[K]V, k K, v V) (held V, stored bool) {
	if held, ok := seen[k]; ok {
		return held, false
	}
	seen[k] = v
	return v, true
}

// Errors returns all invariant violations observed so far.
func (a *WbAudit) Errors() []error { return a.errs }

// Counts returns how many ACCEPT and DELIVER receptions were audited.
func (a *WbAudit) Counts() (accepts, delivers int) { return a.accepts, a.delivers }
