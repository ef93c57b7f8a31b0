package blackbox

import (
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/paxos"
)

var ftskeenVariant = variant{"ftskeen", func(r *Replica, _ *paxos.Config) strategy {
	return &ftskeen{r: r, assigning: make(map[mcast.MsgID]bool)}
}}

// ftskeen is the classical strategy: both of Skeen's actions are log
// commands, the local timestamp exists only once its command applied, a
// committed vector is final, and every replica delivers from the log.
type ftskeen struct {
	r *Replica
	// assigning marks messages whose CmdAssign is in consensus.
	assigning map[mcast.MsgID]bool
}

// assign persists a local timestamp through consensus before anything is
// announced. The timestamp itself is computed inside the state machine when
// the command applies (Fig. 1 line 9), so it is always above every
// previously committed global timestamp — the property the delivery rule
// relies on.
func (s *ftskeen) assign(app mcast.AppMsg, fx *node.Effects) {
	r := s.r
	s.assigning[app.ID] = true
	if r.obs != nil {
		r.obs.Begin(app.ID, r.stageAt(app.ID))
	}
	r.px.Propose(msgs.Command{Op: msgs.CmdAssign, M: app}, fx)
}

func (s *ftskeen) announce(id mcast.MsgID, dest mcast.GroupSet, blanket bool, fx *node.Effects) bool {
	lts, ok := s.r.sm.LTS(id)
	if !ok {
		return s.assigning[id] // nothing to send yet, but consensus is running
	}
	s.r.sendLeaders(dest, blanket, msgs.Propose{ID: id, Group: s.r.group, LTS: lts}, fx)
	return true
}

func (s *ftskeen) applied(cmd msgs.Command, leading bool, fx *node.Effects) {
	r := s.r
	if cmd.Op == msgs.CmdCommit {
		s.drain(fx)
		return
	}
	id := cmd.M.ID
	_, fresh := r.sm.ApplyAssignClock(cmd.M)
	if fresh && r.obs != nil {
		at := r.stageAt(id)
		if *at == 0 {
			r.obs.Begin(id, at) // follower: first sight via the log
		}
		r.obs.Stage(obs.StagePropose, id, at)
	}
	if leading {
		delete(s.assigning, id)
		// The timestamp is now durable: announce it to the leaders of all
		// destination groups.
		s.announce(id, cmd.M.Dest, false, fx)
		r.armRetry(id, fx)
	}
}

// inProgress: once the commit is in the log there is nothing left to
// re-drive — every replica delivers it from there.
func (s *ftskeen) inProgress(id mcast.MsgID) (mcast.AppMsg, bool) {
	if s.r.sm.Phase(id) != msgs.PhaseProposed {
		return mcast.AppMsg{}, false
	}
	return s.r.sm.App(id)
}

func (s *ftskeen) recv(mcast.ProcessID, msgs.Message, *node.Effects) {}

func (s *ftskeen) lead(fx *node.Effects) {
	r := s.r
	clear(s.assigning)
	for _, id := range r.sm.Pending() {
		app, _ := r.sm.App(id)
		s.announce(id, app.Dest, false, fx)
		r.armRetry(id, fx)
		r.maybeProposeCommit(id, fx)
	}
	s.drain(fx)
}

// drain: every replica delivers deterministically from the log.
func (s *ftskeen) drain(fx *node.Effects) {
	if s.r.booting {
		return
	}
	for {
		d, ok := s.r.sm.Deliver()
		if !ok {
			return
		}
		s.r.deliver(d, fx)
	}
}

func (s *ftskeen) release(id mcast.MsgID) { delete(s.assigning, id) }
