package blackbox

import (
	"fmt"
	"slices"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/paxos"
)

var fastcastVariant = variant{"fastcast", func(r *Replica, pc *paxos.Config) strategy {
	s := &fastcast{
		r:         r,
		peers:     r.top.Peers(r.pid),
		tentative: make(map[mcast.MsgID]tentative),
		confirms:  make(map[mcast.MsgID]map[mcast.GroupID]mcast.Timestamp),
		lastAckWM: make(map[mcast.ProcessID]mcast.Timestamp),
	}
	// Delivery is leader-gated (not log-driven), so a follower that lost
	// DELIVERs while down needs them replayed: piggyback our delivery
	// watermark on heartbeat acks and replay above a stalled follower's.
	pc.AckDelivered = func() mcast.Timestamp { return r.maxDelivered }
	pc.OnFollowerLag = s.onFollowerLag
	return s
}}

// fastcast is the speculative strategy: the leader announces a tentative
// timestamp while consensus persists it and CONFIRMs the decided one
// afterwards, a committed vector delivers only once every group confirmed
// it, and the leader alone decides deliveries, replicating them with a
// chain of DELIVER messages.
type fastcast struct {
	r *Replica
	// peers is the group minus this replica: the DELIVER recipients.
	peers []mcast.ProcessID

	// Leader-side soft state (reset on a leadership change). specTime is
	// the last tentative clock value issued; tentative holds the messages
	// whose CmdAssign is in consensus — the delivery gate must treat their
	// timestamps as pending.
	specTime  uint64
	tentative map[mcast.MsgID]tentative
	// confirms holds the consensus-decided timestamps per message and
	// group (the shell's proposals may be tentative).
	confirms map[mcast.MsgID]map[mcast.GroupID]mcast.Timestamp
	// chain is the GTS of the last DELIVER sent (Deliver.Prev): followers
	// use the chain to detect missed DELIVERs after a crash-recovery pause
	// instead of delivering with a gap.
	chain mcast.Timestamp
	// lastAckWM remembers each follower's previous heartbeat-ack delivery
	// watermark; the DELIVER replay fires only when a watermark stalls
	// (fails to advance between acks), not merely trails — trailing by one
	// hop is the steady-state norm and must not cost a delivered-set scan
	// per heartbeat.
	lastAckWM map[mcast.ProcessID]mcast.Timestamp
}

type tentative struct {
	lts mcast.Timestamp
	app mcast.AppMsg
}

// assign issues a tentative timestamp and launches the persistence
// consensus and the speculative announcement in parallel.
func (s *fastcast) assign(app mcast.AppMsg, fx *node.Effects) {
	r := s.r
	s.specTime = max(s.specTime, r.sm.Clock()) + 1
	lts := mcast.Timestamp{Time: s.specTime, Group: r.group}
	s.tentative[app.ID] = tentative{lts, app}
	if r.obs != nil {
		at := r.stageAt(app.ID)
		r.obs.Begin(app.ID, at)
		r.obs.Stage(obs.StagePropose, app.ID, at) // tentative timestamp issued
	}
	r.px.Propose(msgs.Command{Op: msgs.CmdAssign, M: app, LTS: lts}, fx)
	r.sendLeaders(app.Dest, false, msgs.Propose{ID: app.ID, Group: r.group, LTS: lts}, fx)
}

func (s *fastcast) announce(id mcast.MsgID, dest mcast.GroupSet, blanket bool, fx *node.Effects) bool {
	r := s.r
	if lts, ok := r.sm.LTS(id); ok {
		r.sendLeaders(dest, blanket, msgs.Propose{ID: id, Group: r.group, LTS: lts}, fx)
		r.sendLeaders(dest, blanket, msgs.Confirm{ID: id, Group: r.group, LTS: lts}, fx)
		return true
	}
	t, ok := s.tentative[id]
	if ok {
		r.sendLeaders(dest, blanket, msgs.Propose{ID: id, Group: r.group, LTS: t.lts}, fx)
	}
	return ok
}

func (s *fastcast) applied(cmd msgs.Command, leading bool, fx *node.Effects) {
	r := s.r
	id := cmd.ID
	if cmd.Op == msgs.CmdAssign {
		id = cmd.M.ID
		lts, fresh := r.sm.ApplyAssign(cmd.M, cmd.LTS)
		if fresh && r.obs != nil {
			if at := r.stageAt(id); *at == 0 {
				r.obs.Begin(id, at) // follower: first sight via the log
				r.obs.Stage(obs.StagePropose, id, at)
			}
		}
		if leading {
			delete(s.tentative, id)
			// The timestamp is durable: confirm it to all destination
			// leaders.
			r.sendLeaders(cmd.M.Dest, false, msgs.Confirm{ID: id, Group: r.group, LTS: lts}, fx)
		}
	}
	if leading {
		// A command proposed by a deposed leader can apply here (via log
		// catch-up) after lead ran: make sure someone re-drives the message
		// until it delivers — the client may already be gone (it completes
		// once every group replied, and replies come from deliveries the
		// old leader performed alone).
		r.armRetry(id, fx)
		s.drain(fx)
	}
}

// inProgress: a committed vector still needs every group's CONFIRM, so the
// leader's work ends only at delivery. Before the CmdAssign applies, the
// message is known from the tentative assignment alone.
func (s *fastcast) inProgress(id mcast.MsgID) (mcast.AppMsg, bool) {
	if s.r.sm.IsDelivered(id) {
		return mcast.AppMsg{}, false
	}
	if t, ok := s.tentative[id]; ok {
		return t.app, true
	}
	return s.r.sm.App(id)
}

func (s *fastcast) recv(from mcast.ProcessID, m msgs.Message, fx *node.Effects) {
	switch m := m.(type) {
	case msgs.Confirm:
		s.onConfirm(from, m, fx)
	case msgs.Deliver:
		s.onDeliver(m, fx)
	}
}

// onConfirm records a consensus-decided timestamp. If the speculation used
// a different value, the commit is re-proposed with the corrected vector
// (possible only across leader changes).
func (s *fastcast) onConfirm(from mcast.ProcessID, c msgs.Confirm, fx *node.Effects) {
	r := s.r
	r.heard(c.Group, from)
	if !r.px.Leading() || r.sm.IsDelivered(c.ID) {
		return
	}
	record(s.confirms, c.ID, c.Group, c.LTS)
	// A confirmed value supersedes any tentative proposal for that group.
	record(r.proposals, c.ID, c.Group, c.LTS)
	if vec, proposed := r.commitVec[c.ID]; proposed {
		if final, ok := s.confirmed(c.ID); ok && !slices.Equal(vec, final) {
			r.proposeCommit(c.ID, final, fx)
		}
	}
	r.maybeProposeCommit(c.ID, fx)
	s.drain(fx)
}

// confirmed returns the full consensus-decided timestamp vector of id.
func (s *fastcast) confirmed(id mcast.MsgID) ([]msgs.GroupTS, bool) {
	app, ok := s.inProgress(id)
	if !ok {
		return nil, false
	}
	return vector(app.Dest, s.confirms[id])
}

// drain delivers at the leader every message allowed out by the delivery
// rule whose commit is both durable (consensus₂ applied) and confirmed
// (consensus₁ decided the timestamps used), then replicates the deliveries
// to the followers with DELIVER messages.
func (s *fastcast) drain(fx *node.Effects) {
	r := s.r
	if !r.px.Leading() {
		return
	}
	for {
		id, gts, ok := r.sm.Deliverable()
		if !ok {
			return
		}
		// Tentative timestamps issued but not yet applied are pending too:
		// a message whose tentative lts could end up below gts blocks
		// delivery exactly as a PROPOSED message does in Skeen's rule.
		for _, t := range s.tentative {
			if !gts.Less(t.lts) {
				return
			}
		}
		final, ok := s.confirmed(id)
		if !ok {
			return // unconfirmed: wait for (or re-solicit) confirms
		}
		if msgs.MaxGroupTS(final) != gts {
			// The confirmed timestamps contradict the committed vector: the
			// commit was decided from a wrong speculation. Re-propose it
			// with the confirmed vector. onConfirm does this too, but only
			// for commits this leader proposed itself (commitVec is soft
			// state) — a leader elected after the bad commit must correct
			// it from here or the gate stays closed forever.
			if !slices.Equal(r.commitVec[id], final) {
				r.proposeCommit(id, final, fx)
			}
			return
		}
		d, ok := r.sm.Deliver()
		if !ok {
			return
		}
		// If the recovered frontier covers d the application saw it before
		// a restart; deliver skips it and we only re-replicate the decision.
		r.deliver(d, fx)
		s.sendDeliver(id, gts, fx)
	}
}

// sendDeliver extends the followers' DELIVER chain by id.
func (s *fastcast) sendDeliver(id mcast.MsgID, gts mcast.Timestamp, fx *node.Effects) {
	lts, _ := s.r.sm.LTS(id)
	fx.SendAll(s.peers, msgs.Deliver{ID: id, Bal: s.r.px.Ballot(), LTS: lts, GTS: gts, Prev: s.chain})
	s.chain = gts
}

// onDeliver applies a replicated delivery decision at a follower.
func (s *fastcast) onDeliver(d msgs.Deliver, fx *node.Effects) {
	r := s.r
	if r.px.Leading() || d.Bal != r.px.Ballot() {
		return // stale leader's decision
	}
	if !r.maxDelivered.Less(d.GTS) {
		return // duplicate (re-delivery after a leader change)
	}
	if r.maxDelivered.Less(d.Prev) {
		// The chain predecessor was never delivered here: we missed a
		// DELIVER while down. Delivering now would open a gap in the
		// group's sequence; wait for the leader's heartbeat-ack replay
		// (onFollowerLag), which restarts the chain at our watermark.
		return
	}
	app, ok := r.sm.App(d.ID)
	if !ok {
		return // not yet caught up on the log; the replay will return
	}
	r.sm.MarkDelivered(d.ID, d.GTS)
	r.deliver(mcast.Delivery{Msg: app, GTS: d.GTS}, fx)
}

func (s *fastcast) lead(fx *node.Effects) {
	r := s.r
	s.specTime = r.sm.Clock()
	clear(s.tentative)
	// Re-announce every assigned-but-undelivered message; remote leaders
	// answer with their PROPOSE/CONFIRM, rebuilding the soft state.
	for _, id := range append(r.sm.Pending(), r.sm.CommittedUndelivered()...) {
		app, _ := r.sm.App(id)
		r.redrive(app, false, fx)
	}
	// Re-replicate deliveries this replica performed before taking over so
	// lagging followers catch up (they suppress duplicates). The DELIVER
	// chain restarts at ⊥ and re-threads the whole delivered prefix — the
	// state machine keeps delivered messages forever, so the chain covers
	// every message any follower could be missing.
	s.chain = mcast.ZeroTS
	for _, id := range r.sm.Delivered() {
		gts, _ := r.sm.GTS(id)
		s.sendDeliver(id, gts, fx)
	}
}

// catchupDeliveries caps how many missed deliveries one heartbeat ack
// replays to a lagging follower.
const catchupDeliveries = 64

// onFollowerLag replays the DELIVER sequence above a stalled follower's
// watermark, chained from that watermark so the follower's gap check
// accepts the replay. A follower is stalled when its reported watermark
// both trails the leader's and failed to advance since its previous ack;
// this keeps the replay (and its delivered-set scan) off the fault-free
// path. The application messages themselves reach the follower through
// the Paxos log catch-up (Learn re-sends); a DELIVER that outruns it is
// dropped there and replayed on a later ack.
func (s *fastcast) onFollowerLag(from mcast.ProcessID, wm mcast.Timestamp, fx *node.Effects) {
	r := s.r
	last, seen := s.lastAckWM[from]
	s.lastAckWM[from] = wm
	if !wm.Less(r.maxDelivered) || !seen || last != wm {
		return
	}
	prev := wm
	n := 0
	for _, id := range r.sm.Delivered() { // ascending GTS
		gts, _ := r.sm.GTS(id)
		if !wm.Less(gts) {
			continue
		}
		if n++; n > catchupDeliveries {
			break
		}
		lts, _ := r.sm.LTS(id)
		fx.Send(from, msgs.Deliver{ID: id, Bal: r.px.Ballot(), LTS: lts, GTS: gts, Prev: prev})
		prev = gts
	}
	if n > 0 {
		r.obs.Mark(obs.EventCatchup, fmt.Sprintf("to=p%d n=%d", from, n))
	}
}

func (s *fastcast) release(id mcast.MsgID) {
	delete(s.tentative, id)
	delete(s.confirms, id)
}
