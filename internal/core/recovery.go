package core

import (
	"sort"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/wal"
)

// Leader recovery (Fig. 4 lines 35–68).
//
// A new leader is elected in two stages. First, processes vote to join the
// ballot of a prospective leader (NEWLEADER / NEWLEADER_ACK, analogous to
// Paxos "1a"/"1b"), which the candidate uses to compute a recovered state
// preserving Invariants 2 and 5 of Fig. 6. Second, the candidate brings a
// quorum of followers in sync with that state (NEW_STATE / NEWSTATE_ACK,
// in the style of Viewstamped Replication and Zab) before resuming normal
// operation — without this second stage, a later recovery could resurrect a
// local timestamp the deposed leader did not know about when it delivered a
// message, violating the delivery order (see the p1/p2/p3 scenario in §IV).

// startCandidacy implements recover() (lines 35–36): pick a ballot led by
// this process that is higher than any ballot it has joined, and ask the
// group to adopt it.
func (r *Replica) startCandidacy(fx *node.Effects) {
	b := mcast.Ballot{N: r.ballot.N + 1, Proc: r.pid}
	r.cfg.Obs.Mark(obs.EventElection, "bal="+b.String())
	fx.SendAll(r.cfg.Top.Members(r.group), msgs.NewLeader{Bal: b})
	// If the candidacy stalls (lost votes, a duel with another candidate),
	// retry with a fresh ballot after a backoff.
	if r.cfg.HeartbeatInterval > 0 {
		fx.SetTimer(2*r.suspect.After, node.TimerCandidacy, 0)
	}
}

// onNewLeader handles a ballot proposal (lines 37–41). Any process —
// follower, leader or recovering — joins a strictly higher ballot, stopping
// normal processing until it learns the new state.
func (r *Replica) onNewLeader(from mcast.ProcessID, m msgs.NewLeader, fx *node.Effects) {
	if !r.ballot.Less(m.Bal) { // line 38
		return
	}
	if r.status == StatusLeader {
		r.cfg.Obs.Mark(obs.EventStepDown, "bal="+m.Bal.String())
	}
	r.status = StatusRecovering // line 39
	r.ballot = m.Bal            // line 40
	// Abandon any candidacy bookkeeping of older ballots, and give this
	// ballot's candidate a full deadline to establish itself.
	clear(r.nlAcks)
	clear(r.nsAcks)
	r.suspect.Arm(fx)
	// What this replica kept for the take-over of an older ballot of its own
	// reaches the next leader through the senders' retries.
	r.orphans = nil
	// The vote is a promise never to vote in a lower ballot again; it must
	// survive a crash, or a restarted replica could vote twice and two
	// leaders could recover conflicting states from disjoint quorums.
	if r.cfg.Durable {
		fx.Persist(wal.Entry{Kind: wal.EntryBallot, Bal: r.ballot, CBal: r.cballot, Clock: r.clock})
	}
	// line 41: vote, reporting the full local state. Only ACCEPTED and
	// COMMITTED entries matter: PROPOSED state is leader-local and is never
	// consulted by the merge rule (lines 46–54).
	fx.Send(from, msgs.NewLeaderAck{
		Bal:   m.Bal,
		CBal:  r.cballot,
		Clock: r.clock,
		State: r.exportState(),
	})
}

// exportState snapshots the ACCEPTED/COMMITTED message records, in MsgID
// order so NEW_STATE and wal.EntryState bytes do not depend on map
// iteration (a seeded run replays exactly). The records share the replica's
// stored application messages: messages are immutable, so every receiver
// may keep them as they are.
func (r *Replica) exportState() []msgs.MsgRecord {
	recs := make([]msgs.MsgRecord, 0, len(r.state))
	for _, st := range r.state {
		if !st.hasApp {
			continue
		}
		if st.phase != msgs.PhaseAccepted && st.phase != msgs.PhaseCommitted {
			continue
		}
		recs = append(recs, msgs.MsgRecord{
			M:     st.app,
			Phase: st.phase,
			LTS:   st.lts,
			GTS:   st.gts,
		})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].M.ID < recs[j].M.ID })
	return recs
}

// onNewLeaderAck collects votes; at a quorum the candidate computes its
// initial state (lines 42–56).
func (r *Replica) onNewLeaderAck(from mcast.ProcessID, m msgs.NewLeaderAck, fx *node.Effects) {
	if r.status != StatusRecovering || r.ballot != m.Bal { // line 43
		return
	}
	if r.cballot == r.ballot {
		return // merge already performed for this ballot
	}
	r.nlAcks[from] = m
	if len(r.nlAcks) < r.cfg.Top.QuorumSize(r.group) {
		return
	}

	// line 44: reinitialise Phase, LocalTS, GlobalTS.
	merged := make(map[mcast.MsgID]*mstate)
	// line 45: J = the voters with maximal cballot.
	var maxCB mcast.Ballot
	for _, ack := range r.nlAcks {
		if maxCB.Less(ack.CBal) {
			maxCB = ack.CBal
		}
	}
	// lines 46–54: COMMITTED anywhere wins; otherwise ACCEPTED at a voter
	// in J is adopted with its local timestamp. ACCEPTED entries reported
	// by voters outside J are deliberately discarded — this is what
	// prevents the resurrection of forgotten timestamps (Invariant 5).
	var clock uint64
	for _, ack := range r.nlAcks {
		if ack.Clock > clock {
			clock = ack.Clock
		}
		inJ := ack.CBal == maxCB
		for _, rec := range ack.State {
			cur := merged[rec.M.ID]
			switch rec.Phase {
			case msgs.PhaseCommitted: // lines 47–50
				if cur == nil || cur.phase != msgs.PhaseCommitted {
					merged[rec.M.ID] = &mstate{
						app: rec.M, hasApp: true,
						phase: msgs.PhaseCommitted, lts: rec.LTS, gts: rec.GTS,
					}
				}
			case msgs.PhaseAccepted: // lines 51–53
				if inJ && cur == nil {
					merged[rec.M.ID] = &mstate{
						app: rec.M, hasApp: true,
						phase: msgs.PhaseAccepted, lts: rec.LTS,
					}
				}
			}
		}
	}
	// The merged state replaces this replica's own. Application messages it
	// holds in phase START — another group's leader proposed them, the deposed
	// leader of this group never did — are in no vote, so the merge would
	// forget them and that group would wait out its retries. Keep the payloads;
	// they carry no timestamp and no promise (maybeFinishRecovery).
	for id, st := range r.state {
		if st.hasApp && st.phase == msgs.PhaseStart && merged[id] == nil {
			r.orphans = append(r.orphans, st.app)
		}
	}
	r.keepDelivered(merged)
	r.state = merged
	if r.clock < clock {
		r.clock = clock // line 54
	}
	r.cballot = r.ballot // line 55
	if r.conflictMode() {
		// A new ballot restarts the release sequence from 1 and re-releases
		// every committed message (followers' cursors reset with NEW_STATE,
		// and the new release log must cover everything a lagging follower
		// may still need). Leave all merged records unreleased; the applied
		// set deduplicates at the application boundary.
		r.resetReleaseState()
	} else {
		// Deliveries this process performed before the leader change stay
		// delivered (max_delivered_gts is never reinitialised).
		for _, st := range r.state {
			if st.phase == msgs.PhaseCommitted && !r.maxDeliveredGTS.Less(st.gts) {
				st.delivered = true
			}
		}
	}
	r.rebuildPending()

	// The merged state replaces this replica's records wholesale — in
	// particular it may DROP accepted entries reported by voters outside J
	// — so it must be durable before the NEW_STATE fan-out announces it.
	recs := r.exportState()
	if r.cfg.Durable {
		fx.Persist(wal.Entry{Kind: wal.EntryState, Bal: r.ballot, CBal: r.cballot, Clock: r.clock, Recs: recs})
	}
	// line 56: push the new state to the rest of the group.
	fx.SendAll(r.groupPeers, msgs.NewState{Bal: r.ballot, Clock: r.clock, State: recs})
	clear(r.nsAcks)
	r.maybeFinishRecovery(fx) // a singleton group needs no acknowledgements
}

// keepDelivered carries this replica's own deliveries into next, a state
// about to replace its own: a message it delivered — COMMITTED at a GTS at
// or below its gap-free frontier — stays committed and delivered at that
// GTS where next holds it only ACCEPTED. Every DELIVER of m carries that
// GTS (Invariant 3b), so the record is the decision the group will reach;
// dropping it would leave a stale record that outlives every other copy of
// m once the group prunes it, and a later leader would retry m as new.
func (r *Replica) keepDelivered(next map[mcast.MsgID]*mstate) {
	if r.conflictMode() {
		return // the applied set keeps conflict mode's deliveries
	}
	for id, old := range r.state {
		if st := next[id]; st != nil && st.phase == msgs.PhaseAccepted && old.delivered &&
			old.phase == msgs.PhaseCommitted && !r.maxDeliveredGTS.Less(old.gts) {
			st.phase, st.lts, st.gts, st.delivered = msgs.PhaseCommitted, old.lts, old.gts, true
		}
	}
}

// onNewState installs the recovered state at a follower (lines 57–62).
func (r *Replica) onNewState(from mcast.ProcessID, m msgs.NewState, fx *node.Effects) {
	if r.status != StatusRecovering || r.ballot != m.Bal { // line 58
		return
	}
	r.status = StatusFollower // line 59
	r.cballot = m.Bal         // line 60
	// line 61: overwrite clock, Phase, LocalTS, GlobalTS.
	r.clock = m.Clock
	installed := make(map[mcast.MsgID]*mstate, len(m.State))
	for _, rec := range m.State {
		st := &mstate{app: rec.M, hasApp: true, phase: rec.Phase, lts: rec.LTS, gts: rec.GTS}
		if r.conflictMode() {
			st.delivered = r.applied[rec.M.ID]
		} else if rec.Phase == msgs.PhaseCommitted && !r.maxDeliveredGTS.Less(rec.GTS) {
			st.delivered = true
		}
		installed[rec.M.ID] = st
	}
	r.keepDelivered(installed)
	r.state = installed
	if r.conflictMode() {
		// The new leader numbers its releases from 1; reset the cursor.
		r.resetReleaseState()
	}
	r.rebuildPending()
	r.queue.Clear() // not leading; the queue is rebuilt on leadership
	r.noteLeader(r.group, m.Bal)
	r.suspect.Arm(fx) // the new leader's heartbeats are due from now
	// The ack promises this follower holds the installed state; persist the
	// wholesale replacement (ballot pair, clock, records) before sending it.
	if r.cfg.Durable {
		fx.Persist(wal.Entry{Kind: wal.EntryState, Bal: r.ballot, CBal: r.cballot, Clock: r.clock, Recs: r.exportState()})
	}
	fx.Send(from, msgs.NewStateAck{Bal: m.Bal}) // line 62
}

// onNewStateAck counts synchronised followers; with a quorum (including the
// leader itself) the new leader resumes operation (lines 63–68).
func (r *Replica) onNewStateAck(from mcast.ProcessID, m msgs.NewStateAck, fx *node.Effects) {
	if r.status != StatusRecovering || r.ballot != m.Bal { // line 64
		return
	}
	r.nsAcks[from] = true
	r.maybeFinishRecovery(fx)
}

func (r *Replica) maybeFinishRecovery(fx *node.Effects) {
	if r.status != StatusRecovering || r.cballot != r.ballot {
		return
	}
	// "from a set of processes that together with pi form a quorum".
	if len(r.nsAcks)+1 < r.cfg.Top.QuorumSize(r.group) {
		return
	}
	r.status = StatusLeader // line 65
	r.noteLeader(r.group, r.cballot)

	// Rebuild the delivery queue from the recovered state and re-deliver
	// every deliverable committed message from the beginning (lines 66–68).
	// Followers that already delivered some of them discard the duplicates
	// via the max_delivered_gts check. The DELIVER chain restarts below the
	// re-drained prefix: at the group GC watermark, which every member's
	// delivery watermark is guaranteed to have reached (pruning requires
	// it), so no follower's gap check can mistake the restart for a gap.
	r.lastDeliverGTS = r.groupWM[r.group]
	r.queue.Clear()
	var accepted []mcast.MsgID
	for id, st := range r.state {
		switch st.phase {
		case msgs.PhaseCommitted:
			r.queue.Commit(id, st.gts)
		case msgs.PhaseAccepted:
			r.queue.SetPending(id, st.lts)
			accepted = append(accepted, id)
		}
	}
	r.drain(fx)

	// Resume the processing of ACCEPTED messages (§IV "Message recovery":
	// the retry mechanism re-runs the ACCEPT round in the new ballot), in
	// local-timestamp order: the sends and timers must not follow map
	// iteration, or a seeded run would not replay.
	sort.Slice(accepted, func(i, j int) bool { return r.state[accepted[i]].lts.Less(r.state[accepted[j]].lts) })
	for _, id := range accepted {
		st := r.state[id]
		r.armRetry(id, fx)
		// Kick one immediate retry so recovery does not wait a full
		// retry interval: re-multicast to every destination leader,
		// including ourselves.
		st.retries = 0
		r.toLeaders(st.app, fx)
	}
	// Adopt the orphans the same way, in MsgID order: the MULTICAST to this
	// replica proposes the message in the new ballot exactly as a client's
	// retry would, the one to each other destination leader makes it re-send
	// the ACCEPT the state replacement discarded. Only dest(m) is involved.
	sort.Slice(r.orphans, func(i, j int) bool { return r.orphans[i].ID < r.orphans[j].ID })
	for _, app := range r.orphans {
		r.toLeaders(app, fx)
	}
	r.orphans = nil

	// Start leading: heartbeats announce the ballot to the group.
	r.heartbeat(fx)
}
