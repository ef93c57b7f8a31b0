package core

import (
	"fmt"
	"sort"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/wal"
)

// Liveness machinery: the heartbeat failure detector that drives leader
// recovery (the paper assumes an eventually-stable leader election service,
// §IV "Leader recovery", citing [5, 25, 26]), leader-side retries, and
// garbage collection of delivered messages (the paper's implementation
// "includes a mechanism to garbage collect delivered messages", §VI; the
// concrete watermark design here is ours and is documented in the GC
// paragraph of docs/PROTOCOL.md).

func (r *Replica) onStart(fx *node.Effects) {
	// A restart that kept this handler in memory lost its timers: replies
	// still queued would wait for a flush that never comes.
	r.flushReplies(fx)
	r.heartbeat(fx)
	// Every replica monitors its leader: suspicion falls one deadline
	// (node.Suspicion) after the last sign of it, and a start counts as one.
	r.suspect.Arm(fx)
	if r.cfg.GCInterval > 0 {
		fx.SetTimer(r.cfg.GCInterval, node.TimerGC, 0)
	}
}

func (r *Replica) onTimer(t node.Timer, fx *node.Effects) {
	switch t.Kind {
	case node.TimerRetry:
		r.retry(mcast.MsgID(t.Data), fx)
	case node.TimerHeartbeat:
		if uint64(r.cballot.N) == t.Data { // else stale: the ballot advanced
			r.heartbeat(fx)
		}
	case node.TimerSuspect:
		// The deadline passed with no heartbeat of the participating ballot
		// (or stuck in RECOVERING after a candidacy failed): attempt to lead.
		if r.suspect.Expired(t, fx) && r.status != StatusLeader {
			r.startCandidacy(fx)
		}
	case node.TimerCandidacy:
		// Forced (Data 1: tests and operator tooling), or the backoff retry
		// of this replica's own stalled candidacy.
		if t.Data == 1 || r.status == StatusRecovering && r.ballot.Leader() == r.pid && r.cballot != r.ballot {
			r.startCandidacy(fx)
		}
	case node.TimerGC:
		r.onGCTimer(fx)
	case node.TimerReplies:
		r.flushReplies(fx)
	}
}

// heartbeat, at a leader, announces its ballot to the group and arms the next
// announcement.
func (r *Replica) heartbeat(fx *node.Effects) {
	if r.cfg.HeartbeatInterval > 0 && r.status == StatusLeader {
		fx.SendAll(r.groupPeers, msgs.Heartbeat{Group: r.group, Bal: r.cballot})
		fx.SetTimer(r.cfg.HeartbeatInterval, node.TimerHeartbeat, uint64(r.cballot.N))
	}
}

func (r *Replica) onHeartbeat(from mcast.ProcessID, m msgs.Heartbeat, fx *node.Effects) {
	if m.Group != r.group {
		return
	}
	if r.cballot.Less(m.Bal) {
		// A heartbeat is only ever sent by an established leader, so this
		// process slept through a leader change (crash-recovery restart):
		// its cballot — and possibly its message state — is stale. It must
		// not keep acting on the old ballot (in particular a deposed leader
		// must stop leading), and the only safe way back in is a full state
		// transfer: join the evidence ballot and let the suspicion timer
		// drive a candidacy, whose NEW_STATE round re-synchronises a quorum
		// (§IV — a shortcut that adopted the ballot without the state could
		// later vote in J with an incomplete state and resurrect a
		// forgotten timestamp, violating Invariant 5).
		if r.ballot.Less(m.Bal) {
			r.ballot = m.Bal
			r.orphans = nil // as in onNewLeader: not this replica's take-over
		}
		if r.status == StatusLeader {
			r.cfg.Obs.Mark(obs.EventStepDown, "bal="+m.Bal.String())
		}
		r.status = StatusRecovering
		return
	}
	// Only a heartbeat of the ballot we participate in refreshes the
	// failure detector: a process stranded in a higher joined ballot must
	// eventually start its own candidacy to rejoin the group.
	if m.Bal == r.cballot && r.status == StatusFollower {
		r.suspect.Arm(fx)
		r.vouchFrontier(fx)
		// Seq is the conflict-mode release cursor (zero otherwise).
		fx.Send(from, msgs.HeartbeatAck{Group: r.group, Bal: m.Bal, Delivered: r.maxDeliveredGTS, Seq: r.lastSeq})
	}
}

// catchupBatch caps how many missed deliveries one heartbeat ack replays,
// bounding the burst a far-behind follower triggers; the next ack continues
// from its advanced watermark.
const catchupBatch = 64

func (r *Replica) onHeartbeatAck(from mcast.ProcessID, m msgs.HeartbeatAck, fx *node.Effects) {
	if r.status != StatusLeader || m.Bal != r.cballot {
		return
	}
	if r.deliveredWM[from].Less(m.Delivered) {
		r.deliveredWM[from] = m.Delivered
	}
	if r.conflictMode() {
		// Stall detection over the release-sequence cursor instead of the
		// GTS watermark (releases are not in GTS order in conflict mode).
		prev, seen := r.lastAckSeq[from]
		r.lastAckSeq[from] = m.Seq
		if seen && prev == m.Seq && m.Seq < r.relSeq {
			r.catchupConflict(from, m.Seq, fx)
		}
		return
	}
	// Replay only for a STALLED follower: one whose watermark did not
	// advance since its previous ack. Merely trailing the leader is the
	// steady-state norm (followers deliver one hop later) and must not
	// trigger a state scan and a redundant replay burst every heartbeat.
	prev, seen := r.lastAckWM[from]
	r.lastAckWM[from] = m.Delivered
	if seen && prev == m.Delivered {
		r.catchup(from, m.Delivered, fx)
	}
}

// catchup replays the delivery sequence above a lagging follower's
// watermark: for each missed message, an ACCEPT (so the follower learns the
// application message it may have never received) followed by the DELIVER,
// chained from the follower's own watermark so its gap check accepts the
// replay. Under reliable channels followers never lag and this sends
// nothing; it is the recovery path for crash-recovery message loss. GC
// cannot have pruned anything a follower still needs: the group watermark
// that licenses pruning is the minimum over all members' reported
// watermarks, including this follower's.
func (r *Replica) catchup(from mcast.ProcessID, wm mcast.Timestamp, fx *node.Effects) {
	if from == r.pid || !wm.Less(r.maxDeliveredGTS) {
		return
	}
	type miss struct {
		id  mcast.MsgID
		gts mcast.Timestamp
	}
	var missed []miss
	for id, st := range r.state {
		if st.delivered && st.hasApp && wm.Less(st.gts) {
			missed = append(missed, miss{id, st.gts})
		}
	}
	if len(missed) == 0 {
		return
	}
	sort.Slice(missed, func(i, j int) bool { return missed[i].gts.Less(missed[j].gts) })
	if len(missed) > catchupBatch {
		missed = missed[:catchupBatch]
	}
	r.cfg.Obs.Mark(obs.EventCatchup, fmt.Sprintf("to=p%d n=%d", from, len(missed)))
	prev := wm
	for _, ms := range missed {
		st := r.state[ms.id]
		fx.Send(from, msgs.Accept{M: st.app, Group: r.group, Bal: r.cballot, LTS: st.lts})
		fx.Send(from, msgs.Deliver{ID: ms.id, Bal: r.cballot, LTS: st.lts, GTS: ms.gts, Prev: prev})
		prev = ms.gts
	}
}

// --------------------------------------------------------------------------
// Garbage collection
// --------------------------------------------------------------------------
//
// Every member's deliveries happen in increasing GTS order and cover the
// full projection of the total order onto its group, so a member's
// max_delivered_gts is a gap-free watermark. The leader aggregates the
// group-wide minimum (its followers piggyback theirs on heartbeat acks),
// gossips it to the other groups' leaders (GC_MARK), and distributes the
// global per-group watermark vector to its followers (PRUNE). A delivered
// message m is discarded once ∀g ∈ dest(m): GTS(m) ≤ watermark(g) — at that
// point every member of every destination group has delivered m, no
// in-protocol retry can reference it again, and correct clients have
// stopped re-sending it (they have replies from all groups).

func (r *Replica) onGCTimer(fx *node.Effects) {
	defer fx.SetTimer(r.cfg.GCInterval, node.TimerGC, 0)
	if r.status != StatusLeader {
		r.prune(fx)
		return
	}
	// Group watermark: the minimum delivery watermark over all members.
	r.vouchFrontier(fx)
	wm := r.maxDeliveredGTS
	for _, p := range r.cfg.Top.Members(r.group) {
		if p == r.pid {
			continue
		}
		w, ok := r.deliveredWM[p]
		if !ok {
			wm = mcast.Timestamp{} // no report yet: cannot GC anything
			break
		}
		if w.Less(wm) {
			wm = w
		}
	}
	if r.groupWM[r.group].Less(wm) {
		r.groupWM[r.group] = wm
	}
	// Gossip our group's watermark to the other leaders, then distribute
	// the full watermark vector to our followers and prune. Both in GroupID
	// order, not map order: a seeded run must replay its sends exactly.
	mark := msgs.GCMark{Group: r.group, Watermark: r.groupWM[r.group]}
	marks := make([]msgs.GroupTS, 0, len(r.groupWM))
	for g := mcast.GroupID(0); int(g) < r.cfg.Top.NumGroups(); g++ {
		if g != r.group {
			fx.Send(r.curLeader[g], mark)
		}
		if w, ok := r.groupWM[g]; ok {
			marks = append(marks, msgs.GroupTS{Group: g, TS: w})
		}
	}
	fx.SendAll(r.groupPeers, msgs.Prune{Group: r.group, Marks: marks})
	r.prune(fx)
}

func (r *Replica) onGCMark(m msgs.GCMark) {
	if r.groupWM[m.Group].Less(m.Watermark) {
		r.groupWM[m.Group] = m.Watermark
	}
}

func (r *Replica) onPrune(m msgs.Prune, fx *node.Effects) {
	if m.Group != r.group {
		return
	}
	for _, gt := range m.Marks {
		if r.groupWM[gt.Group].Less(gt.TS) {
			r.groupWM[gt.Group] = gt.TS
		}
	}
	r.prune(fx)
}

func (r *Replica) prune(fx *node.Effects) {
	if r.conflictMode() {
		// Conflict mode never prunes (the release log and applied set
		// reference every delivered message); guard against stray PRUNE
		// messages even though no genmcast leader ever sends one.
		return
	}
	// With an app-driven horizon, the application (which replays our
	// records at recovery) bounds what may be discarded: nothing above
	// its durability horizon, and nothing at all before the first
	// GCHorizon input.
	if r.cfg.AppGCHorizon && !r.appHorizonSet {
		return
	}
	var pruned []mcast.MsgID
	for id, st := range r.state {
		if !st.delivered || !st.hasApp {
			continue
		}
		if r.cfg.AppGCHorizon && r.appHorizon.Less(st.gts) {
			continue // the app has not made this delivery durable yet
		}
		ok := true
		for _, g := range st.app.Dest {
			if w, have := r.groupWM[g]; !have || w.Less(st.gts) {
				ok = false
				break
			}
		}
		if ok {
			delete(r.state, id)
			r.queue.Remove(id)
			r.pruned++
			if r.pruneHook != nil {
				r.pruneHook(st.app)
			}
			if r.cfg.Durable {
				pruned = append(pruned, id)
			}
		}
	}
	// Log the removals so a replayed store does not resurrect pruned
	// records (and so snapshots shrink along with the in-memory state). No
	// message vouches for a removal; where only the application's horizon
	// licenses it, it rides the next sync — behind the application's own
	// records for those deliveries, which entered the log before the horizon
	// input did.
	if len(pruned) > 0 {
		sort.Slice(pruned, func(i, j int) bool { return pruned[i] < pruned[j] })
		r.persist(fx, r.cfg.AppGCHorizon, wal.Entry{Kind: wal.EntryPrune, IDs: pruned})
	}
}
