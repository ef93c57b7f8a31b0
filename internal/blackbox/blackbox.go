package blackbox

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"wbcast/internal/batch"
	"wbcast/internal/core"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/paxos"
	"wbcast/internal/rsm"
	"wbcast/internal/wal"
)

// strategy is where FT-Skeen and FastCast differ: how the leader obtains a
// local timestamp, what a committed vector must satisfy before delivery,
// and who delivers. Everything else is the shell's.
type strategy interface {
	// assign starts ordering a message this leader holds no timestamp for.
	assign(app mcast.AppMsg, fx *node.Effects)
	// announce re-sends the timestamp this leader holds for id — durable
	// or still in consensus — to the leaders of dest, or to every member
	// of dest when blanket; false if it holds none.
	announce(id mcast.MsgID, dest mcast.GroupSet, blanket bool, fx *node.Effects) bool
	// applied runs on every replica after the shell has applied cmd (a
	// CmdCommit) or in its place (a CmdAssign: the variants install the
	// timestamp differently).
	applied(cmd msgs.Command, leading bool, fx *node.Effects)
	// inProgress returns the message of id while this leader still has
	// work to do for it: collect its commit vector, re-drive it.
	inProgress(id mcast.MsgID) (mcast.AppMsg, bool)
	// recv handles the messages only this variant exchanges.
	recv(from mcast.ProcessID, m msgs.Message, fx *node.Effects)
	// lead re-drives in-flight work after this replica became leader.
	lead(fx *node.Effects)
	// drain delivers whatever the variant's delivery rule lets out.
	drain(fx *node.Effects)
	// release drops the variant's soft state of a delivered message.
	release(id mcast.MsgID)
}

// variant names a strategy and builds it; newStrategy may hook the Paxos
// substrate (FastCast's follower catch-up rides the heartbeat acks).
type variant struct {
	name        string
	newStrategy func(*Replica, *paxos.Config) strategy
}

// Replica is one group member of a black-box baseline: Fig. 1 as a state
// machine (rsm) over a Paxos log, driven by the variant's strategy. It
// implements node.Handler.
type Replica struct {
	// retryEvery re-drives stuck messages (re-announced timestamps, plus
	// MULTICAST to the other destination groups); zero disables retries.
	retryEvery time.Duration
	top        *mcast.Topology
	obs        *obs.Proto // nil disables metrics and tracing
	durable    bool
	pid        mcast.ProcessID
	group      mcast.GroupID

	px *paxos.Replica
	sm *rsm.Machine
	st strategy

	// Per-message soft state, dropped by release when the message is
	// delivered. proposals collects the PROPOSE timestamps per group;
	// commitVec is the vector of the CmdCommit this leader proposed (reset
	// on a leadership change); redrives counts retry rounds; obsAt holds
	// the latest stage timestamp and is touched only when obs is set.
	proposals map[mcast.MsgID]map[mcast.GroupID]mcast.Timestamp
	commitVec map[mcast.MsgID][]msgs.GroupTS
	redrives  map[mcast.MsgID]int
	obsAt     map[mcast.MsgID]*time.Duration

	// curLeader is the Cur_leader guess for remote groups, learned from
	// observed traffic.
	curLeader map[mcast.GroupID]mcast.ProcessID
	// maxDelivered is the application-delivery frontier, persisted before
	// each delivery (durable) and restored at recovery so the application
	// never sees a message twice across a restart.
	maxDelivered mcast.Timestamp
	// booting is true while the recovered log replays: nothing delivers.
	booting bool
}

// FTSkeen builds a replica of the classical black-box baseline.
func FTSkeen(c core.Config) (node.Handler, error) { return newReplica(&ftskeenVariant, c) }

// FastCast builds a replica of the speculative baseline.
func FastCast(c core.Config) (node.Handler, error) { return newReplica(&fastcastVariant, c) }

// newReplica builds replica c.PID of c.Top of the given variant. Of c it
// reads the retry interval, the Paxos failure detector's heartbeat
// interval and suspicion timeout, and the instrumentation handle. c.Recovered,
// when non-nil, makes the replica durable: it emits persist effects for the
// Paxos substrate and the delivery frontier, and replays the recovered state
// before joining.
func newReplica(v *variant, c core.Config) (node.Handler, error) {
	pid, top, po, rs := c.PID, c.Top, c.Obs, c.Recovered
	g := top.GroupOf(pid)
	if g == mcast.NoGroup {
		return nil, fmt.Errorf("%s: process %d is not a member of any group", v.name, pid)
	}
	r := &Replica{
		retryEvery: c.RetryInterval, top: top, obs: po, durable: rs != nil,
		pid: pid, group: g,
		sm:        rsm.New(g),
		proposals: make(map[mcast.MsgID]map[mcast.GroupID]mcast.Timestamp),
		commitVec: make(map[mcast.MsgID][]msgs.GroupTS),
		redrives:  make(map[mcast.MsgID]int),
		curLeader: make(map[mcast.GroupID]mcast.ProcessID),
	}
	for gid := mcast.GroupID(0); int(gid) < top.NumGroups(); gid++ {
		r.curLeader[gid] = top.InitialLeader(gid)
	}
	pc := paxos.Config{
		PID: pid, Top: top,
		HeartbeatInterval: c.HeartbeatInterval,
		SuspectTimeout:    c.SuspectTimeout,
		OnLead:            r.onLead,
		Obs:               po,
		Durable:           r.durable,
		Recovered:         rs,
	}
	r.st = v.newStrategy(r, &pc)
	px, err := paxos.New(pc, r)
	if err != nil {
		return nil, err
	}
	r.px = px
	if rs != nil && !rs.Empty() {
		// Rebuild the ordering state machine by replaying the recovered log
		// into a throwaway sink (commands apply as a follower: no sends),
		// then pop the prefix the application saw before the crash —
		// everything deliverable at or below the recovered frontier.
		// Deliverables beyond it stay queued for the Start input.
		r.maxDelivered = rs.MaxDelivered
		r.booting = true
		var discard node.Effects
		r.px.Replay(&discard)
		r.booting = false
		for {
			_, gts, ok := r.sm.Deliverable()
			if !ok || r.maxDelivered.Less(gts) {
				break
			}
			d, _ := r.sm.Deliver()
			r.release(d.Msg.ID)
		}
	}
	return r, nil
}

// ID implements node.Handler.
func (r *Replica) ID() mcast.ProcessID { return r.pid }

// Handle implements node.Handler.
func (r *Replica) Handle(in node.Input, fx *node.Effects) {
	switch in := in.(type) {
	case node.Start:
		r.px.Start(fx)
		// Deliveries the recovered log determined beyond the persisted
		// frontier (queued by the replay in newReplica).
		r.st.drain(fx)
	case node.Recv:
		if r.px.HandleMessage(in.From, in.Msg, fx) {
			return
		}
		switch m := in.Msg.(type) {
		case msgs.Multicast:
			r.onMulticast(m.M, fx)
		case msgs.Propose:
			r.onPropose(in.From, m, fx)
		default:
			r.st.recv(in.From, in.Msg, fx)
		}
	case node.Timer:
		if r.px.HandleTimer(in, fx) {
			return
		}
		if in.Kind == node.TimerRetry {
			r.retry(mcast.MsgID(in.Data), fx)
		}
	}
}

// onMulticast starts the ordering of an application message at the leader,
// or re-announces its timestamp (message recovery after a lost PROPOSE or a
// remote leader change).
func (r *Replica) onMulticast(app mcast.AppMsg, fx *node.Effects) {
	if !r.px.Leading() || r.st.announce(app.ID, app.Dest, false, fx) {
		return
	}
	r.st.assign(app, fx)
	r.armRetry(app.ID, fx)
}

// Apply implements paxos.App: it runs on every replica in slot order.
func (r *Replica) Apply(_ uint64, cmd msgs.Command, leading bool, fx *node.Effects) {
	if cmd.Op == msgs.CmdCommit {
		if _, changed := r.sm.ApplyCommit(cmd.ID, cmd.LTSs); changed && r.obs != nil {
			r.obs.Stage(obs.StageCommit, cmd.ID, r.stageAt(cmd.ID))
		}
	}
	r.st.applied(cmd, leading, fx)
}

// onPropose collects the local timestamps of the destination groups.
func (r *Replica) onPropose(from mcast.ProcessID, p msgs.Propose, fx *node.Effects) {
	r.heard(p.Group, from)
	if !r.px.Leading() || r.sm.IsDelivered(p.ID) {
		return
	}
	record(r.proposals, p.ID, p.Group, p.LTS)
	r.maybeProposeCommit(p.ID, fx)
}

// heard updates the Cur_leader guess: g's timestamps come from its leader.
func (r *Replica) heard(g mcast.GroupID, from mcast.ProcessID) {
	if g != r.group {
		r.curLeader[g] = from
	}
}

// record stores group g's timestamp for id.
func record(in map[mcast.MsgID]map[mcast.GroupID]mcast.Timestamp, id mcast.MsgID, g mcast.GroupID, ts mcast.Timestamp) {
	byGroup := in[id]
	if byGroup == nil {
		byGroup = make(map[mcast.GroupID]mcast.Timestamp)
		in[id] = byGroup
	}
	byGroup[g] = ts
}

// vector returns the timestamps of every group of dest out of have, sorted
// by group; false while any is missing.
func vector(dest mcast.GroupSet, have map[mcast.GroupID]mcast.Timestamp) ([]msgs.GroupTS, bool) {
	vec := make([]msgs.GroupTS, 0, len(dest))
	for _, g := range dest {
		ts, ok := have[g]
		if !ok {
			return nil, false
		}
		vec = append(vec, msgs.GroupTS{Group: g, TS: ts})
	}
	slices.SortFunc(vec, func(a, b msgs.GroupTS) int { return cmp.Compare(a.Group, b.Group) })
	return vec, true
}

// maybeProposeCommit persists the commit through the second consensus once
// the leader holds a timestamp from every destination group.
func (r *Replica) maybeProposeCommit(id mcast.MsgID, fx *node.Effects) {
	if _, proposed := r.commitVec[id]; proposed {
		return
	}
	app, ok := r.st.inProgress(id)
	if !ok {
		return
	}
	vec, ok := vector(app.Dest, r.proposals[id])
	if !ok {
		return
	}
	if r.obs != nil {
		r.obs.Stage(obs.StageAccept, id, r.stageAt(id))
	}
	r.proposeCommit(id, vec, fx)
}

// proposeCommit starts the second consensus on vec and remembers it.
func (r *Replica) proposeCommit(id mcast.MsgID, vec []msgs.GroupTS, fx *node.Effects) {
	r.commitVec[id] = vec
	r.px.Propose(msgs.Command{Op: msgs.CmdCommit, ID: id, LTSs: vec}, fx)
}

// retry re-drives a stuck message: re-announce our timestamp and
// re-multicast to the other destination groups so they (re-)announce
// theirs. The first rounds target the Cur_leader guesses; further rounds
// blanket whole groups — the guess can be arbitrarily stale after a remote
// leader change (followers drop PROPOSE/CONFIRM/MULTICAST silently), and
// only the blanket is guaranteed to reach whoever leads now (§IV: "the
// multicasting process can always send the message to all the processes in
// a given group").
func (r *Replica) retry(id mcast.MsgID, fx *node.Effects) {
	if !r.px.Leading() {
		return
	}
	app, ok := r.st.inProgress(id)
	if !ok {
		return
	}
	r.redrives[id]++
	r.obs.MarkMsg(obs.EventRetransmit, id)
	r.redrive(app, r.redrives[id] > 2, fx)
}

// redrive is one retry round, also FastCast's re-announcement on taking
// over: our timestamp to the destination leaders, the message itself to
// the other groups, and the next round armed.
func (r *Replica) redrive(app mcast.AppMsg, blanket bool, fx *node.Effects) {
	r.st.announce(app.ID, app.Dest, blanket, fx)
	for _, g := range app.Dest {
		if g == r.group {
			continue
		}
		if blanket {
			fx.SendAll(r.top.Members(g), msgs.Multicast{M: app})
		} else {
			fx.Send(r.curLeader[g], msgs.Multicast{M: app})
		}
	}
	r.armRetry(app.ID, fx)
}

func (r *Replica) armRetry(id mcast.MsgID, fx *node.Effects) {
	if r.retryEvery > 0 {
		fx.SetTimer(r.retryEvery, node.TimerRetry, uint64(id))
	}
}

// sendLeaders sends m to the leader guess of every group of dest (our own
// group's is this replica, a zero-latency self-send, for uniformity with
// Fig. 1 line 12), or to every member of dest when blanket.
func (r *Replica) sendLeaders(dest mcast.GroupSet, blanket bool, m msgs.Message, fx *node.Effects) {
	if blanket {
		fx.SendGroups(r.top, dest, m)
		return
	}
	for _, g := range dest {
		if g == r.group {
			fx.Send(r.pid, m)
		} else {
			fx.Send(r.curLeader[g], m)
		}
	}
}

// onLead runs when this replica completes a leader change: the Paxos log
// has been recovered, so the state machine is authoritative; timestamp
// exchanges and commit proposals are soft state and must be repeated.
func (r *Replica) onLead(fx *node.Effects) {
	clear(r.commitVec)
	r.st.lead(fx)
}

// deliver hands d to the application — unless it saw d before a restart
// (the recovered frontier covers it) — and drops d's soft state.
func (r *Replica) deliver(d mcast.Delivery, fx *node.Effects) {
	id := d.Msg.ID
	if r.maxDelivered.Less(d.GTS) {
		r.maxDelivered = d.GTS
		// The advanced frontier is durable before the application sees the
		// delivery, so a replayed store never re-delivers.
		if r.durable {
			fx.Persist(wal.Entry{Kind: wal.EntryFrontier, Max: d.GTS})
		}
		if r.obs != nil {
			r.obs.Stage(obs.StageDeliver, id, r.stageAt(id))
		}
		batch.ExpandInto(fx, d)
		fx.Send(id.Sender(), msgs.ClientReply{ID: id, Group: r.group})
	}
	r.release(id)
}

// release is the one place a message's soft state ends.
func (r *Replica) release(id mcast.MsgID) {
	delete(r.proposals, id)
	delete(r.commitVec, id)
	delete(r.redrives, id)
	delete(r.obsAt, id)
	r.st.release(id)
}

// stageAt returns the stage-timestamp cell for id, creating it on demand.
func (r *Replica) stageAt(id mcast.MsgID) *time.Duration {
	at, ok := r.obsAt[id]
	if !ok {
		if r.obsAt == nil {
			r.obsAt = make(map[mcast.MsgID]*time.Duration)
		}
		at = new(time.Duration)
		r.obsAt[id] = at
	}
	return at
}

var (
	_ node.Handler = (*Replica)(nil)
	_ paxos.App    = (*Replica)(nil)
)
