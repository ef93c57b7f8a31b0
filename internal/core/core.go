package core

import (
	"fmt"
	"sort"
	"time"

	"wbcast/internal/batch"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/ordering"
	"wbcast/internal/wal"
)

// Status is the replica's role (Fig. 3).
type Status uint8

// Replica statuses.
const (
	StatusFollower Status = iota + 1
	StatusLeader
	StatusRecovering
)

func (s Status) String() string {
	switch s {
	case StatusFollower:
		return "FOLLOWER"
	case StatusLeader:
		return "LEADER"
	case StatusRecovering:
		return "RECOVERING"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Config parametrises a Replica. The zero value of the timing fields
// disables the corresponding background behaviour, which is what
// deterministic unit tests want; production configurations should set all
// of them (see DefaultConfig).
type Config struct {
	// PID is this replica's process ID; it must belong to a group of Top.
	PID mcast.ProcessID
	// Top is the static group topology.
	Top *mcast.Topology
	// RetryInterval re-sends MULTICAST for messages stuck in PROPOSED or
	// ACCEPTED (Fig. 4 line 32). Zero disables leader-side retries.
	RetryInterval time.Duration
	// HeartbeatInterval is the leader's heartbeat period. Zero disables
	// heartbeats, failure detection and automatic leader election.
	HeartbeatInterval time.Duration
	// SuspectTimeout is how long after the last heartbeat of its ballot a
	// replica starts leader recovery; the member of group rank k waits
	// k·HeartbeatInterval/2 longer (node.Suspicion). Defaults to
	// 4×HeartbeatInterval.
	SuspectTimeout time.Duration
	// GCInterval drives garbage collection of delivered messages. Zero
	// disables GC.
	GCInterval time.Duration
	// ColdStart, when true, starts every replica as a follower with
	// cballot = ⊥; a leader must be established by recovery (driven by the
	// failure detector, or by tests). When false, replicas boot
	// pre-synchronised into the group's initial ballot (1, first member) —
	// equivalent to a completed recovery over the empty state.
	ColdStart bool
	// Obs is the replica's instrumentation handle; nil disables metrics
	// and tracing. The handle's clock is the runtime's injected
	// observability clock, so the handler itself still never reads real
	// time (node.Handler contract).
	Obs *obs.Proto
	// Durable, when true, emits a persist effect for every crash-surviving
	// state transition — ballot votes, ACCEPTED/COMMITTED records, the
	// delivery frontier, state installs and prunes — each ordered before
	// the message or delivery it backs (the hosting runtime syncs persist
	// effects first). When false, no persist effects are emitted and a
	// restart loses all protocol state.
	Durable bool
	// Recovered, if non-empty, seeds the replica from the durable state a
	// Storage replayed: promise pair, clock, message records and delivery
	// frontier. The replica always restarts as a follower — leadership is
	// re-established by recovery, never resumed — and relies on the
	// existing catch-up paths (heartbeat-ack replay, state transfer) for
	// whatever the log missed.
	Recovered *wal.State
	// AppGCHorizon, when true, additionally gates pruning on the
	// application durability horizon raised by node.GCHorizon inputs: a
	// delivered record is only discarded once its GTS is at or below the
	// horizon. An application that replays the protocol's records at
	// recovery (e.g. the kv engine) raises the horizon as its own
	// snapshots advance, so GC can never outrun what the app has made
	// durable in its own right. Until the first GCHorizon input arrives
	// nothing is pruned.
	AppGCHorizon bool
	// Conflicts, when non-nil, switches the replica to conflict-aware
	// (generic multicast) delivery: committed messages are released as soon
	// as their order against all *conflicting* messages is settled, without
	// waiting for smaller timestamps of commuting messages (conflict.go).
	// The holder's relation may be replaced at runtime (tightening the
	// relation mid-stream is always safe; the protocol only ever
	// over-approximates conflicts). Conflict mode disables GC regardless of
	// GCInterval.
	Conflicts *mcast.ConflictHolder
}

// DefaultConfig returns a production-style configuration for the given
// replica, with timing derived from the expected network delay delta.
func DefaultConfig(pid mcast.ProcessID, top *mcast.Topology, delta time.Duration) Config {
	return Config{
		PID:               pid,
		Top:               top,
		RetryInterval:     20 * delta,
		HeartbeatInterval: 10 * delta,
		SuspectTimeout:    40 * delta,
		GCInterval:        50 * delta,
	}
}

// mstate is the per-message state: the Phase/LocalTS/GlobalTS/Delivered
// entries of Fig. 3 plus the bookkeeping for collecting ACCEPTs and
// ACCEPT_ACKs.
type mstate struct {
	app    mcast.AppMsg
	hasApp bool
	phase  msgs.Phase
	lts    mcast.Timestamp
	gts    mcast.Timestamp
	// delivered is this replica's Delivered[m] flag.
	delivered bool
	// logged records that this replica wrote m's COMMITTED record when it
	// committed m (evalCommit), so its own DELIVER need not repeat it.
	logged bool
	// accepts holds the latest ACCEPT received from each destination
	// group's leader: the proposal Lts(g) and the ballot Bal(g) it was made
	// in. Higher ballots supersede lower ones. Parallel to app.Dest; nil
	// until the first ACCEPT.
	accepts []acceptInfo
	// ackVecs holds, per process, the ballot vector of the latest
	// ACCEPT_ACK received from it (leader side, Fig. 4 line 17). Parallel to
	// the members of app.Dest's groups, group after group (ackSlot); nil
	// until the first ACCEPT_ACK.
	ackVecs [][]msgs.GroupBallot
	// vec caches the sorted ballot vector assembled from accepts. It is
	// invalidated whenever a stored ACCEPT changes, so the commit check —
	// which runs once per ACCEPT_ACK — does not rebuild and re-sort it
	// every time.
	vec []msgs.GroupBallot
	// retries counts leader-side MULTICAST re-sends, used to fall back
	// from the Cur_leader guess to whole-group blanket sends.
	retries int
	// at is the observability timestamp of the message's latest stage
	// transition at this replica (zero when observability is off).
	at time.Duration
}

type acceptInfo struct {
	ok  bool // an ACCEPT from this group has arrived
	bal mcast.Ballot
	lts mcast.Timestamp
}

// accepted reports whether an ACCEPT from every destination group has
// arrived ("received ACCEPT(m, g, Bal(g), Lts(g)) for every g ∈ dest(m)").
func (st *mstate) accepted() bool {
	for i := range st.accepts {
		if !st.accepts[i].ok {
			return false
		}
	}
	return st.accepts != nil
}

// accept returns the stored ACCEPT of destination group g (the zero value
// if none has arrived, or g is no destination).
func (st *mstate) accept(g mcast.GroupID) acceptInfo {
	for i := range st.accepts {
		if st.app.Dest[i] == g {
			return st.accepts[i]
		}
	}
	return acceptInfo{}
}

// Replica is one white-box multicast process. It implements node.Handler.
// All state is confined to the handler; runtimes serialise calls.
type Replica struct {
	cfg   Config
	pid   mcast.ProcessID
	group mcast.GroupID
	// groupPeers is Top.Peers(pid): this replica's group minus itself,
	// the static recipient list for group-internal fan-outs (heartbeats,
	// state transfer).
	groupPeers []mcast.ProcessID

	// Fig. 3 variables.
	clock           uint64
	status          Status
	cballot         mcast.Ballot
	ballot          mcast.Ballot
	curLeader       map[mcast.GroupID]mcast.ProcessID
	maxDeliveredGTS mcast.Timestamp
	// lastDeliverGTS is the leader-side DELIVER chain cursor: the GTS of
	// the last delivery it replicated, threaded through Deliver.Prev so
	// followers can detect missed DELIVERs (crash-recovery message loss).
	lastDeliverGTS mcast.Timestamp
	// vouchedFrontier is, with AppGCHorizon, the largest delivery frontier
	// logged eagerly: deliveries log theirs lazily, and vouchFrontier
	// catches up before the frontier is reported to another replica.
	vouchedFrontier mcast.Timestamp

	state map[mcast.MsgID]*mstate
	// queue implements the delivery rule over the leader's local state
	// (Fig. 4 lines 21 and 66). Maintained only while leading; rebuilt
	// from state when leadership is (re-)established.
	queue *ordering.Queue

	// Recovery bookkeeping (recovery.go).
	nlAcks map[mcast.ProcessID]msgs.NewLeaderAck
	nsAcks map[mcast.ProcessID]bool
	// orphans are the application messages this candidate held only in phase
	// START — learnt from other groups' ACCEPTs, never proposed here — when
	// the merged state replaced its own; it re-multicasts them on taking over.
	orphans []mcast.AppMsg

	// Liveness bookkeeping (liveness.go).
	suspect node.Suspicion
	// deliveredWM tracks each group member's delivery watermark (leader).
	deliveredWM map[mcast.ProcessID]mcast.Timestamp
	// lastAckWM remembers each member's previous heartbeat-ack watermark:
	// a watermark that fails to advance between acks marks a stalled
	// follower needing the catch-up replay. Merely trailing is normal —
	// followers deliver one hop after the leader.
	lastAckWM map[mcast.ProcessID]mcast.Timestamp
	// groupWM tracks every group's delivery watermark, fed by GCMark.
	groupWM map[mcast.GroupID]mcast.Timestamp
	// appHorizon is the application durability horizon (monotone, raised
	// by node.GCHorizon inputs; only consulted when cfg.AppGCHorizon).
	appHorizon mcast.Timestamp
	// appHorizonSet records whether any GCHorizon input has arrived; with
	// AppGCHorizon on, nothing is pruned before the first one.
	appHorizonSet bool
	// pruned counts messages garbage-collected at this replica.
	pruned int
	// pruneHook, when set (OnPrune), is told of each message as it is pruned.
	pruneHook func(mcast.AppMsg)

	// Conflict-mode bookkeeping (conflict.go); unused otherwise.
	//
	// pendRel indexes the tracked messages with a payload that are not yet
	// released/applied here — the candidates and blockers of the release
	// scan.
	pendRel map[mcast.MsgID]*mstate
	// relSeq/relLog are the leader's per-ballot release sequence: release
	// i (1-based) carried Seq i and message relLog[i-1].
	relSeq uint64
	relLog []mcast.MsgID
	// lastSeq is this replica's cursor over the current ballot's release
	// sequence (the conflict-mode replacement for the GTS frontier).
	lastSeq uint64
	// lastAckSeq remembers each member's previous heartbeat-ack cursor
	// (leader): a non-advancing cursor marks a stalled follower.
	lastAckSeq map[mcast.ProcessID]uint64
	// applied marks messages handed to the application at this replica. It
	// outlives ballot changes and wholesale state installs — a committed
	// record can transiently drop out of a merged state and reappear with
	// the same stamps — and is the authoritative re-delivery guard.
	applied map[mcast.MsgID]bool

	// replyQ holds, per client, the IDs this replica delivered as a
	// non-leader since the last TimerReplies flush (reply). A slice in
	// first-queued order, not a map: the flush order reaches the wire.
	replyQ []queuedReplies
}

// queuedReplies is one client's pending ClientReplies message.
type queuedReplies struct {
	to  mcast.ProcessID
	ids []mcast.MsgID
}

// NewReplica constructs a white-box replica.
func NewReplica(cfg Config) (*Replica, error) {
	if cfg.Top == nil {
		return nil, fmt.Errorf("core: nil topology")
	}
	g := cfg.Top.GroupOf(cfg.PID)
	if g == mcast.NoGroup {
		return nil, fmt.Errorf("core: process %d is not a member of any group", cfg.PID)
	}
	if cfg.Conflicts != nil {
		// Conflict mode never prunes: the release log and the applied set
		// reference every delivered message (conflict.go).
		cfg.GCInterval = 0
	}
	r := &Replica{
		cfg:         cfg,
		pid:         cfg.PID,
		group:       g,
		status:      StatusFollower,
		curLeader:   make(map[mcast.GroupID]mcast.ProcessID),
		state:       make(map[mcast.MsgID]*mstate),
		queue:       ordering.NewQueue(),
		nlAcks:      make(map[mcast.ProcessID]msgs.NewLeaderAck),
		nsAcks:      make(map[mcast.ProcessID]bool),
		deliveredWM: make(map[mcast.ProcessID]mcast.Timestamp),
		lastAckWM:   make(map[mcast.ProcessID]mcast.Timestamp),
		groupWM:     make(map[mcast.GroupID]mcast.Timestamp),
		suspect:     node.NewSuspicion(cfg.HeartbeatInterval, cfg.SuspectTimeout, cfg.Top.Rank(cfg.PID)),
	}
	if cfg.Conflicts != nil {
		r.pendRel = make(map[mcast.MsgID]*mstate)
		r.lastAckSeq = make(map[mcast.ProcessID]uint64)
		r.applied = make(map[mcast.MsgID]bool)
	}
	r.groupPeers = cfg.Top.Peers(r.pid)
	for gid := mcast.GroupID(0); int(gid) < cfg.Top.NumGroups(); gid++ {
		r.curLeader[gid] = cfg.Top.InitialLeader(gid)
	}
	if !cfg.ColdStart {
		// Pre-synchronised bootstrap: equivalent to having completed a
		// recovery of the initial ballot over the empty state.
		r.cballot = cfg.Top.InitialBallot(g)
		r.ballot = r.cballot
		if r.cballot.Leader() == r.pid {
			r.status = StatusLeader
		}
	}
	if rs := cfg.Recovered; rs != nil && !rs.Empty() {
		// Crash recovery: replayed durable state overrides the bootstrap.
		// The initial ballot is common knowledge (derived from the
		// topology), so it acts as a floor under the recovered promise pair
		// even though no entry records it explicitly.
		if r.cballot.Less(rs.CBallot) {
			r.cballot = rs.CBallot
		}
		if r.ballot.Less(rs.Ballot) {
			r.ballot = rs.Ballot
		}
		if r.ballot.Less(r.cballot) {
			r.ballot = r.cballot
		}
		r.clock = rs.Clock
		r.maxDeliveredGTS = rs.MaxDelivered
		r.vouchedFrontier = rs.MaxDelivered
		r.lastDeliverGTS = rs.MaxDelivered
		if r.conflictMode() {
			// The durable applied set, not the frontier, says what the
			// application has seen (releases are not in GTS order).
			for id := range rs.Delivered {
				r.applied[id] = true
			}
		}
		for id, rec := range rs.Records {
			st := &mstate{app: rec.M, hasApp: true, phase: rec.Phase, lts: rec.LTS, gts: rec.GTS}
			if r.conflictMode() {
				st.delivered = r.applied[id]
			} else if rec.Phase == msgs.PhaseCommitted && !r.maxDeliveredGTS.Less(rec.GTS) {
				st.delivered = true
			}
			r.state[id] = st
			r.trackPending(id, st)
			// Keep the clock monotone with every persisted timestamp even
			// when the clock advance itself raced the crash.
			if r.clock < rec.LTS.Time {
				r.clock = rec.LTS.Time
			}
			if r.clock < rec.GTS.Time {
				r.clock = rec.GTS.Time
			}
		}
		if r.clock < r.maxDeliveredGTS.Time {
			r.clock = r.maxDeliveredGTS.Time
		}
		// Never restart leading: a recovered leader's proposal clock may
		// have outrun its last persisted entry, so leadership must be
		// re-earned through an election (which re-derives the clock from a
		// quorum). Until then the replica follows its recovered cballot and
		// catches up on missed DELIVERs via the heartbeat-ack replay. A
		// replica that had promised a ballot beyond the one it participates
		// in restarts as it crashed, RECOVERING: the promise was never to
		// accept below it, whether or not that candidate got anywhere.
		r.status = StatusFollower
		if r.cballot.Less(r.ballot) {
			r.status = StatusRecovering
		}
	}
	return r, nil
}

// ID implements node.Handler.
func (r *Replica) ID() mcast.ProcessID { return r.pid }

// Status returns the replica's current role (for tests and tools).
func (r *Replica) Status() Status { return r.status }

// CBallot returns the replica's current ballot (for tests and tools).
func (r *Replica) CBallot() mcast.Ballot { return r.cballot }

// Clock returns the replica's logical clock (for tests and tools).
func (r *Replica) Clock() uint64 { return r.clock }

// Phase returns the replica's phase for message id (for tests and tools).
func (r *Replica) Phase(id mcast.MsgID) msgs.Phase {
	if st, ok := r.state[id]; ok {
		return st.phase
	}
	return msgs.PhaseStart
}

// Pruned returns how many messages this replica has garbage-collected.
func (r *Replica) Pruned() int { return r.pruned }

// StateSize returns the number of tracked messages (for GC tests).
func (r *Replica) StateSize() int { return len(r.state) }

// Undelivered reports whether this replica holds id's message and has not
// delivered it (for the simulator's GC oracle).
func (r *Replica) Undelivered(id mcast.MsgID) bool {
	st, ok := r.state[id]
	return ok && st.hasApp && !r.deliveredHere(id, st)
}

// OnPrune has f called with each message this replica prunes, as it
// discards it (for the simulator's GC oracle; nil turns it off).
func (r *Replica) OnPrune(f func(mcast.AppMsg)) { r.pruneHook = f }

// Handle implements node.Handler.
func (r *Replica) Handle(in node.Input, fx *node.Effects) {
	switch in := in.(type) {
	case node.Start:
		r.onStart(fx)
	case node.Recv:
		r.onRecv(in, fx)
	case node.Timer:
		r.onTimer(in, fx)
	case node.GCHorizon:
		if r.appHorizon.Less(in.TS) {
			r.appHorizon = in.TS
		}
		r.appHorizonSet = true
	}
}

func (r *Replica) onRecv(in node.Recv, fx *node.Effects) {
	switch m := in.Msg.(type) {
	case msgs.Multicast:
		r.onMulticast(in.From, m.M, fx)
	case msgs.Accept:
		r.onAccept(m, fx)
	case msgs.AcceptAck:
		r.onAcceptAck(in.From, m, fx)
	case msgs.Deliver:
		r.onDeliver(m, fx)
	case msgs.NewLeader:
		r.onNewLeader(in.From, m, fx)
	case msgs.NewLeaderAck:
		r.onNewLeaderAck(in.From, m, fx)
	case msgs.NewState:
		r.onNewState(in.From, m, fx)
	case msgs.NewStateAck:
		r.onNewStateAck(in.From, m, fx)
	case msgs.Heartbeat:
		r.onHeartbeat(in.From, m, fx)
	case msgs.HeartbeatAck:
		r.onHeartbeatAck(in.From, m, fx)
	case msgs.GCMark:
		r.onGCMark(m)
	case msgs.Prune:
		r.onPrune(m, fx)
	}
}

// onMulticast handles MULTICAST (Fig. 4 lines 3–9). Duplicates (client
// retries, leader retries after recovery) re-send ACCEPT with the stored
// local timestamp, preserving Invariant 1.
func (r *Replica) onMulticast(from mcast.ProcessID, app mcast.AppMsg, fx *node.Effects) {
	if r.status != StatusLeader { // line 4
		return
	}
	if st, ok := r.state[app.ID]; ok && from == app.ID.Sender() && r.deliveredHere(app.ID, st) {
		// The sender retries a message this group has delivered: it lost
		// the replies, and another ACCEPT round would never answer it. With
		// more destination groups the ACCEPT still goes out — a group that
		// has yet to deliver may be waiting for exactly this proposal.
		fx.Send(from, msgs.ClientReply{ID: app.ID, Group: r.group, Bal: r.cballot})
		if len(st.app.Dest) == 1 {
			return
		}
	}
	st := r.get(app.ID)
	if !st.hasApp {
		st.app = app
		st.hasApp = true
		r.cfg.Obs.Begin(app.ID, &st.at)
		r.trackPending(app.ID, st)
	}
	if st.phase == msgs.PhaseStart { // line 5
		r.clock++                                               // line 6
		st.lts = mcast.Timestamp{Time: r.clock, Group: r.group} // line 7
		st.phase = msgs.PhaseProposed                           // line 8
		r.cfg.Obs.Stage(obs.StagePropose, app.ID, &st.at)
		r.queue.SetPending(app.ID, st.lts)
		r.armRetry(app.ID, fx)
	}
	// line 9: send ACCEPT to every process of every destination group,
	// with the locally stored timestamp (fresh or replayed). The whole
	// fan-out is one Send, so network runtimes serialise the ACCEPT once.
	acc := msgs.Accept{M: st.app, Group: r.group, Bal: r.cballot, LTS: st.lts}
	fx.SendGroups(r.cfg.Top, st.app.Dest, acc)
}

// onAccept stores an ACCEPT and acts once one has arrived from the leader of
// every destination group (Fig. 4 lines 10–16).
func (r *Replica) onAccept(a msgs.Accept, fx *node.Effects) {
	if r.status == StatusRecovering {
		// Guard of line 11; retries re-establish liveness afterwards.
		return
	}
	st := r.get(a.M.ID)
	if !st.hasApp {
		st.app = a.M
		st.hasApp = true
		r.cfg.Obs.Begin(a.M.ID, &st.at)
		r.trackPending(a.M.ID, st)
	}
	if st.accepts == nil {
		st.accepts = make([]acceptInfo, len(st.app.Dest))
	}
	for i, g := range st.app.Dest {
		if g != a.Group {
			continue
		}
		if prev := st.accepts[i]; prev.ok && a.Bal.Less(prev.bal) {
			return // stale proposal from a deposed leader of that group
		}
		st.accepts[i] = acceptInfo{ok: true, bal: a.Bal, lts: a.LTS}
	}
	st.vec = nil // the cached ballot vector is stale
	// Track the other groups' leadership for Cur_leader (retry targets).
	r.noteLeader(a.Group, a.Bal)
	r.evalAccepts(st, fx)
}

// evalAccepts fires the "received ACCEPT from every g ∈ dest(m)" guard. The
// ballot of our own group's ACCEPT must match cballot (line 11); remote
// ballots are not checked (see the paper's discussion of normal operation —
// they may come from deposed leaders, which is harmless because clocks may
// always increase).
func (r *Replica) evalAccepts(st *mstate, fx *node.Effects) {
	if !st.hasApp || !st.accepted() {
		return
	}
	own := st.accept(r.group)
	if !own.ok || own.bal != r.cballot {
		return
	}
	if st.phase == msgs.PhaseStart || st.phase == msgs.PhaseProposed { // line 11
		st.phase = msgs.PhaseAccepted // line 12
		st.lts = own.lts              // line 13
		r.cfg.Obs.Stage(obs.StageAccept, st.app.ID, &st.at)
		// The ACCEPT_ACK below promises this replica accepted lts; the
		// record must survive a crash or a recovery quorum containing this
		// replica could resurrect a forgotten timestamp (Invariant 5).
		r.persistRecord(st, fx, false)
		if r.status == StatusLeader {
			r.queue.SetPending(st.app.ID, st.lts)
		}
	}
	// line 14: speculative clock advance to the (tentative) global
	// timestamp. Safe even if remote proposals are later superseded.
	var max mcast.Timestamp
	for _, ai := range st.accepts {
		if max.Less(ai.lts) {
			max = ai.lts
		}
	}
	if r.clock < max.Time {
		r.clock = max.Time
	}
	if r.cfg.Durable && st.lts.Time < max.Time {
		// The acks below also promise that this replica's clock has passed
		// the tentative global timestamp: a leader elected from a quorum of
		// logs must propose above every timestamp a commit may have taken.
		// The record carries only this group's own proposal, so a larger
		// timestamp is logged beside it, and as eagerly.
		fx.Persist(wal.Entry{Kind: wal.EntryBallot, Bal: r.ballot, CBal: r.cballot, Clock: r.clock})
	}
	// lines 15–16: acknowledge to the leader of each proposal, tagged with
	// the full ballot vector. Re-evaluation after a superseding ACCEPT
	// re-sends acks with the updated vector.
	vec := r.ballotVector(st)
	ack := msgs.AcceptAck{ID: st.app.ID, Group: r.group, Bals: vec}
	for _, ai := range st.accepts {
		fx.Send(ai.bal.Leader(), ack)
	}
}

// ballotVector returns the sorted ballot vector of the stored accepts. The
// vector is cached on the message state and invalidated when an ACCEPT
// changes, so the per-ACK commit check reuses it instead of rebuilding and
// re-sorting (onAcceptAck runs once per group member per message).
func (r *Replica) ballotVector(st *mstate) []msgs.GroupBallot {
	if st.vec != nil {
		return st.vec
	}
	vec := make([]msgs.GroupBallot, 0, len(st.app.Dest))
	for i, g := range st.app.Dest {
		vec = append(vec, msgs.GroupBallot{Group: g, Bal: st.accepts[i].bal})
	}
	// Dest is normally sorted (GroupSet invariant); sort defensively for
	// destination sets that arrived denormalised off the wire.
	if !sort.SliceIsSorted(vec, func(i, j int) bool { return vec[i].Group < vec[j].Group }) {
		sort.Slice(vec, func(i, j int) bool { return vec[i].Group < vec[j].Group })
	}
	st.vec = vec
	return vec
}

// onAcceptAck collects ACCEPT_ACKs and commits once matching acks have
// arrived from a quorum of every destination group, including this leader
// itself (Fig. 4 lines 17–23).
func (r *Replica) onAcceptAck(from mcast.ProcessID, a msgs.AcceptAck, fx *node.Effects) {
	st, ok := r.state[a.ID]
	if !ok {
		return // pruned or unknown (stale ack)
	}
	// Only members of the destination groups are counted — and an ack
	// answers this process's own ACCEPT, so the message, and with it the
	// groups, are known here.
	slot := r.ackSlot(st, from)
	if slot < 0 {
		return
	}
	if st.ackVecs == nil {
		n := 0
		for _, g := range st.app.Dest {
			n += r.cfg.Top.GroupSize(g)
		}
		st.ackVecs = make([][]msgs.GroupBallot, n)
	}
	st.ackVecs[slot] = a.Bals
	r.evalCommit(st, fx)
}

// ackSlot returns p's index in st.ackVecs — the members of the destination
// groups, group after group — or -1 if p belongs to none of them.
func (r *Replica) ackSlot(st *mstate, p mcast.ProcessID) int {
	base := 0
	for _, g := range st.app.Dest {
		members := r.cfg.Top.Members(g)
		for i, q := range members {
			if q == p {
				return base + i
			}
		}
		base += len(members)
	}
	return -1
}

// evalCommit checks the commit guard of line 17 and performs lines 18–23.
func (r *Replica) evalCommit(st *mstate, fx *node.Effects) {
	if r.status != StatusLeader || st.phase == msgs.PhaseCommitted || !st.hasApp {
		return
	}
	if !st.accepted() || st.ackVecs == nil {
		return
	}
	if st.accept(r.group).bal != r.cballot { // line 18
		return
	}
	vec := r.ballotVector(st)
	// The commit quorum must include this leader itself (line 17
	// "including myself"): Invariant 5 hinges on the leader's own pending
	// set being part of the replicated prefix.
	if own := r.ackSlot(st, r.pid); own < 0 || !vecEqual(st.ackVecs[own], vec) {
		return
	}
	acks := st.ackVecs
	for _, g := range st.app.Dest {
		size, n := r.cfg.Top.GroupSize(g), 0
		for _, bals := range acks[:size] {
			if vecEqual(bals, vec) {
				n++
			}
		}
		if n < r.cfg.Top.QuorumSize(g) {
			return
		}
		acks = acks[size:]
	}
	// lines 19–20.
	var gts mcast.Timestamp
	for _, ai := range st.accepts {
		if gts.Less(ai.lts) {
			gts = ai.lts
		}
	}
	st.gts = gts
	st.phase = msgs.PhaseCommitted
	r.cfg.Obs.Stage(obs.StageCommit, st.app.ID, &st.at)
	// Logged once, here. The DELIVER fan-out does not vouch for the record:
	// the global timestamp follows from ACCEPTED records, and clocks, that are
	// durable at a quorum of every destination group, so a recovery recomputes
	// it. With an application frontier the record rides the next sync; without
	// one it backs the library's own exactly-once and stays eager, as in
	// conflict mode, which is unchanged.
	r.persistRecord(st, fx, r.cfg.AppGCHorizon && !r.conflictMode())
	st.logged = true
	r.queue.Commit(st.app.ID, gts)
	r.drain(fx) // lines 21–23
}

// drain delivers every committed message allowed by the delivery rule, in
// global-timestamp order, by replicating DELIVER to the whole group
// (Fig. 4 lines 21–23 and 66–68). The leader's own delivery happens when it
// processes its self-addressed DELIVER. In conflict mode the relaxed rule
// of drainConflict applies instead.
func (r *Replica) drain(fx *node.Effects) {
	if r.conflictMode() {
		r.drainConflict(fx)
		return
	}
	for {
		id, gts, ok := r.queue.PopDeliverable()
		if !ok {
			return
		}
		st := r.state[id]
		st.delivered = true // line 22
		del := msgs.Deliver{ID: id, Bal: r.cballot, LTS: st.lts, GTS: gts, Prev: r.lastDeliverGTS}
		r.lastDeliverGTS = gts
		fx.SendAll(r.cfg.Top.Members(r.group), del) // line 23
	}
}

// onDeliver applies a replicated delivery decision (Fig. 4 lines 24–31).
// Duplicates — possible after leader changes, when a new leader re-delivers
// from the beginning — are rejected by the max_delivered_gts check.
func (r *Replica) onDeliver(d msgs.Deliver, fx *node.Effects) {
	if r.conflictMode() {
		r.onDeliverConflict(d, fx)
		return
	}
	if r.status == StatusRecovering {
		return // guard of line 25
	}
	if r.cballot != d.Bal { // line 25
		return
	}
	if !r.maxDeliveredGTS.Less(d.GTS) { // line 25: max_delivered_gts < gts
		return
	}
	if r.maxDeliveredGTS.Less(d.Prev) {
		// The chain predecessor was never delivered here: this replica
		// missed a DELIVER (lost while it was down — impossible under the
		// paper's reliable channels). Delivering now would open a gap in the
		// group's delivery sequence; drop instead and wait for the leader's
		// heartbeat-ack-driven catch-up, which replays the missing prefix.
		return
	}
	st := r.get(d.ID)
	if !st.hasApp {
		// Cannot happen over FIFO channels: the leader's ACCEPT or
		// NEW_STATE for this message precedes its DELIVER on the same
		// link. Drop defensively; a retry will re-deliver.
		return
	}
	st.phase = msgs.PhaseCommitted // line 26
	st.lts = d.LTS                 // line 27
	st.gts = d.GTS                 // line 28
	if r.clock < d.GTS.Time {      // line 29
		r.clock = d.GTS.Time
	}
	r.maxDeliveredGTS = d.GTS // line 30
	st.delivered = true
	r.cfg.Obs.Stage(obs.StageDeliver, d.ID, &st.at)
	// The committed record and the advanced frontier are durable before the
	// application sees the delivery: a restart replays the frontier and
	// never hands the message out twice. An application that keeps its own
	// frontier (AppGCHorizon) ignores a repeat, and the delivery itself
	// vouches for neither entry to another process — both follow from the
	// quorum-durable ACCEPTED records — so there they ride the next sync.
	if !st.logged {
		r.persistRecord(st, fx, r.cfg.AppGCHorizon)
	}
	if r.cfg.Durable {
		r.persist(fx, r.cfg.AppGCHorizon, wal.Entry{Kind: wal.EntryFrontier, Max: d.GTS})
	}
	r.queue.Remove(d.ID)
	// line 31, unpacking batch envelopes into per-payload deliveries.
	batch.ExpandInto(fx, mcast.Delivery{Msg: st.app, GTS: d.GTS})
	r.reply(d.ID, fx)
}

// deliveredHere reports whether this replica has handed st's message to its
// application. A leader marks Delivered[m] when it replicates the DELIVER
// (drain), one self-addressed message before it delivers locally.
func (r *Replica) deliveredHere(id mcast.MsgID, st *mstate) bool {
	if r.conflictMode() {
		return r.applied[id]
	}
	return st.delivered && !r.maxDeliveredGTS.Less(st.gts)
}

// reply tells the sender of id that this group delivered it. The leader
// delivers first (at commit; followers one hop later) and answers at once:
// that reply is the client-perceived latency. A follower's reply only backs
// it up, so it is queued per client and leaves as one ClientReplies message
// when TimerReplies fires, a heartbeat interval after the first queued ID.
// Without a heartbeat interval there are no background timers to flush on,
// and every replica answers at once.
func (r *Replica) reply(id mcast.MsgID, fx *node.Effects) {
	to := id.Sender()
	if r.status == StatusLeader || r.cfg.HeartbeatInterval == 0 {
		fx.Send(to, msgs.ClientReply{ID: id, Group: r.group, Bal: r.cballot})
		return
	}
	if len(r.replyQ) == 0 {
		fx.SetTimer(r.cfg.HeartbeatInterval, node.TimerReplies, 0)
	}
	for i := range r.replyQ {
		if q := &r.replyQ[i]; q.to == to {
			q.ids = append(q.ids, id)
			return
		}
	}
	r.replyQ = append(r.replyQ, queuedReplies{to: to, ids: []mcast.MsgID{id}})
}

// flushReplies sends every queued ClientReplies. The ID slices leave with
// their messages (a runtime may hold a send past this call).
func (r *Replica) flushReplies(fx *node.Effects) {
	for _, q := range r.replyQ {
		fx.Send(q.to, msgs.ClientReplies{Group: r.group, Bal: r.cballot, IDs: q.ids})
	}
	clear(r.replyQ)
	r.replyQ = r.replyQ[:0]
}

// retry re-sends MULTICAST for a message stuck in PROPOSED or ACCEPTED
// (Fig. 4 lines 32–34): the paper's unblocking mechanism for partial
// multicasts and post-recovery resumption.
func (r *Replica) retry(id mcast.MsgID, fx *node.Effects) {
	st, ok := r.state[id]
	if !ok || r.status != StatusLeader {
		return
	}
	if st.phase != msgs.PhaseProposed && st.phase != msgs.PhaseAccepted { // line 33
		return
	}
	st.retries++
	r.cfg.Obs.MarkMsg(obs.EventRetransmit, id)
	if st.retries <= 2 { // line 34
		r.toLeaders(st.app, fx)
	} else {
		// The Cur_leader guess may be stale; blanket every destination
		// group in one fan-out (§IV: "the multicasting process can always
		// send the message to all the processes in a given group").
		fx.SendGroups(r.cfg.Top, st.app.Dest, msgs.Multicast{M: st.app})
	}
	r.armRetry(id, fx)
}

// toLeaders sends MULTICAST(app) to Cur_leader[g] of every destination group,
// this replica's own included.
func (r *Replica) toLeaders(app mcast.AppMsg, fx *node.Effects) {
	for _, g := range app.Dest {
		fx.Send(r.curLeader[g], msgs.Multicast{M: app})
	}
}

func (r *Replica) armRetry(id mcast.MsgID, fx *node.Effects) {
	if r.cfg.RetryInterval > 0 {
		fx.SetTimer(r.cfg.RetryInterval, node.TimerRetry, uint64(id))
	}
}

// noteLeader updates Cur_leader from an observed ballot of group g.
func (r *Replica) noteLeader(g mcast.GroupID, b mcast.Ballot) {
	if b.IsZero() {
		return
	}
	r.curLeader[g] = b.Leader()
}

// persistRecord logs st's current record; called before the ACCEPT_ACK or
// delivery the record backs leaves the process.
func (r *Replica) persistRecord(st *mstate, fx *node.Effects, lazy bool) {
	if !r.cfg.Durable || !st.hasApp {
		return
	}
	r.persist(fx, lazy, wal.Entry{Kind: wal.EntryRecord, Rec: msgs.MsgRecord{
		M: st.app, Phase: st.phase, LTS: st.lts, GTS: st.gts,
	}})
}

// persist logs e: eagerly when a message released by this call vouches for
// it to another process, lazily (it rides the log's next sync) otherwise.
func (r *Replica) persist(fx *node.Effects, lazy bool, e wal.Entry) {
	if lazy {
		fx.PersistLazy(e)
	} else {
		fx.Persist(e)
	}
}

// vouchFrontier runs before this replica reports its delivery frontier to
// another one (a heartbeat ack, the leader's own term of the GC watermark):
// peers prune on that report, so a frontier only logged lazily so far is
// logged eagerly first — a restart must not fall below what the group has
// already discarded (catchup replays only what the leader still holds).
// Without AppGCHorizon, and in conflict mode, every delivery logs eagerly.
func (r *Replica) vouchFrontier(fx *node.Effects) {
	if r.cfg.Durable && r.cfg.AppGCHorizon && !r.conflictMode() && r.vouchedFrontier.Less(r.maxDeliveredGTS) {
		r.vouchedFrontier = r.maxDeliveredGTS
		fx.Persist(wal.Entry{Kind: wal.EntryFrontier, Max: r.maxDeliveredGTS})
	}
}

func (r *Replica) get(id mcast.MsgID) *mstate {
	st, ok := r.state[id]
	if !ok {
		st = &mstate{}
		r.state[id] = st
	}
	return st
}

func vecEqual(a, b []msgs.GroupBallot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var _ node.Handler = (*Replica)(nil)
