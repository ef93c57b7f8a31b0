package msgs

import (
	"fmt"

	"wbcast/internal/mcast"
)

// Kind identifies the concrete type of a Message on the wire and in logs.
type Kind uint8

// Message kinds. Values are part of the wire format; do not reorder.
const (
	KindMulticast Kind = iota + 1
	KindClientReply
	KindPropose
	KindAccept
	KindAcceptAck
	KindDeliver
	KindNewLeader
	KindNewLeaderAck
	KindNewState
	KindNewStateAck
	KindHeartbeat
	KindHeartbeatAck
	KindPrune
	KindGCMark
	KindP1a
	KindP1b
	KindP2a
	KindP2b
	KindLearn
	KindConfirm
	KindBatch
	KindAckBatch
	KindClientReplies
)

var kindNames = map[Kind]string{
	KindMulticast:     "MULTICAST",
	KindClientReply:   "CLIENT_REPLY",
	KindPropose:       "PROPOSE",
	KindAccept:        "ACCEPT",
	KindAcceptAck:     "ACCEPT_ACK",
	KindDeliver:       "DELIVER",
	KindNewLeader:     "NEWLEADER",
	KindNewLeaderAck:  "NEWLEADER_ACK",
	KindNewState:      "NEW_STATE",
	KindNewStateAck:   "NEWSTATE_ACK",
	KindHeartbeat:     "HEARTBEAT",
	KindHeartbeatAck:  "HEARTBEAT_ACK",
	KindPrune:         "PRUNE",
	KindGCMark:        "GC_MARK",
	KindP1a:           "PAXOS_1A",
	KindP1b:           "PAXOS_1B",
	KindP2a:           "PAXOS_2A",
	KindP2b:           "PAXOS_2B",
	KindLearn:         "PAXOS_LEARN",
	KindConfirm:       "CONFIRM",
	KindBatch:         "BATCH",
	KindAckBatch:      "ACK_BATCH",
	KindClientReplies: "CLIENT_REPLIES",
}

// IsAck reports whether the kind is ack-class: a small fixed-size
// acknowledgement that transports may coalesce into an AckBatch. Ack-class
// messages carry no byte strings, so their decoded form never keeps a
// network frame alive.
func (k Kind) IsAck() bool {
	switch k {
	case KindAcceptAck, KindHeartbeatAck, KindP2b:
		return true
	}
	return false
}

// Vouches reports whether another process acts on a message of this kind in
// a way that is only safe once the sender's log is durable up to the send:
// an acknowledgement a commit or an election rests on, a state install, a
// delivery frontier or watermark peers prune on. The shard driver never
// releases one ahead of an un-synced eager entry (docs/DURABILITY.md, "The
// vouching rule"); every other kind may leave while a sync is in flight.
func (k Kind) Vouches() bool {
	switch k {
	case KindAcceptAck, KindNewLeaderAck, KindNewState, KindNewStateAck,
		KindHeartbeatAck, KindGCMark, KindPrune, KindP1b, KindP2b:
		return true
	}
	return false
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Message is implemented by every protocol message.
type Message interface {
	Kind() Kind
}

// Concerner is implemented by messages whose processing constitutes
// "participating in ordering" a specific application message. The simulator
// uses it to audit genuineness (paper §II): every process that receives a
// concerning message must be in dest(m) or be m's sender.
type Concerner interface {
	Concerns() (mcast.MsgID, bool)
}

// Phase is the processing phase of an application message at a replica
// (paper Fig. 1 and Fig. 3). PhaseStart is the zero value.
type Phase uint8

// Phases in increasing order of progress.
const (
	PhaseStart Phase = iota
	PhaseProposed
	PhaseAccepted
	PhaseCommitted
)

func (ph Phase) String() string {
	switch ph {
	case PhaseStart:
		return "START"
	case PhaseProposed:
		return "PROPOSED"
	case PhaseAccepted:
		return "ACCEPTED"
	case PhaseCommitted:
		return "COMMITTED"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(ph))
	}
}

// GroupBallot pairs a destination group with the ballot its leader proposed
// under; a sorted slice of these is the ballot vector Bal of Fig. 4.
type GroupBallot struct {
	Group mcast.GroupID
	Bal   mcast.Ballot
}

// GroupTS pairs a destination group with the local timestamp it proposed; a
// sorted slice of these is the set {Lts(g) | g ∈ dest(m)}.
type GroupTS struct {
	Group mcast.GroupID
	TS    mcast.Timestamp
}

// MaxGroupTS returns the maximum timestamp in the vector — the global
// timestamp computed from a full set of local proposals.
func MaxGroupTS(v []GroupTS) mcast.Timestamp {
	var max mcast.Timestamp
	for _, gt := range v {
		if max.Less(gt.TS) {
			max = gt.TS
		}
	}
	return max
}

// ---------------------------------------------------------------------------
// Client interface
// ---------------------------------------------------------------------------

// Multicast carries an application message from its sender to the leaders of
// its destination groups (Fig. 4 line 1; also re-sent for message recovery,
// §IV "Message recovery").
type Multicast struct {
	M mcast.AppMsg
}

// ClientReply notifies the sender that a replica in Group delivered the
// message. A client considers the multicast complete when it has a reply
// from every destination group; this matches the paper's client-perceived
// latency metric (first delivery per group, §II). Bal is the replying
// replica's current ballot of Group — its leader is where the client's next
// MULTICAST for that group goes (Cur_leader, Fig. 4 line 2); protocols
// without ballots leave it zero, which teaches the client nothing.
type ClientReply struct {
	ID    mcast.MsgID
	Group mcast.GroupID
	Bal   mcast.Ballot
}

// ClientReplies is a follower's coalesced form of ClientReply: one message
// per client carrying, in delivery order, every ID the replica of Group
// delivered for that client since its last flush. The leader delivers first
// and answers with a ClientReply at once, so these only back it up — they
// reach the client within one heartbeat interval and complete whatever the
// leader's reply did not.
type ClientReplies struct {
	Group mcast.GroupID
	Bal   mcast.Ballot // as in ClientReply
	IDs   []mcast.MsgID
}

// BatchEntry is one application payload carried inside a Batch, tagged with
// the message ID its submitter assigned to it. IDs survive batching so that
// per-payload deliveries and client completions refer to the original
// submission.
type BatchEntry struct {
	ID      mcast.MsgID
	Payload []byte
}

// Batch is the payload container of a batch envelope: the application
// payloads one drain of a client submitted to a common destination set,
// aggregated into a single protocol-level multicast (internal/client). It
// travels wire-encoded inside the AppMsg.Payload of a batch message (whose ID
// is marked by mcast.MakeBatchID), so the ordering protocols treat it as one
// opaque message; the delivery path unpacks it back into per-payload
// deliveries in entry order (internal/batch).
type Batch struct {
	Entries []BatchEntry
}

// ---------------------------------------------------------------------------
// Skeen's protocol and leader-to-leader proposals of the baselines
// ---------------------------------------------------------------------------

// Propose carries group Group's local timestamp proposal for message ID
// (Fig. 1 line 12). FT-Skeen and FastCast use it leader-to-leader with the
// same semantics; in FastCast the timestamp is tentative until confirmed.
type Propose struct {
	ID    mcast.MsgID
	Group mcast.GroupID
	LTS   mcast.Timestamp
}

// Confirm tells the other destination leaders that consensus in Group has
// decided local timestamp LTS for message ID (FastCast, paper §VI).
type Confirm struct {
	ID    mcast.MsgID
	Group mcast.GroupID
	LTS   mcast.Timestamp
}

// ---------------------------------------------------------------------------
// White-box protocol: normal operation (Fig. 4 lines 1–31)
// ---------------------------------------------------------------------------

// Accept is the white-box analogue of Paxos "2a" (Fig. 4 line 9): the leader
// of Group proposes local timestamp LTS for message M in ballot Bal, sent to
// every process in every destination group. It carries the full application
// message so that followers can deliver without further communication.
type Accept struct {
	M     mcast.AppMsg
	Group mcast.GroupID
	Bal   mcast.Ballot
	LTS   mcast.Timestamp
}

// AcceptAck is the white-box analogue of Paxos "2b" (Fig. 4 line 16): the
// sender, a member of Group, acknowledges having accepted the full set of
// local timestamps for message ID proposed in the ballot vector Bals
// (sorted by group).
type AcceptAck struct {
	ID    mcast.MsgID
	Group mcast.GroupID
	Bals  []GroupBallot
}

// Deliver replicates a delivery decision from the leader to its group
// (Fig. 4 line 23): message ID is committed with local timestamp LTS and
// global timestamp GTS under ballot Bal.
//
// Prev chains the group's delivery sequence: it is the GTS of the delivery
// the leader replicated immediately before this one (⊥ at the head of the
// chain). Under the paper's reliable-channel model the chain is redundant;
// under crash-recovery faults (a replica pausing and losing in-flight
// messages, internal/faults) it lets a follower detect that it missed a
// DELIVER — it must then wait for the leader's heartbeat-driven catch-up
// instead of delivering with a gap.
type Deliver struct {
	ID   mcast.MsgID
	Bal  mcast.Ballot
	LTS  mcast.Timestamp
	GTS  mcast.Timestamp
	Prev mcast.Timestamp
	// Seq is the leader's per-ballot release sequence number, used instead
	// of Prev for gap detection under the genmcast (conflict-aware)
	// protocol, where releases are not in GTS order: the i-th DELIVER a
	// leader issues in its current ballot carries Seq = i (1-based).
	// Zero outside conflict mode.
	Seq uint64
}

// ---------------------------------------------------------------------------
// White-box protocol: leader recovery (Fig. 4 lines 35–68)
// ---------------------------------------------------------------------------

// MsgRecord is the per-message state transferred during recovery: the full
// application message plus its phase and timestamps.
type MsgRecord struct {
	M     mcast.AppMsg
	Phase Phase
	LTS   mcast.Timestamp
	GTS   mcast.Timestamp
}

// Clone deep-copies the record's application message, the only part that
// holds a byte slice.
func (r MsgRecord) Clone() MsgRecord {
	r.M = r.M.Clone()
	return r
}

// NewLeader asks the members of the sender's group to join ballot Bal
// (Fig. 4 line 36; analogous to Paxos "1a").
type NewLeader struct {
	Bal mcast.Ballot
}

// NewLeaderAck votes for the new leader of ballot Bal and reports the
// voter's full state (Fig. 4 line 41; analogous to Paxos "1b").
type NewLeaderAck struct {
	Bal   mcast.Ballot
	CBal  mcast.Ballot
	Clock uint64
	State []MsgRecord
}

// NewState pushes the recovered state to the group so that a quorum is in
// sync with the new leader before it resumes normal operation (Fig. 4
// line 56).
type NewState struct {
	Bal   mcast.Ballot
	Clock uint64
	State []MsgRecord
}

// NewStateAck confirms that the sender installed the new state (Fig. 4
// line 62).
type NewStateAck struct {
	Bal mcast.Ballot
}

// ---------------------------------------------------------------------------
// Leader election and garbage collection
// ---------------------------------------------------------------------------

// Heartbeat is broadcast periodically by the leader of Bal to its group; it
// doubles as the liveness signal for the failure detector.
type Heartbeat struct {
	Group mcast.GroupID
	Bal   mcast.Ballot
}

// HeartbeatAck answers a Heartbeat and piggybacks the sender's progress
// frontiers: its delivery watermark Delivered (the highest GTS it has
// delivered — the GC low-water mark, and the anchor for the white-box
// leader's DELIVER catch-up) and, for the Paxos-based baselines, its log
// execution frontier Executed (the next slot it will apply — the anchor for
// Learn retransmission). Both let a leader bring a follower that lost
// messages while paused (crash-recovery faults) back up to date.
type HeartbeatAck struct {
	Group     mcast.GroupID
	Bal       mcast.Ballot
	Delivered mcast.Timestamp
	Executed  uint64
	// Seq is the follower's release-sequence cursor for the leader's
	// current ballot (see Deliver.Seq); the genmcast leader detects stalled
	// followers by a non-advancing Seq. Zero outside conflict mode.
	Seq uint64
}

// GCMark is exchanged between group leaders: every member of Group has
// delivered all messages addressed to it with GTS ≤ Watermark. A message may
// be pruned once every destination group's watermark has passed its GTS.
type GCMark struct {
	Group     mcast.GroupID
	Watermark mcast.Timestamp
}

// Prune distributes the leader's view of every group's delivery watermark to
// its followers. A delivered message m may be pruned once
// ∀g ∈ dest(m): GTS(m) ≤ Marks[g], because then every member of every
// destination group has delivered m and no retry can resurrect it.
type Prune struct {
	Group mcast.GroupID
	Marks []GroupTS
}

// ---------------------------------------------------------------------------
// Transport-level aggregation
// ---------------------------------------------------------------------------

// AckBatch coalesces ack-class messages (ACCEPT_ACK, HEARTBEAT_ACK,
// PAXOS_2B; Kind.IsAck) from one process to another into a single frame,
// cutting per-frame overhead on the quorum-ack fan-in at high client
// counts. It is transport-internal: runtimes build it on the send path
// and expand it back into the individual messages on receipt, so protocol
// handlers never see it.
type AckBatch struct {
	Entries []Message
}

// ---------------------------------------------------------------------------
// Multi-Paxos (substrate of the FT-Skeen and FastCast baselines)
// ---------------------------------------------------------------------------

// CmdOp discriminates the replicated commands of the baselines' group state
// machine (the "reliable Skeen process" of paper §IV's strawman).
type CmdOp uint8

// Command operations.
const (
	// CmdNoop fills log holes during Paxos recovery.
	CmdNoop CmdOp = iota
	// CmdAssign replicates the assignment of local timestamp LTS to M
	// (Fig. 1 lines 9–11 run as one deterministic RSM step). The leader
	// chooses the timestamp when proposing, so FastCast can announce it
	// speculatively before consensus completes.
	CmdAssign
	// CmdCommit replicates the commit of message ID with the full local
	// timestamp vector LTSs (Fig. 1 lines 14–16 as one RSM step).
	CmdCommit
)

// Command is a replicated state-machine command for the baselines.
type Command struct {
	Op   CmdOp
	M    mcast.AppMsg    // CmdAssign only
	LTS  mcast.Timestamp // CmdAssign only: the local timestamp to install
	ID   mcast.MsgID     // CmdCommit only
	LTSs []GroupTS       // CmdCommit only, sorted by group
}

// Clone deep-copies the application message of a command, the part that
// holds the payload bytes.
func (c Command) Clone() Command {
	c.M = c.M.Clone()
	return c
}

// CmdMsgID returns the application message a command concerns, if any.
func (c Command) CmdMsgID() (mcast.MsgID, bool) {
	switch c.Op {
	case CmdAssign:
		return c.M.ID, true
	case CmdCommit:
		return c.ID, true
	default:
		return 0, false
	}
}

// P1a is the Paxos prepare message for ballot Bal in group Group.
type P1a struct {
	Group mcast.GroupID
	Bal   mcast.Ballot
}

// P1bEntry reports one accepted log slot in a P1b.
type P1bEntry struct {
	Slot uint64
	VBal mcast.Ballot
	Cmd  Command
}

// P1b is the Paxos promise: the acceptor joins Bal and reports every slot it
// has accepted or learned, plus how far it has already learned (Executed).
type P1b struct {
	Group    mcast.GroupID
	Bal      mcast.Ballot
	Executed uint64 // all slots < Executed are learned at the sender
	Entries  []P1bEntry
}

// P2a asks acceptors to accept Cmd in slot Slot at ballot Bal.
type P2a struct {
	Group mcast.GroupID
	Bal   mcast.Ballot
	Slot  uint64
	Cmd   Command
}

// P2b acknowledges acceptance of slot Slot at ballot Bal.
type P2b struct {
	Group mcast.GroupID
	Bal   mcast.Ballot
	Slot  uint64
}

// Learn announces that Cmd is chosen in slot Slot; it carries the command so
// lagging replicas catch up without retransmission requests.
type Learn struct {
	Group mcast.GroupID
	Slot  uint64
	Cmd   Command
}

// ---------------------------------------------------------------------------
// Kind and Concerns implementations
// ---------------------------------------------------------------------------

// Kind implementations.
func (Multicast) Kind() Kind     { return KindMulticast }
func (ClientReply) Kind() Kind   { return KindClientReply }
func (Propose) Kind() Kind       { return KindPropose }
func (Confirm) Kind() Kind       { return KindConfirm }
func (Accept) Kind() Kind        { return KindAccept }
func (AcceptAck) Kind() Kind     { return KindAcceptAck }
func (Deliver) Kind() Kind       { return KindDeliver }
func (NewLeader) Kind() Kind     { return KindNewLeader }
func (NewLeaderAck) Kind() Kind  { return KindNewLeaderAck }
func (NewState) Kind() Kind      { return KindNewState }
func (NewStateAck) Kind() Kind   { return KindNewStateAck }
func (Heartbeat) Kind() Kind     { return KindHeartbeat }
func (HeartbeatAck) Kind() Kind  { return KindHeartbeatAck }
func (GCMark) Kind() Kind        { return KindGCMark }
func (Prune) Kind() Kind         { return KindPrune }
func (P1a) Kind() Kind           { return KindP1a }
func (P1b) Kind() Kind           { return KindP1b }
func (P2a) Kind() Kind           { return KindP2a }
func (P2b) Kind() Kind           { return KindP2b }
func (Learn) Kind() Kind         { return KindLearn }
func (Batch) Kind() Kind         { return KindBatch }
func (AckBatch) Kind() Kind      { return KindAckBatch }
func (ClientReplies) Kind() Kind { return KindClientReplies }

// Concerns implementations: messages that take part in ordering a specific
// application message report its ID for the genuineness audit.
func (m Multicast) Concerns() (mcast.MsgID, bool)   { return m.M.ID, true }
func (m ClientReply) Concerns() (mcast.MsgID, bool) { return m.ID, true }
func (m Propose) Concerns() (mcast.MsgID, bool)     { return m.ID, true }
func (m Confirm) Concerns() (mcast.MsgID, bool)     { return m.ID, true }
func (m Accept) Concerns() (mcast.MsgID, bool)      { return m.M.ID, true }
func (m AcceptAck) Concerns() (mcast.MsgID, bool)   { return m.ID, true }
func (m Deliver) Concerns() (mcast.MsgID, bool)     { return m.ID, true }
func (m P2a) Concerns() (mcast.MsgID, bool)         { return m.Cmd.CmdMsgID() }
func (m Learn) Concerns() (mcast.MsgID, bool)       { return m.Cmd.CmdMsgID() }

// Concerns reports the first ID: every ID of one ClientReplies has the same
// sender, its only recipient.
func (m ClientReplies) Concerns() (mcast.MsgID, bool) {
	if len(m.IDs) == 0 {
		return 0, false
	}
	return m.IDs[0], true
}

// Interface-compliance assertions.
var (
	_ Message = Multicast{}
	_ Message = ClientReply{}
	_ Message = Propose{}
	_ Message = Confirm{}
	_ Message = Accept{}
	_ Message = AcceptAck{}
	_ Message = Deliver{}
	_ Message = NewLeader{}
	_ Message = NewLeaderAck{}
	_ Message = NewState{}
	_ Message = NewStateAck{}
	_ Message = Heartbeat{}
	_ Message = HeartbeatAck{}
	_ Message = GCMark{}
	_ Message = Prune{}
	_ Message = P1a{}
	_ Message = P1b{}
	_ Message = P2a{}
	_ Message = P2b{}
	_ Message = Learn{}
	_ Message = Batch{}
	_ Message = AckBatch{}
	_ Message = ClientReplies{}

	_ Concerner = Multicast{}
	_ Concerner = Accept{}
	_ Concerner = P2a{}
)
