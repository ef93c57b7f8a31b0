package mcast

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// ProcessID identifies a process (replica or client) uniquely across the
// whole system. Replica IDs are assigned by Topology; client IDs must not
// collide with replica IDs.
type ProcessID int32

// NoProcess is the zero ProcessID minus one, used where "no process" must be
// distinguishable from process 0.
const NoProcess ProcessID = -1

// GroupID identifies a process group. Groups are disjoint sets of 2f+1
// replicas (paper §II).
type GroupID int32

// NoGroup marks the absence of a group.
const NoGroup GroupID = -1

// MsgID uniquely identifies an application message. It packs the sender's
// ProcessID and a per-sender sequence number, so IDs are unique as long as
// each sender allocates sequence numbers monotonically.
type MsgID uint64

// MakeMsgID packs a sender and a per-sender sequence number into a MsgID.
func MakeMsgID(sender ProcessID, seq uint32) MsgID {
	return MsgID(uint64(uint32(sender))<<32 | uint64(seq))
}

// batchSeqBit marks the per-sender sequence numbers reserved for batch
// envelopes. Payload sequence numbers are allocated from 1 upwards by
// clients and never reach it in any realistic run (2^31 submissions from
// one process).
const batchSeqBit uint32 = 1 << 31

// MakeBatchID packs a batch envelope ID for the given sender. The sender
// must be the client's own process ID: replicas send the per-group reply
// for a batch to ID.Sender().
func MakeBatchID(sender ProcessID, seq uint32) MsgID {
	return MakeMsgID(sender, seq|batchSeqBit)
}

// IsBatchID reports whether id identifies a batch envelope rather than an
// individual application message.
func IsBatchID(id MsgID) bool { return id.Seq()&batchSeqBit != 0 }

// Sender extracts the sending process encoded in the MsgID.
func (id MsgID) Sender() ProcessID { return ProcessID(int32(uint32(id >> 32))) }

// Seq extracts the per-sender sequence number encoded in the MsgID.
func (id MsgID) Seq() uint32 { return uint32(id) }

func (id MsgID) String() string {
	return fmt.Sprintf("m(%d.%d)", id.Sender(), id.Seq())
}

// Timestamp is a multicast timestamp (t, g): a logical clock value tagged
// with the group that issued it. Timestamps are ordered lexicographically,
// first by Time and then by Group. The zero value is ⊥, the minimal
// timestamp; protocols never issue ⊥ because clocks are incremented before
// use.
type Timestamp struct {
	Time  uint64
	Group GroupID
}

// ZeroTS is ⊥, the minimal timestamp.
var ZeroTS = Timestamp{}

// IsZero reports whether ts is ⊥.
func (ts Timestamp) IsZero() bool { return ts == Timestamp{} }

// Less reports whether ts orders strictly before other.
func (ts Timestamp) Less(other Timestamp) bool {
	if ts.Time != other.Time {
		return ts.Time < other.Time
	}
	return ts.Group < other.Group
}

// Compare returns -1, 0 or +1 as ts orders before, equal to or after other.
func (ts Timestamp) Compare(other Timestamp) int {
	switch {
	case ts.Less(other):
		return -1
	case other.Less(ts):
		return 1
	default:
		return 0
	}
}

func (ts Timestamp) String() string {
	if ts.IsZero() {
		return "⊥"
	}
	return fmt.Sprintf("(%d,g%d)", ts.Time, ts.Group)
}

// Ballot identifies a leadership period (n, p): a round number tagged with
// the process acting as leader. Ballots are ordered lexicographically, first
// by N and then by Proc. The zero value is ⊥, the minimal ballot.
type Ballot struct {
	N    uint64
	Proc ProcessID
}

// IsZero reports whether b is ⊥.
func (b Ballot) IsZero() bool { return b == Ballot{} }

// Less reports whether b orders strictly before other.
func (b Ballot) Less(other Ballot) bool {
	if b.N != other.N {
		return b.N < other.N
	}
	return b.Proc < other.Proc
}

// Leader returns the process leading ballot b (leader(b) in the paper).
func (b Ballot) Leader() ProcessID { return b.Proc }

func (b Ballot) String() string {
	if b.IsZero() {
		return "⊥"
	}
	return fmt.Sprintf("b(%d,p%d)", b.N, b.Proc)
}

// GroupSet is a sorted, duplicate-free set of destination groups.
type GroupSet []GroupID

// NewGroupSet builds a normalised (sorted, deduplicated) GroupSet.
func NewGroupSet(groups ...GroupID) GroupSet {
	gs := make(GroupSet, 0, len(groups))
	gs = append(gs, groups...)
	sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
	out := gs[:0]
	for i, g := range gs {
		if i == 0 || gs[i-1] != g {
			out = append(out, g)
		}
	}
	return out
}

// Contains reports whether g is in the set.
func (gs GroupSet) Contains(g GroupID) bool {
	i := sort.Search(len(gs), func(i int) bool { return gs[i] >= g })
	return i < len(gs) && gs[i] == g
}

// Equal reports whether the two sets contain exactly the same groups.
func (gs GroupSet) Equal(other GroupSet) bool {
	if len(gs) != len(other) {
		return false
	}
	for i := range gs {
		if gs[i] != other[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (gs GroupSet) Clone() GroupSet {
	if gs == nil {
		return nil
	}
	out := make(GroupSet, len(gs))
	copy(out, gs)
	return out
}

func (gs GroupSet) String() string {
	parts := make([]string, len(gs))
	for i, g := range gs {
		parts[i] = fmt.Sprintf("g%d", g)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// ProcSet is a set of processes, one bit per ProcessID; the zero value is
// empty. IDs must be non-negative. Add may grow the slice, so keep what it
// returns.
type ProcSet []uint64

// Has reports whether p is in the set.
func (s ProcSet) Has(p ProcessID) bool { return int(p>>6) < len(s) && s[p>>6]&(1<<(p&63)) != 0 }

// Add returns the set with p in it.
func (s ProcSet) Add(p ProcessID) ProcSet {
	for int(p>>6) >= len(s) {
		s = append(s, 0)
	}
	s[p>>6] |= 1 << (p & 63)
	return s
}

// AppMsg is an application message submitted to atomic multicast: a unique
// ID, the destination groups dest(m), and an opaque payload.
type AppMsg struct {
	ID      MsgID
	Dest    GroupSet
	Payload []byte
}

// Clone returns a deep copy of the message (payload and destination set are
// copied, so the clone may be retained across API boundaries).
func (m AppMsg) Clone() AppMsg {
	out := AppMsg{ID: m.ID, Dest: m.Dest.Clone()}
	if m.Payload != nil {
		out.Payload = make([]byte, len(m.Payload))
		copy(out.Payload, m.Payload)
	}
	return out
}

func (m AppMsg) String() string {
	return fmt.Sprintf("%v→%v", m.ID, m.Dest)
}

// Delivery records the delivery of an application message at a process,
// together with the global timestamp the protocol assigned to it. Deliveries
// at one process happen in increasing (GTS, Sub) order; that pair exposes
// the system-wide total order to applications that need it (e.g. shared
// logs).
type Delivery struct {
	Msg AppMsg
	GTS Timestamp
	// Sub sub-sequences payloads that were ordered as one protocol-level
	// batch (internal/batch) and therefore share a GTS: the i-th payload of
	// a batch is delivered with Sub = i. Unbatched deliveries have Sub 0.
	Sub int
}

// Before reports whether d is ordered strictly before other in the global
// delivery order, which is lexicographic on (GTS, Sub).
func (d Delivery) Before(other Delivery) bool {
	if d.GTS != other.GTS {
		return d.GTS.Less(other.GTS)
	}
	return d.Sub < other.Sub
}

// Topology is the static process-group layout of paper §II: k disjoint
// groups of n = 2f+1 replicas each, numbered group-major — group g is
// replicas g·n … g·n+n−1 — so every ID from k·n on is a client's.
type Topology struct {
	n   int
	ids []ProcessID // 0 … k·n−1; group g's members are ids[g·n : g·n+n]
}

// UniformTopology builds a topology of k groups of n replicas each, with
// process IDs 0..k*n-1 assigned group-major. It panics unless n is odd and
// positive (2f+1).
func UniformTopology(k, n int) *Topology {
	if n <= 0 || n%2 == 0 {
		panic(fmt.Sprintf("mcast: group size %d; need 2f+1", n))
	}
	t := &Topology{n: n, ids: make([]ProcessID, k*n)}
	for i := range t.ids {
		t.ids[i] = ProcessID(i)
	}
	return t
}

// NumGroups returns the number of groups.
func (t *Topology) NumGroups() int { return len(t.ids) / t.n }

// NumReplicas returns the total number of replica processes.
func (t *Topology) NumReplicas() int { return len(t.ids) }

// Members returns the replica IDs of group g. The returned slice must not be
// modified; its capacity ends with the group, so an append copies it.
func (t *Topology) Members(g GroupID) []ProcessID {
	return slices.Clip(t.ids[int(g)*t.n : int(g+1)*t.n])
}

// GroupSize returns the number of replicas in group g.
func (t *Topology) GroupSize(GroupID) int { return t.n }

// Peers returns the members of p's group excluding p itself, in ID order —
// the recipient list for "everyone else in my group" fan-outs (heartbeats,
// state transfer, DELIVER replication), which a replica takes once, at
// construction. It is nil if p is not a replica.
func (t *Topology) Peers(p ProcessID) []ProcessID {
	if !t.IsReplica(p) {
		return nil
	}
	members := t.Members(t.GroupOf(p))
	return append(slices.Clip(members[:t.Rank(p)]), members[t.Rank(p)+1:]...)
}

// QuorumSize returns f+1 for a group of 2f+1 replicas.
func (t *Topology) QuorumSize(GroupID) int { return t.n/2 + 1 }

// GroupOf returns the group of process p, or NoGroup if p is not a replica
// (e.g. it is a client).
func (t *Topology) GroupOf(p ProcessID) GroupID {
	if !t.IsReplica(p) {
		return NoGroup
	}
	return GroupID(int(p) / t.n)
}

// IsReplica reports whether p belongs to some group.
func (t *Topology) IsReplica(p ProcessID) bool { return p >= 0 && int(p) < len(t.ids) }

// Rank returns the index of p within its group, or -1 if p is not a replica.
func (t *Topology) Rank(p ProcessID) int {
	if !t.IsReplica(p) {
		return -1
	}
	return int(p) % t.n
}

// AllGroups returns the set of every group in the topology.
func (t *Topology) AllGroups() GroupSet {
	gs := make(GroupSet, t.NumGroups())
	for i := range gs {
		gs[i] = GroupID(i)
	}
	return gs
}

// InitialLeader returns the conventional initial leader of group g (its
// first member) used by the pre-synchronised cluster bootstrap.
func (t *Topology) InitialLeader(g GroupID) ProcessID { return t.Members(g)[0] }

// InitialBallot returns the conventional initial ballot (1, first member)
// that every replica of g starts in under the pre-synchronised bootstrap.
// Starting all replicas with cballot = InitialBallot is equivalent to having
// completed a leader recovery over the empty state.
func (t *Topology) InitialBallot(g GroupID) Ballot {
	return Ballot{N: 1, Proc: t.InitialLeader(g)}
}
