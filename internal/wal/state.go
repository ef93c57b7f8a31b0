package wal

import (
	"iter"
	"maps"
	"slices"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
)

// State is the aggregate durable state of one replica: the result of
// folding every logged Entry, and the unit a snapshot captures. It carries
// both the white-box protocol's Fig. 3 state and the Paxos substrate state
// of the baseline protocols; a replica populates only the half its
// protocol uses.
type State struct {
	// White-box (internal/core): promise pair, logical clock, per-message
	// records, and the delivery frontier.
	Ballot  mcast.Ballot
	CBallot mcast.Ballot
	Clock   uint64
	Records map[mcast.MsgID]msgs.MsgRecord
	// MaxDelivered is the GTS of the newest delivery: the frontier below
	// which nothing is re-delivered, and the DELIVER chain cursor a
	// recovered replica resumes from.
	MaxDelivered mcast.Timestamp
	// Delivered is the applied-message set of the conflict-aware (genmcast)
	// protocol, whose out-of-GTS-order releases make the frontier
	// insufficient for re-delivery detection. Like the frontier it survives
	// EntryState replacement; EntryPrune trims it. Empty for the
	// total-order protocols.
	Delivered map[mcast.MsgID]bool

	// Paxos substrate (internal/paxos): promise pair and the replicated
	// command log.
	PaxosBal  mcast.Ballot
	PaxosCBal mcast.Ballot
	PaxosLog  map[uint64]PaxosSlot

	// Application state (Replica.AppendAppState / SaveAppSnapshot): the
	// service layer's last snapshot and the opaque records appended since.
	// A kv shard engine recovers its store as AppSnapshot + AppLog.
	AppSnapshot []byte
	AppLog      [][]byte
}

// PaxosSlot is one durable Paxos log slot.
type PaxosSlot struct {
	VBal      mcast.Ballot
	Cmd       msgs.Command
	Committed bool
}

// NewState returns an empty state with allocated maps.
func NewState() *State {
	return &State{
		Records:   make(map[mcast.MsgID]msgs.MsgRecord),
		PaxosLog:  make(map[uint64]PaxosSlot),
		Delivered: make(map[mcast.MsgID]bool),
	}
}

// Empty reports whether the state records nothing durable — a fresh data
// directory, i.e. a cold boot rather than a recovery.
func (s *State) Empty() bool {
	return s == nil ||
		(s.Ballot.IsZero() && s.CBallot.IsZero() && s.Clock == 0 &&
			len(s.Records) == 0 && s.MaxDelivered.IsZero() && len(s.Delivered) == 0 &&
			s.PaxosBal.IsZero() && s.PaxosCBal.IsZero() && len(s.PaxosLog) == 0 &&
			len(s.AppSnapshot) == 0 && len(s.AppLog) == 0)
}

// Apply folds one entry into the state. Anything retained from e is
// deep-copied: Memory decodes entries out of a staging buffer it reuses, and
// Disk replay decodes them out of the whole log file.
func (s *State) Apply(e Entry) {
	switch e.Kind {
	case EntryBallot:
		s.Ballot, s.CBallot = e.Bal, e.CBal
		if s.Clock < e.Clock {
			s.Clock = e.Clock
		}
	case EntryRecord:
		s.Records[e.Rec.M.ID] = e.Rec.Clone()
	case EntryFrontier:
		if s.MaxDelivered.Less(e.Max) {
			s.MaxDelivered = e.Max
		}
	case EntryPrune:
		for _, id := range e.IDs {
			delete(s.Records, id)
			delete(s.Delivered, id)
		}
	case EntryDelivered:
		if s.Delivered == nil {
			s.Delivered = make(map[mcast.MsgID]bool, len(e.IDs))
		}
		for _, id := range e.IDs {
			s.Delivered[id] = true
		}
	case EntryState:
		s.Ballot, s.CBallot = e.Bal, e.CBal
		if s.Clock < e.Clock {
			s.Clock = e.Clock
		}
		s.Records = make(map[mcast.MsgID]msgs.MsgRecord, len(e.Recs))
		for _, r := range e.Recs {
			s.Records[r.M.ID] = r.Clone()
		}
	case EntryPaxosBallot:
		s.PaxosBal, s.PaxosCBal = e.Bal, e.CBal
	case EntryPaxosCmd:
		s.PaxosLog[e.Slot] = PaxosSlot{VBal: e.Bal, Cmd: e.Cmd.Clone(), Committed: e.Committed}
	case EntryApp:
		s.AppLog = append(s.AppLog, append([]byte(nil), e.App...))
	case EntryAppSnapshot:
		s.AppSnapshot = append([]byte(nil), e.App...)
		s.AppLog = nil
	}
}

// Entries yields entries whose fold into an empty State reproduces s: the
// ballot pair and clock, the records by ID, the frontier, the applied set,
// the Paxos ballot pair, the Paxos slots by number, the application
// snapshot, then the application records. The order is fixed, so equal
// states yield identical sequences; this is what a snapshot holds. The
// yielded entry aliases s and is overwritten by the next one, so that a
// long application log costs no copy per record: copy what you keep
// (Apply does).
func (s *State) Entries() iter.Seq[*Entry] {
	return func(yield func(*Entry) bool) {
		e, ok := new(Entry), true
		emit := func(next Entry) { *e = next; ok = ok && yield(e) }
		emit(Entry{Kind: EntryBallot, Bal: s.Ballot, CBal: s.CBallot, Clock: s.Clock})
		for _, id := range slices.Sorted(maps.Keys(s.Records)) {
			emit(Entry{Kind: EntryRecord, Rec: s.Records[id]})
		}
		emit(Entry{Kind: EntryFrontier, Max: s.MaxDelivered})
		if len(s.Delivered) > 0 {
			emit(Entry{Kind: EntryDelivered, IDs: slices.Sorted(maps.Keys(s.Delivered))})
		}
		emit(Entry{Kind: EntryPaxosBallot, Bal: s.PaxosBal, CBal: s.PaxosCBal})
		for _, slot := range slices.Sorted(maps.Keys(s.PaxosLog)) {
			ps := s.PaxosLog[slot]
			emit(Entry{Kind: EntryPaxosCmd, Slot: slot, Bal: ps.VBal, Cmd: ps.Cmd, Committed: ps.Committed})
		}
		if s.AppSnapshot != nil {
			emit(Entry{Kind: EntryAppSnapshot, App: s.AppSnapshot})
		}
		*e = Entry{Kind: EntryApp}
		for _, e.App = range s.AppLog {
			ok = ok && yield(e)
		}
	}
}

// copyState returns an independent deep copy of s: the fold of its
// Entries, since Apply copies whatever it keeps.
func copyState(s *State) *State {
	out := NewState()
	for e := range s.Entries() {
		out.Apply(*e)
	}
	return out
}
