package wal

import (
	"encoding/binary"
	"fmt"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/wire"
)

// EntryKind distinguishes the durable state transitions a replica logs.
// Values are part of the on-disk format; do not reorder.
type EntryKind uint8

// Entry kinds.
const (
	// EntryBallot records the white-box ballot/promise pair and logical
	// clock (Fig. 3 ballot, cballot) — logged before a replica votes in a
	// leader election, so a restarted replica cannot un-promise.
	EntryBallot EntryKind = iota + 1
	// EntryRecord records one message reaching ACCEPTED or COMMITTED at
	// this replica — logged before the corresponding ACCEPT_ACK or DELIVER
	// leaves the process.
	EntryRecord
	// EntryFrontier records the delivery frontier (the max delivered GTS) —
	// logged before the delivery itself, so restarts never re-deliver;
	// lazily when the application keeps a frontier of its own, and then
	// eagerly before the frontier is reported to a peer
	// (docs/DURABILITY.md).
	EntryFrontier
	// EntryPrune removes garbage-collected message records.
	EntryPrune
	// EntryState replaces the whole white-box message state (a NEW_STATE
	// install or a leader's post-election merge).
	EntryState
	// EntryPaxosBallot records the Paxos promise pair of the baseline
	// protocols — logged before a P1b vote.
	EntryPaxosBallot
	// EntryPaxosCmd records one Paxos log slot (vote ballot, command,
	// committed flag) — logged before the P2b or Learn it backs.
	EntryPaxosCmd
	// EntryApp records one opaque application-state record appended by a
	// service layered on the replica (kv shard engines append their redo
	// records here, through Replica.AppendAppState): the application's own
	// log, riding in the same WAL, always lazily — it is durable with the
	// log's next Sync.
	EntryApp
	// EntryAppSnapshot replaces the application snapshot and clears the
	// accumulated application log (Replica.SaveAppSnapshot) — the
	// application-level analog of EntryState. Lazy, like EntryApp: it
	// supersedes the records before it in fold order.
	EntryAppSnapshot
	// EntryDelivered records messages applied to the application under the
	// conflict-aware (genmcast) protocol, whose releases are not in GTS
	// order: the delivery frontier alone cannot identify re-deliveries, so
	// the applied set itself is durable. Logged before the delivery leaves
	// the replica; survives EntryState wholesale replacement (like the
	// frontier) and is trimmed by EntryPrune.
	EntryDelivered
)

// Entry is one durable state transition. Which fields are meaningful
// depends on Kind (see the kind constants). Entries appended to a
// node.Effects may alias borrowed network frames; Storage implementations
// must encode or deep-copy them during Append and never retain the entry's
// slices afterwards.
type Entry struct {
	Kind EntryKind

	// Bal, CBal, Clock — EntryBallot, EntryState, EntryPaxosBallot
	// (EntryPaxosCmd uses Bal as the slot's vote ballot).
	Bal   mcast.Ballot
	CBal  mcast.Ballot
	Clock uint64

	// Rec — EntryRecord.
	Rec msgs.MsgRecord

	// Max — EntryFrontier: max delivered GTS.
	Max mcast.Timestamp

	// IDs — EntryPrune, EntryDelivered.
	IDs []mcast.MsgID

	// Recs — EntryState.
	Recs []msgs.MsgRecord

	// Slot, Cmd, Committed — EntryPaxosCmd.
	Slot      uint64
	Cmd       msgs.Command
	Committed bool

	// App — EntryApp (one application record), EntryAppSnapshot (the
	// whole application snapshot). Opaque to the WAL.
	App []byte
}

// appendEntry serialises e, appending to dst.
func appendEntry(dst []byte, e *Entry) []byte {
	w := wire.Writer(dst)
	w.Byte(byte(e.Kind))
	switch e.Kind {
	case EntryBallot, EntryPaxosBallot, EntryState:
		w.Ballot(e.Bal)
		w.Ballot(e.CBal)
		w.Uint(e.Clock)
		if e.Kind == EntryState {
			w.Uint(uint64(len(e.Recs)))
			for _, r := range e.Recs {
				w.Record(r)
			}
		}
	case EntryRecord:
		w.Record(e.Rec)
	case EntryFrontier:
		w.TS(e.Max)
	case EntryPrune, EntryDelivered:
		w.Uint(uint64(len(e.IDs)))
		for _, id := range e.IDs {
			w.Uint(uint64(id))
		}
	case EntryPaxosCmd:
		w.Uint(e.Slot)
		w.Ballot(e.Bal)
		var committed byte
		if e.Committed {
			committed = 1
		}
		w.Byte(committed)
		w.Command(e.Cmd)
	case EntryApp, EntryAppSnapshot:
		w.Bytes(e.App)
	}
	return w
}

// decodeEntry parses one serialised entry. Its byte strings (App and the
// payloads of Rec, Recs and Cmd) alias data; State.Apply copies them.
func decodeEntry(data []byte) (Entry, error) {
	r := wire.NewReader(data, true)
	e := Entry{Kind: EntryKind(r.Byte())}
	switch e.Kind {
	case EntryBallot, EntryPaxosBallot, EntryState:
		e.Bal, e.CBal, e.Clock = r.Ballot(), r.Ballot(), r.Uint()
		if e.Kind == EntryState {
			e.Recs = make([]msgs.MsgRecord, r.Count())
			for i := range e.Recs {
				e.Recs[i] = r.Record()
			}
		}
	case EntryRecord:
		e.Rec = r.Record()
	case EntryFrontier:
		e.Max = r.TS()
	case EntryPrune, EntryDelivered:
		e.IDs = make([]mcast.MsgID, r.Count())
		for i := range e.IDs {
			e.IDs[i] = mcast.MsgID(r.Uint())
		}
	case EntryPaxosCmd:
		e.Slot, e.Bal, e.Committed, e.Cmd = r.Uint(), r.Ballot(), r.Byte() != 0, r.Command()
	case EntryApp, EntryAppSnapshot:
		e.App = r.Bytes()
	default:
		r.Fail(fmt.Errorf("unknown entry kind %d", e.Kind))
	}
	if err := r.Done(); err != nil {
		return e, fmt.Errorf("wal: entry kind %d: %w", e.Kind, err)
	}
	return e, nil
}

// appendFramed appends e as [u32 LE length][appendEntry bytes]: the unit of
// a snapshot's payload and of Memory's staged tail. It needs no checksum of
// its own; a snapshot carries one for the whole payload.
func appendFramed(dst []byte, e *Entry) []byte {
	at := len(dst)
	dst = appendEntry(append(dst, 0, 0, 0, 0), e)
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// foldFramed applies a run of appendFramed entries to s.
func foldFramed(s *State, data []byte) error {
	for len(data) > 0 {
		if len(data) < 4 {
			return fmt.Errorf("wal: truncated entry length")
		}
		n := binary.LittleEndian.Uint32(data)
		if uint64(n) > uint64(len(data)-4) {
			return fmt.Errorf("wal: entry of %d bytes exceeds %d remaining", n, len(data)-4)
		}
		e, err := decodeEntry(data[4 : 4+n])
		if err != nil {
			return err
		}
		s.Apply(e)
		data = data[4+n:]
	}
	return nil
}
