package wal

import (
	"encoding/hex"
	"testing"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
)

// TestEntryGolden pins the on-disk encoding of every entry kind to bytes
// written by an earlier build: a change to the codec that moves one byte
// would strand existing data directories, so it must show here first.
func TestEntryGolden(t *testing.T) {
	msg := mcast.AppMsg{ID: mcast.MakeMsgID(7, 3), Dest: mcast.NewGroupSet(0, 2), Payload: []byte("pay")}
	rec := msgs.MsgRecord{M: msg, Phase: msgs.PhaseCommitted,
		LTS: mcast.Timestamp{Time: 4, Group: 0}, GTS: mcast.Timestamp{Time: 300, Group: 2}}
	cases := []struct {
		name string
		e    Entry
		hex  string
	}{
		{"ballot", Entry{Kind: EntryBallot, Bal: mcast.Ballot{N: 2, Proc: 1}, CBal: mcast.Ballot{N: 1, Proc: 0}, Clock: 900},
			"01020201008407"},
		{"record", Entry{Kind: EntryRecord, Rec: rec},
			"02838080807002000403706179030400ac0204"},
		{"frontier", Entry{Kind: EntryFrontier, Max: mcast.Timestamp{Time: 5, Group: 2}},
			"030504"},
		{"prune", Entry{Kind: EntryPrune, IDs: []mcast.MsgID{mcast.MakeMsgID(8, 1), msg.ID}},
			"04028180808080018380808070"},
		{"state", Entry{Kind: EntryState, Bal: mcast.Ballot{N: 3, Proc: 2}, CBal: mcast.Ballot{N: 3, Proc: 1}, Clock: 12,
			Recs: []msgs.MsgRecord{rec, {
				M:     mcast.AppMsg{ID: mcast.MakeMsgID(8, 1), Dest: mcast.NewGroupSet(1), Payload: []byte{}},
				Phase: msgs.PhaseProposed, LTS: mcast.Timestamp{Time: 6, Group: 1},
			}}},
			"05030403020c02838080807002000403706179030400ac02048180808080010102000106020000"},
		{"paxos ballot", Entry{Kind: EntryPaxosBallot, Bal: mcast.Ballot{N: 4, Proc: 0}, CBal: mcast.Ballot{N: 4, Proc: 3}},
			"060400040600"},
		{"paxos assign", Entry{Kind: EntryPaxosCmd, Slot: 2, Bal: mcast.Ballot{N: 4, Proc: 0}, Committed: true,
			Cmd: msgs.Command{Op: msgs.CmdAssign, M: msg, LTS: mcast.Timestamp{Time: 4, Group: 0}}},
			"0702040001018380808070020004037061790400"},
		{"paxos commit", Entry{Kind: EntryPaxosCmd, Slot: 200, Bal: mcast.Ballot{N: 5, Proc: 1},
			Cmd: msgs.Command{Op: msgs.CmdCommit, ID: msg.ID, LTSs: []msgs.GroupTS{
				{Group: 0, TS: mcast.Timestamp{Time: 4, Group: 0}},
				{Group: 2, TS: mcast.Timestamp{Time: 7, Group: 2}},
			}}},
			"07c80105020002838080807002000400040704"},
		{"app", Entry{Kind: EntryApp, App: []byte("app-record")},
			"080a6170702d7265636f7264"},
		{"app snapshot", Entry{Kind: EntryAppSnapshot, App: []byte("app-snapshot")},
			"090c6170702d736e617073686f74"},
		{"delivered", Entry{Kind: EntryDelivered, IDs: []mcast.MsgID{msg.ID}},
			"0a018380808070"},
	}
	for _, c := range cases {
		got := appendEntry(nil, &c.e)
		if hex.EncodeToString(got) != c.hex {
			t.Errorf("%s: encodes to %x, want %s", c.name, got, c.hex)
			continue
		}
		want, _ := hex.DecodeString(c.hex)
		e, err := decodeEntry(want)
		if err != nil {
			t.Errorf("%s: decode: %v", c.name, err)
			continue
		}
		if again := appendEntry(nil, &e); hex.EncodeToString(again) != c.hex {
			t.Errorf("%s: decodes to an entry that encodes to %x", c.name, again)
		}
	}
}
