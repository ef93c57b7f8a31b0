package wire_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/wire"
)

func ts(t uint64, g int32) mcast.Timestamp { return mcast.Timestamp{Time: t, Group: mcast.GroupID(g)} }
func bal(n uint64, p int32) mcast.Ballot   { return mcast.Ballot{N: n, Proc: mcast.ProcessID(p)} }

func app(seq uint32) mcast.AppMsg {
	return mcast.AppMsg{
		ID:      mcast.MakeMsgID(7, seq),
		Dest:    mcast.NewGroupSet(0, 2, 5),
		Payload: []byte("payload-bytes"),
	}
}

// allMessages is one representative value of every message type.
func allMessages() []msgs.Message {
	return []msgs.Message{
		msgs.Multicast{M: app(1)},
		msgs.ClientReply{ID: mcast.MakeMsgID(7, 2), Group: 3}, // zero ballot: skeen, blackbox
		msgs.ClientReply{ID: mcast.MakeMsgID(7, 21), Group: 3, Bal: bal(2, 10)},
		msgs.Propose{ID: mcast.MakeMsgID(7, 3), Group: 1, LTS: ts(9, 1)},
		msgs.Confirm{ID: mcast.MakeMsgID(7, 4), Group: 2, LTS: ts(10, 2)},
		msgs.Accept{M: app(5), Group: 0, Bal: bal(3, 1), LTS: ts(11, 0)},
		msgs.AcceptAck{ID: mcast.MakeMsgID(7, 6), Group: 1, Bals: []msgs.GroupBallot{
			{Group: 0, Bal: bal(1, 0)}, {Group: 1, Bal: bal(2, 4)},
		}},
		msgs.Deliver{ID: mcast.MakeMsgID(7, 7), Bal: bal(2, 0), LTS: ts(5, 0), GTS: ts(8, 1), Prev: ts(7, 1), Seq: 3},
		msgs.NewLeader{Bal: bal(4, 2)},
		msgs.NewLeaderAck{Bal: bal(4, 2), CBal: bal(3, 1), Clock: 77, State: []msgs.MsgRecord{
			{M: app(8), Phase: msgs.PhaseAccepted, LTS: ts(2, 0)},
			{M: app(9), Phase: msgs.PhaseCommitted, LTS: ts(3, 0), GTS: ts(4, 1)},
		}},
		msgs.NewState{Bal: bal(4, 2), Clock: 78, State: []msgs.MsgRecord{
			{M: app(10), Phase: msgs.PhaseCommitted, LTS: ts(1, 0), GTS: ts(2, 1)},
		}},
		msgs.NewStateAck{Bal: bal(4, 2)},
		msgs.Heartbeat{Group: 2, Bal: bal(5, 8)},
		msgs.HeartbeatAck{Group: 2, Bal: bal(5, 8), Delivered: ts(42, 1), Executed: 6, Seq: 4},
		msgs.HeartbeatAck{Group: 2, Bal: bal(5, 8), Delivered: ts(42, 1), Executed: 7}, // no release cursor: white-box mode
		msgs.GCMark{Group: 1, Watermark: ts(30, 1)},
		msgs.Prune{Group: 1, Marks: []msgs.GroupTS{{Group: 0, TS: ts(20, 0)}, {Group: 1, TS: ts(25, 1)}}},
		msgs.P1a{Group: 0, Bal: bal(6, 1)},
		msgs.P1b{Group: 0, Bal: bal(6, 1), Executed: 12, Entries: []msgs.P1bEntry{
			{Slot: 3, VBal: bal(5, 0), Cmd: msgs.Command{Op: msgs.CmdAssign, M: app(11), LTS: ts(6, 0)}},
			{Slot: 4, VBal: bal(5, 0), Cmd: msgs.Command{Op: msgs.CmdNoop}},
		}},
		msgs.P2a{Group: 0, Bal: bal(6, 1), Slot: 9, Cmd: msgs.Command{
			Op: msgs.CmdCommit, ID: mcast.MakeMsgID(7, 12),
			LTSs: []msgs.GroupTS{{Group: 0, TS: ts(6, 0)}, {Group: 1, TS: ts(7, 1)}},
		}},
		msgs.P2b{Group: 0, Bal: bal(6, 1), Slot: 9},
		msgs.Learn{Group: 0, Slot: 9, Cmd: msgs.Command{Op: msgs.CmdAssign, M: app(13), LTS: ts(8, 0)}},
		msgs.Batch{Entries: []msgs.BatchEntry{
			{ID: mcast.MakeMsgID(7, 14), Payload: []byte("first")},
			{ID: mcast.MakeMsgID(7, 15), Payload: []byte("second")},
			{ID: mcast.MakeMsgID(9, 1), Payload: []byte{}},
		}},
		msgs.ClientReplies{Group: 2, IDs: []mcast.MsgID{mcast.MakeMsgID(7, 17), mcast.MakeMsgID(7, 18), mcast.MakeMsgID(7, 20)}},
		msgs.ClientReplies{Group: 2, Bal: bal(3, 7), IDs: []mcast.MsgID{mcast.MakeMsgID(7, 22)}},
	}
}

// TestClientRepliesRoundTrip: a follower's coalesced replies keep their
// ballot and their IDs in order whatever their number, and a hostile count is
// refused before anything is allocated for it.
func TestClientRepliesRoundTrip(t *testing.T) {
	many := make([]mcast.MsgID, 1000)
	for i := range many {
		many[i] = mcast.MakeMsgID(9, uint32(i+1))
	}
	for i, ids := range [][]mcast.MsgID{{}, {mcast.MakeMsgID(9, 1)}, many} {
		in := msgs.ClientReplies{Group: 1, Bal: bal(uint64(i), int32(4*i)), IDs: ids} // the first is the zero ballot
		data, err := wire.Encode(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		for _, decode := range []func([]byte) (msgs.Message, error){wire.Decode, wire.DecodeBorrowed} {
			got, err := decode(data)
			if err != nil {
				t.Fatalf("%d ids: %v", len(ids), err)
			}
			if !reflect.DeepEqual(got, in) {
				t.Errorf("%d ids: round trip gave %+v", len(ids), got)
			}
		}
	}
	// group 0, the zero ballot, then a count of 2^21 (above the decoder's
	// collection limit).
	raw := []byte{byte(msgs.KindClientReplies), 0, 0, 0, 0x80, 0x80, 0x80, 0x01}
	if _, err := wire.Decode(raw); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("a count above the collection limit: err = %v", err)
	}
}

// TestRoundTripAllKinds encodes and decodes one value of every message type
// and requires exact equality.
func TestRoundTripAllKinds(t *testing.T) {
	for _, m := range allMessages() {
		data, err := wire.Encode(nil, m)
		if err != nil {
			t.Fatalf("%v: encode: %v", m.Kind(), err)
		}
		got, err := wire.Decode(data)
		if err != nil {
			t.Fatalf("%v: decode: %v", m.Kind(), err)
		}
		if !reflect.DeepEqual(normalise(m), normalise(got)) {
			t.Errorf("%v: round trip mismatch:\n in: %#v\nout: %#v", m.Kind(), m, got)
		}
	}
}

// normalise maps nil and empty slices to a canonical form for comparison.
func normalise(m msgs.Message) msgs.Message { return m }

// TestRejectsTruncation: every strict prefix of a valid encoding must fail
// to decode, never panic and never succeed (except the trivial 1-byte kinds
// whose body is genuinely empty — there are none in this protocol).
func TestRejectsTruncation(t *testing.T) {
	for _, m := range allMessages() {
		data, err := wire.Encode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut++ {
			if _, err := wire.Decode(data[:cut]); err == nil {
				t.Errorf("%v: truncation at %d/%d decoded successfully", m.Kind(), cut, len(data))
			}
		}
	}
}

func TestRejectsTrailingGarbage(t *testing.T) {
	data, err := wire.Encode(nil, msgs.Heartbeat{Group: 1, Bal: bal(2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Decode(append(data, 0xFF)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestRejectsUnknownKind(t *testing.T) {
	if _, err := wire.Decode([]byte{0xEE, 1, 2, 3}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := wire.Decode(nil); err == nil {
		t.Error("empty buffer accepted")
	}
}

// TestDecodeFuzz feeds random bytes to Decode: it must never panic.
func TestDecodeFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(64)
		data := make([]byte, n)
		rng.Read(data)
		_, _ = wire.Decode(data) // must not panic
	}
}

// TestRoundTripPropertyAccept uses testing/quick to round-trip randomly
// generated Accept messages (the richest hot-path message).
func TestRoundTripPropertyAccept(t *testing.T) {
	f := func(sender int32, seq uint32, groups []uint8, payload []byte, balN, time uint64, proc int32, g uint8) bool {
		gs := make([]mcast.GroupID, 0, len(groups))
		for _, x := range groups {
			gs = append(gs, mcast.GroupID(x%32))
		}
		in := msgs.Accept{
			M: mcast.AppMsg{
				ID:      mcast.MakeMsgID(mcast.ProcessID(sender), seq),
				Dest:    mcast.NewGroupSet(gs...),
				Payload: payload,
			},
			Group: mcast.GroupID(g % 32),
			Bal:   mcast.Ballot{N: balN, Proc: mcast.ProcessID(proc)},
			LTS:   mcast.Timestamp{Time: time, Group: mcast.GroupID(g % 32)},
		}
		data, err := wire.Encode(nil, in)
		if err != nil {
			return false
		}
		out, err := wire.Decode(data)
		if err != nil {
			return false
		}
		got, ok := out.(msgs.Accept)
		if !ok {
			return false
		}
		// Normalise nil vs empty for payload and dest.
		if len(got.M.Payload) == 0 && len(in.M.Payload) == 0 {
			got.M.Payload, in.M.Payload = nil, nil
		}
		if len(got.M.Dest) == 0 && len(in.M.Dest) == 0 {
			got.M.Dest, in.M.Dest = nil, nil
		}
		return reflect.DeepEqual(in, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
