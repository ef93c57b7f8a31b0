package wire

import (
	"reflect"
	"testing"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
)

// fuzzSeeds returns valid encodings of representative messages, seeding the
// fuzzers with every byte-string-carrying shape plus a few scalar ones.
func fuzzSeeds(f *testing.F) {
	seeds := append(borrowSamples(),
		msgs.AcceptAck{ID: mcast.MakeMsgID(2, 9), Group: 1, Bals: []msgs.GroupBallot{
			{Group: 0, Bal: mcast.Ballot{N: 1, Proc: 0}},
			{Group: 1, Bal: mcast.Ballot{N: 2, Proc: 4}},
		}},
		msgs.Deliver{ID: mcast.MakeMsgID(2, 10), Bal: mcast.Ballot{N: 1, Proc: 0}, GTS: mcast.Timestamp{Time: 8, Group: 1}},
		// Conflict-mode frames: a genmcast DELIVER carries a release sequence
		// number instead of a Prev chain, and the matching heartbeat ack
		// echoes the follower's release cursor.
		msgs.Deliver{ID: mcast.MakeMsgID(3, 1), Bal: mcast.Ballot{N: 2, Proc: 1}, GTS: mcast.Timestamp{Time: 9, Group: 0}, Seq: 17},
		msgs.Deliver{ID: mcast.MakeMsgID(3, 2), Bal: mcast.Ballot{N: 2, Proc: 1}, GTS: mcast.Timestamp{Time: 10, Group: 0}, Prev: mcast.Timestamp{Time: 9, Group: 0}},
		msgs.HeartbeatAck{Group: 1, Bal: mcast.Ballot{N: 2, Proc: 1}, Delivered: mcast.Timestamp{Time: 10, Group: 0}, Seq: 17},
		msgs.ClientReplies{Group: 1, IDs: []mcast.MsgID{}},
		msgs.ClientReplies{Group: 1, IDs: []mcast.MsgID{mcast.MakeMsgID(6, 1)}},
		msgs.ClientReplies{Group: 0, IDs: []mcast.MsgID{mcast.MakeMsgID(6, 2), mcast.MakeMsgID(6, 3), mcast.MakeMsgID(6, 5)}},
		// Replies with the replying group's ballot (zero above: the
		// protocols without ballots).
		msgs.ClientReplies{Group: 1, Bal: mcast.Ballot{N: 2, Proc: 4}, IDs: []mcast.MsgID{mcast.MakeMsgID(6, 6), mcast.MakeMsgID(6, 7)}},
		msgs.ClientReply{ID: mcast.MakeMsgID(6, 8), Group: 1},
		msgs.ClientReply{ID: mcast.MakeMsgID(6, 9), Group: 1, Bal: mcast.Ballot{N: 3, Proc: 5}},
		msgs.Prune{Group: 0, Marks: []msgs.GroupTS{{Group: 1, TS: mcast.Timestamp{Time: 3, Group: 1}}}},
		msgs.P1b{Group: 0, Bal: mcast.Ballot{N: 4, Proc: 2}, Executed: 7, Entries: []msgs.P1bEntry{
			{Slot: 7, VBal: mcast.Ballot{N: 3, Proc: 1}, Cmd: msgs.Command{Op: msgs.CmdCommit, ID: mcast.MakeMsgID(2, 11), LTSs: []msgs.GroupTS{{Group: 0, TS: mcast.Timestamp{Time: 1, Group: 0}}}}},
		}},
	)
	for _, m := range seeds {
		buf, err := Encode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
}

// FuzzDecode guards the decoder against corrupt and hostile input: it must
// never panic, and any message that decodes must re-encode into something
// that decodes back to the same value (no lossy or state-dependent
// parsing).
func FuzzDecode(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeBorrowed(data)
		if err != nil {
			return
		}
		enc, err := Encode(nil, m)
		if err != nil {
			t.Fatalf("decoded message fails to re-encode: %v", err)
		}
		m2, err := DecodeBorrowed(enc)
		if err != nil {
			t.Fatalf("re-encoded message fails to decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("re-encode round trip changed the message:\n was %+v\n got %+v", m, m2)
		}
	})
}

// FuzzEncodeDecodeRoundTrip builds structured messages from fuzzed
// primitives, encodes them, and checks the decoder reproduces them exactly.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint64(1), int32(0), []byte("hello"), []byte("world"))
	f.Add(uint8(1), uint64(99), int32(5), []byte{}, []byte{0})
	f.Add(uint8(2), uint64(1<<40), int32(-1), []byte("a"), []byte("bb"))
	f.Add(uint8(3), uint64(0), int32(7), []byte("payload"), []byte(""))
	f.Add(uint8(4), uint64(12345), int32(2), []byte("x"), []byte("y"))
	f.Fuzz(func(t *testing.T, sel uint8, n uint64, g int32, p1, p2 []byte) {
		app := mcast.AppMsg{
			ID:      mcast.MsgID(n),
			Dest:    mcast.NewGroupSet(mcast.GroupID(g), mcast.GroupID(g>>1)),
			Payload: p1,
		}
		var m msgs.Message
		switch sel % 5 {
		case 0:
			m = msgs.Multicast{M: app}
		case 1:
			m = msgs.Accept{M: app, Group: mcast.GroupID(g), Bal: mcast.Ballot{N: n, Proc: mcast.ProcessID(g)}, LTS: mcast.Timestamp{Time: n, Group: mcast.GroupID(g)}}
		case 2:
			m = msgs.Batch{Entries: []msgs.BatchEntry{
				{ID: mcast.MsgID(n), Payload: p1},
				{ID: mcast.MsgID(n + 1), Payload: p2},
			}}
		case 3:
			m = msgs.P2a{Group: mcast.GroupID(g), Bal: mcast.Ballot{N: n, Proc: 1}, Slot: n,
				Cmd: msgs.Command{Op: msgs.CmdAssign, M: app, LTS: mcast.Timestamp{Time: n, Group: mcast.GroupID(g)}}}
		case 4:
			m = msgs.NewState{Bal: mcast.Ballot{N: n, Proc: mcast.ProcessID(g)}, Clock: n, State: []msgs.MsgRecord{
				{M: app, Phase: msgs.PhaseAccepted, LTS: mcast.Timestamp{Time: n, Group: 0}},
				{M: mcast.AppMsg{ID: mcast.MsgID(n + 2), Dest: mcast.NewGroupSet(0), Payload: p2}, Phase: msgs.PhaseCommitted},
			}}
		}
		enc, err := Encode(nil, m)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := DecodeBorrowed(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !messagesEquivalent(m, got) {
			t.Fatalf("round trip changed the message:\n sent %+v\n got  %+v", m, got)
		}
	})
}

// messagesEquivalent compares messages up to nil-vs-empty slice
// representation (the decoder materialises empty collections as non-nil).
func messagesEquivalent(a, b msgs.Message) bool {
	return reflect.DeepEqual(normalise(reflect.ValueOf(a)).Interface(), normalise(reflect.ValueOf(b)).Interface())
}

// normalise rewrites empty slices to nil, recursively, so structurally
// equal messages compare equal regardless of how their empty collections
// are represented.
func normalise(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			return reflect.Zero(v.Type())
		}
		out := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			out.Index(i).Set(normalise(v.Index(i)))
		}
		return out
	case reflect.Struct:
		out := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			out.Field(i).Set(normalise(v.Field(i)))
		}
		return out
	default:
		return v
	}
}
