package wire

import (
	"testing"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
)

// borrowSamples are messages whose encodings carry byte strings (the fields
// DecodeBorrowed aliases).
func borrowSamples() []msgs.Message {
	return []msgs.Message{
		msgs.Multicast{M: mcast.AppMsg{ID: mcast.MakeMsgID(9, 1), Dest: mcast.NewGroupSet(0, 2), Payload: []byte("payload-a")}},
		msgs.Accept{
			M:     mcast.AppMsg{ID: mcast.MakeMsgID(9, 2), Dest: mcast.NewGroupSet(1), Payload: []byte("payload-b")},
			Group: 1, Bal: mcast.Ballot{N: 3, Proc: 4}, LTS: mcast.Timestamp{Time: 17, Group: 1},
		},
		msgs.Batch{Entries: []msgs.BatchEntry{
			{ID: mcast.MakeMsgID(9, 3), Payload: []byte("entry-0")},
			{ID: mcast.MakeMsgID(9, 4), Payload: []byte("entry-1")},
		}},
		msgs.P2a{Group: 0, Bal: mcast.Ballot{N: 1, Proc: 0}, Slot: 5, Cmd: msgs.Command{
			Op: msgs.CmdAssign,
			M:  mcast.AppMsg{ID: mcast.MakeMsgID(9, 5), Dest: mcast.NewGroupSet(0), Payload: []byte("cmd-payload")},
		}},
		msgs.NewState{Bal: mcast.Ballot{N: 2, Proc: 1}, Clock: 9, State: []msgs.MsgRecord{
			{M: mcast.AppMsg{ID: mcast.MakeMsgID(9, 6), Dest: mcast.NewGroupSet(0, 1), Payload: []byte("rec")}, Phase: msgs.PhaseCommitted},
		}},
	}
}

// TestDecodeBorrowedAliasesInput verifies the ownership semantics:
// DecodeBorrowed's payloads alias the input (mutations show through), and
// Clone rescues them.
func TestDecodeBorrowedAliasesInput(t *testing.T) {
	m := msgs.Multicast{M: mcast.AppMsg{ID: mcast.MakeMsgID(1, 1), Dest: mcast.NewGroupSet(0), Payload: []byte("sentinel!")}}
	buf, err := Encode(nil, m)
	if err != nil {
		t.Fatal(err)
	}

	bm, err := DecodeBorrowed(buf)
	if err != nil {
		t.Fatal(err)
	}
	// Clobber the buffer, as a pooled-frame reuse would.
	for i := range buf {
		buf[i] = 0xAA
	}
	if string(bm.(msgs.Multicast).M.Payload) == "sentinel!" {
		t.Error("DecodeBorrowed payload survived input clobber; expected aliasing")
	}

	// Clone rescues a borrowed message (the Handler retention contract).
	buf2, _ := Encode(nil, m)
	bm2, _ := DecodeBorrowed(buf2)
	clone := bm2.(msgs.Multicast).M.Clone()
	for i := range buf2 {
		buf2[i] = 0xAA
	}
	if string(clone.Payload) != "sentinel!" {
		t.Error("Clone() of a borrowed message still aliases the input")
	}
}
