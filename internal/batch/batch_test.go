package batch_test

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"wbcast/internal/batch"
	"wbcast/internal/client"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/wire"
)

const clientPID = mcast.ProcessID(100)

// sub is one submission of a test drain.
type sub struct {
	payload []byte
	groups  []mcast.GroupID
}

// drain hands a fresh client the submissions as one drain — Submit by
// Submit, then its end — and returns their IDs, the client and what it
// sent: the first send of each multicast, in send order.
func drain(t *testing.T, subs ...sub) ([]mcast.MsgID, *client.Client, []mcast.AppMsg) {
	t.Helper()
	c := client.New(client.Config{
		PID:      clientPID,
		Contacts: func(g mcast.GroupID) []mcast.ProcessID { return []mcast.ProcessID{mcast.ProcessID(g)} },
	})
	var fx node.Effects
	var ids []mcast.MsgID
	for i, s := range subs {
		id := mcast.MakeMsgID(clientPID, uint32(i+1))
		ids = append(ids, id)
		c.Handle(node.Submit{Msg: mcast.AppMsg{ID: id, Dest: mcast.NewGroupSet(s.groups...), Payload: s.payload}}, &fx)
	}
	if len(fx.Sends) != 0 {
		t.Fatalf("a Submit sent %v before the drain ended", fx.Sends)
	}
	c.EndDrain(&fx)
	var sent []mcast.AppMsg
	for _, s := range fx.Sends {
		m := s.Msg.(msgs.Multicast).M
		if !slices.ContainsFunc(sent, func(o mcast.AppMsg) bool { return o.ID == m.ID }) {
			sent = append(sent, m)
		}
	}
	return ids, c, sent
}

// payloadIDs returns the IDs an envelope carries, in order, or the
// message's own ID.
func payloadIDs(t *testing.T, m mcast.AppMsg) []mcast.MsgID {
	t.Helper()
	if !mcast.IsBatchID(m.ID) {
		return []mcast.MsgID{m.ID}
	}
	entries, err := batch.DecodePayload(m.Payload)
	if err != nil {
		t.Fatal(err)
	}
	var ids []mcast.MsgID
	for _, e := range entries {
		ids = append(ids, e.ID)
	}
	return ids
}

func encode(t *testing.T, entries []msgs.BatchEntry) []byte {
	t.Helper()
	buf, err := wire.Encode(nil, msgs.Batch{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestIDHelpers(t *testing.T) {
	id := mcast.MakeBatchID(42, 7)
	if !mcast.IsBatchID(id) {
		t.Error("MakeBatchID result not recognised as batch ID")
	}
	if id.Sender() != 42 {
		t.Errorf("batch ID sender = %v, want 42 (replies must route to the client)", id.Sender())
	}
	if mcast.IsBatchID(mcast.MakeMsgID(42, 7)) {
		t.Error("ordinary message ID recognised as batch ID")
	}
	if mcast.MakeBatchID(42, 7) == mcast.MakeBatchID(42, 8) {
		t.Error("distinct batch seqs collide")
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	entries := []msgs.BatchEntry{
		{ID: mcast.MakeMsgID(9, 1), Payload: []byte("alpha")},
		{ID: mcast.MakeMsgID(9, 2), Payload: []byte("")},
		{ID: mcast.MakeMsgID(10, 1), Payload: []byte{0, 1, 2, 255}},
	}
	got, err := batch.DecodePayload(encode(t, entries))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Errorf("round trip mismatch:\n in: %v\nout: %v", entries, got)
	}
	if _, err := batch.DecodePayload([]byte("not a batch")); err == nil {
		t.Error("garbage payload decoded successfully")
	}
}

// TestCountTrigger: a drain's payloads to one destination set leave in
// envelopes of at most 64 — what one drain of a wall-clock runtime holds —
// in submission order; one left over leaves as itself.
func TestCountTrigger(t *testing.T) {
	subs := make([]sub, 129)
	for i := range subs {
		subs[i] = sub{[]byte{byte(i)}, []mcast.GroupID{0, 1}}
	}
	ids, c, sent := drain(t, subs...)
	if len(sent) != 3 {
		t.Fatalf("129 payloads left in %d multicasts, want 3", len(sent))
	}
	for i, want := range [][]mcast.MsgID{ids[:64], ids[64:128]} {
		if !mcast.IsBatchID(sent[i].ID) || !slices.Equal(payloadIDs(t, sent[i]), want) {
			t.Errorf("multicast %d carries %v, want an envelope of %v", i, payloadIDs(t, sent[i]), want)
		}
		if !sent[i].Dest.Equal(mcast.NewGroupSet(0, 1)) {
			t.Errorf("envelope dest = %v", sent[i].Dest)
		}
	}
	if sent[2].ID != ids[128] || !bytes.Equal(sent[2].Payload, []byte{128}) {
		t.Errorf("the leftover left as %v, want the submitted message %v", sent[2].ID, ids[128])
	}
	if c.BatchesSent() != 3 || c.Inflight() != 3 {
		t.Errorf("BatchesSent=%d Inflight=%d, want 3 and 3", c.BatchesSent(), c.Inflight())
	}
}

// TestBytesTrigger: an envelope stops short of 64 KiB of payloads.
func TestBytesTrigger(t *testing.T) {
	big, small := make([]byte, 40<<10), make([]byte, 10<<10)
	ids, _, sent := drain(t, sub{big, []mcast.GroupID{0}}, sub{big, []mcast.GroupID{0}}, sub{small, []mcast.GroupID{0}})
	if len(sent) != 2 || sent[0].ID != ids[0] || !slices.Equal(payloadIDs(t, sent[1]), ids[1:]) {
		t.Fatalf("40+40+10 KiB left as %v, want the first alone and an envelope of the other two", sent)
	}
}

// TestOversizedPayloadShipsAlone: a payload above the byte bound leaves as
// itself, and the payloads around it keep their order.
func TestOversizedPayloadShipsAlone(t *testing.T) {
	g0 := []mcast.GroupID{0}
	ids, _, sent := drain(t, sub{[]byte("a"), g0}, sub{[]byte("b"), g0}, sub{make([]byte, 100<<10), g0}, sub{[]byte("c"), g0}, sub{[]byte("d"), g0})
	var got [][]mcast.MsgID
	for _, m := range sent {
		got = append(got, payloadIDs(t, m))
	}
	want := [][]mcast.MsgID{ids[:2], ids[2:3], ids[3:]}
	if !reflect.DeepEqual(got, want) || mcast.IsBatchID(sent[1].ID) {
		t.Fatalf("left as %v, want %v with the oversized one as itself", got, want)
	}
}

// TestSeparateBucketsPerDestinationSet: one multicast per destination set,
// in the order of their first submission; a lone submission leaves as the
// submitted message, bytes and all.
func TestSeparateBucketsPerDestinationSet(t *testing.T) {
	g0, g01, g1 := []mcast.GroupID{0}, []mcast.GroupID{0, 1}, []mcast.GroupID{1}
	ids, _, sent := drain(t, sub{[]byte("a"), g0}, sub{[]byte("b"), g01}, sub{[]byte("c"), g0}, sub{[]byte("d"), g01}, sub{[]byte("e"), g1})
	if len(sent) != 3 {
		t.Fatalf("left in %d multicasts, want 3", len(sent))
	}
	for i, want := range []struct {
		dest mcast.GroupSet
		ids  []mcast.MsgID
	}{{mcast.NewGroupSet(0), []mcast.MsgID{ids[0], ids[2]}}, {mcast.NewGroupSet(0, 1), []mcast.MsgID{ids[1], ids[3]}}, {mcast.NewGroupSet(1), ids[4:]}} {
		if !sent[i].Dest.Equal(want.dest) || !slices.Equal(payloadIDs(t, sent[i]), want.ids) {
			t.Errorf("multicast %d: %v carrying %v, want %v carrying %v", i, sent[i].Dest, payloadIDs(t, sent[i]), want.dest, want.ids)
		}
	}
	if lone := sent[2]; lone.ID != ids[4] || string(lone.Payload) != "e" {
		t.Errorf("the lone submission left as %v %q", lone.ID, lone.Payload)
	}
}

func TestExpandInto(t *testing.T) {
	entries := []msgs.BatchEntry{
		{ID: mcast.MakeMsgID(9, 1), Payload: []byte("x")},
		{ID: mcast.MakeMsgID(9, 2), Payload: []byte("y")},
	}
	dest := mcast.NewGroupSet(0, 2)
	gts := mcast.Timestamp{Time: 7, Group: 2}
	env := mcast.Delivery{
		Msg: mcast.AppMsg{ID: mcast.MakeBatchID(9, 1), Dest: dest, Payload: encode(t, entries)},
		GTS: gts,
	}
	var fx node.Effects
	batch.ExpandInto(&fx, env)
	if len(fx.Deliveries) != 2 {
		t.Fatalf("expanded into %d deliveries, want 2", len(fx.Deliveries))
	}
	for i, d := range fx.Deliveries {
		if d.Msg.ID != entries[i].ID || string(d.Msg.Payload) != string(entries[i].Payload) {
			t.Errorf("delivery %d = %v", i, d.Msg)
		}
		if d.GTS != gts || d.Sub != i {
			t.Errorf("delivery %d stamped (%v,%d), want (%v,%d)", i, d.GTS, d.Sub, gts, i)
		}
		if !d.Msg.Dest.Equal(dest) {
			t.Errorf("delivery %d dest = %v", i, d.Msg.Dest)
		}
	}
	// Non-batch deliveries pass through untouched.
	plain := mcast.Delivery{Msg: mcast.AppMsg{ID: mcast.MakeMsgID(9, 3), Payload: []byte("p")}, GTS: gts}
	var fx2 node.Effects
	batch.ExpandInto(&fx2, plain)
	if len(fx2.Deliveries) != 1 || !reflect.DeepEqual(fx2.Deliveries[0], plain) {
		t.Errorf("plain delivery mangled: %v", fx2.Deliveries)
	}
}
