package kvstore

import (
	"encoding/hex"
	"testing"

	"wbcast/internal/mcast"
)

// TestCodecGolden pins the kv formats to bytes written by an earlier build:
// op payloads travel between replicas of different builds, and applied
// records and app snapshots sit in existing data directories.
func TestCodecGolden(t *testing.T) {
	ops := []struct {
		name string
		op   Op
		hex  string
	}{
		{"get", Op{Kind: OpGet, Key: []byte("k1")}, "0101026b31"},
		{"put", Op{Kind: OpPut, Key: []byte("k2"), Val: []byte("hello")}, "0102026b320568656c6c6f"},
		{"delete", Op{Kind: OpDelete, Key: []byte("k3")}, "0103026b33"},
		{"txn", Op{Kind: OpTxn, Subs: []Op{
			{Kind: OpPut, Key: []byte("a"), Val: []byte("1")},
			{Kind: OpGet, Key: []byte("b")},
			{Kind: OpDelete, Key: []byte("c")},
		}}, "0104030201610131010162030163"},
	}
	for _, c := range ops {
		got := EncodeOp(nil, c.op)
		if hex.EncodeToString(got) != c.hex {
			t.Errorf("op %s: encodes to %x, want %s", c.name, got, c.hex)
			continue
		}
		op, err := DecodeOp(got)
		if err != nil {
			t.Errorf("op %s: decode: %v", c.name, err)
		} else if again := EncodeOp(nil, op); hex.EncodeToString(again) != c.hex {
			t.Errorf("op %s: decodes to an op that encodes to %x", c.name, again)
		}
	}

	d := mcast.Delivery{Msg: mcast.AppMsg{Payload: []byte("payload")}, GTS: mcast.Timestamp{Time: 300, Group: 2}, Sub: 3}
	const appliedHex = "ac020403077061796c6f6164"
	if got := EncodeApplied(d); hex.EncodeToString(got) != appliedHex {
		t.Errorf("applied record encodes to %x, want %s", got, appliedHex)
	} else if back, err := DecodeApplied(got); err != nil || back.GTS != d.GTS || back.Sub != d.Sub || string(back.Msg.Payload) != "payload" {
		t.Errorf("applied record decodes to %+v, %v", back, err)
	}

	snaps := []struct {
		name      string
		unordered bool
		hex       string
		digest    uint64
	}{
		{"ordered", false, "01c801000202026b3000026b32027632", 0x3c17070a695b7b2c},
		{"unordered", true, "02c80100000364000296010001c801000002026b3000026b32027632", 0x6c685bed601bd40e},
	}
	for _, c := range snaps {
		e := NewEngine(EngineConfig{Group: 0, Unordered: c.unordered})
		for i, op := range []Op{
			{Kind: OpPut, Key: []byte("k1"), Val: []byte("v1")},
			{Kind: OpPut, Key: []byte("k0"), Val: []byte{}},
			{Kind: OpTxn, Subs: []Op{{Kind: OpPut, Key: []byte("k2"), Val: []byte("v2")}, {Kind: OpDelete, Key: []byte("k1")}}},
		} {
			at := uint64(100 + 50*i)
			if c.unordered {
				at = uint64(200 - 50*i) // out of stamp order
			}
			e.Apply(mcast.Delivery{
				Msg: mcast.AppMsg{ID: mcast.MakeMsgID(9, uint32(i)), Dest: mcast.NewGroupSet(0), Payload: EncodeOp(nil, op)},
				GTS: mcast.Timestamp{Time: at, Group: 0},
				Sub: i,
			})
		}
		snap := e.Snapshot()
		if hex.EncodeToString(snap) != c.hex || e.Digest() != c.digest {
			t.Errorf("%s snapshot: %x with digest %#x, want %s with %#x", c.name, snap, e.Digest(), c.hex, c.digest)
			continue
		}
		r := NewEngine(EngineConfig{Group: 0, Unordered: c.unordered})
		if err := r.Recover(snap, nil, nil); err != nil {
			t.Errorf("%s snapshot: restore: %v", c.name, err)
		} else if r.Digest() != c.digest || hex.EncodeToString(r.Snapshot()) != c.hex {
			t.Errorf("%s snapshot: restored digest %#x, snapshot %x", c.name, r.Digest(), r.Snapshot())
		}
	}
}
