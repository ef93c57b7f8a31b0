package kvstore

import (
	"fmt"
	"testing"

	"wbcast/internal/mcast"
)

// BenchmarkOpRoundTrip encodes and decodes a two-key transaction, the
// payload every replica of both shards decodes once per cross-shard op.
func BenchmarkOpRoundTrip(b *testing.B) {
	op := Op{Kind: OpTxn, Subs: []Op{
		{Kind: OpPut, Key: []byte("key-000000000001"), Val: make([]byte, 64)},
		{Kind: OpPut, Key: []byte("key-000000000002"), Val: make([]byte, 64)},
	}}
	var buf []byte
	b.ReportAllocs()
	for b.Loop() {
		buf = EncodeOp(buf[:0], op)
		if _, err := DecodeOp(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppSnapshot saves the app snapshot of a 1 000-key shard and
// restores it into a fresh engine.
func BenchmarkAppSnapshot(b *testing.B) {
	e := NewEngine(EngineConfig{Group: 0})
	for i := range 1000 {
		op := Op{Kind: OpPut, Key: fmt.Appendf(nil, "key-%012d", i), Val: make([]byte, 64)}
		e.Apply(mcast.Delivery{
			Msg: mcast.AppMsg{ID: mcast.MakeMsgID(1, uint32(i)), Dest: mcast.NewGroupSet(0), Payload: EncodeOp(nil, op)},
			GTS: mcast.Timestamp{Time: uint64(i + 1), Group: 0},
		})
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := NewEngine(EngineConfig{Group: 0}).Recover(e.Snapshot(), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
