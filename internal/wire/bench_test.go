package wire

import (
	"testing"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
)

// benchAccept is a representative hot-path message: an ACCEPT carrying a
// 3-group, 64-byte application message (the shape of a batched envelope in
// the Fig. 7/8 throughput runs).
func benchAccept() msgs.Accept {
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}
	return msgs.Accept{
		M: mcast.AppMsg{
			ID:      mcast.MakeMsgID(30, 7),
			Dest:    mcast.NewGroupSet(0, 1, 2),
			Payload: payload,
		},
		Group: 1,
		Bal:   mcast.Ballot{N: 1, Proc: 3},
		LTS:   mcast.Timestamp{Time: 42, Group: 1},
	}
}

func BenchmarkEncodeAccept(b *testing.B) {
	m := benchAccept()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = Encode(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeAccept(b *testing.B) {
	buf, err := Encode(nil, benchAccept())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBorrowed(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeAcceptAck(b *testing.B) {
	ack := msgs.AcceptAck{
		ID:    mcast.MakeMsgID(30, 7),
		Group: 1,
		Bals: []msgs.GroupBallot{
			{Group: 0, Bal: mcast.Ballot{N: 1, Proc: 0}},
			{Group: 1, Bal: mcast.Ballot{N: 1, Proc: 3}},
			{Group: 2, Bal: mcast.Ballot{N: 1, Proc: 6}},
		},
	}
	buf, err := Encode(nil, ack)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBorrowed(buf); err != nil {
			b.Fatal(err)
		}
	}
}
