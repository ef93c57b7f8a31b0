package tcpnet

import (
	"bytes"
	"sync/atomic"
	"testing"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
)

// benchAccept mirrors the hot-path message shape used by the wire
// benchmarks: an ACCEPT carrying a 3-group, 64-byte application message.
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

// newBenchNode builds a Node with initialised pools and maps but no
// listener and no shard loops, for driving the codec paths directly.
func newBenchNode(pid mcast.ProcessID) *Node {
	n := &Node{
		cfg:        Config{PID: pid},
		rt:         obs.NewRuntime(nil),
		shardByPID: make(map[mcast.ProcessID]*shard),
		addrs:      make(map[mcast.ProcessID]string),
		writers:    make(map[string]*writer),
	}
	n.readPool.New = func() any { return &readFrame{} }
	n.outPool.New = func() any { return &outFrame{} }
	n.batchPool.New = func() any { return &sendBatch{} }
	return n
}

// BenchmarkEncodeFrame measures the cost of producing one outbound frame
// body (sender varint + wire encoding) for a hot-path message. Frames come
// from and return to the node's pool, as on the live send path once every
// writer releases its reference.
func BenchmarkEncodeFrame(b *testing.B) {
	n := newBenchNode(3)
	m := benchAccept()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := n.encodeFrame(3, m)
		if err != nil {
			b.Fatal(err)
		}
		f.refs.Store(1)
		n.release(f)
	}
}

// BenchmarkReadFramePath measures the inbound hot path: pooled frame
// acquisition plus borrow-mode decode, as performed by readLoop.
func BenchmarkReadFramePath(b *testing.B) {
	n := newBenchNode(3)
	src := newBenchNode(4)
	f, err := src.encodeFrame(4, benchAccept())
	if err != nil {
		b.Fatal(err)
	}
	wireBytes := append([]byte(nil), f.buf...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rf := n.getReadFrame(len(wireBytes))
		copy(rf.buf, wireBytes)
		if _, err := decodeFrameBody(rf.buf); err != nil {
			b.Fatal(err)
		}
		n.putReadFrame(rf)
	}
}

// BenchmarkReadLoop measures the whole inbound stage — buffered read,
// pooled frame, borrow decode, post to the shard's mailbox — over an
// in-memory pipe, with the writer handing over benchFramesPerWrite frames
// at a time as a peer's coalescing writeLoop does under load. reads/frame
// is the number of Read calls (read(2) on a real connection) per frame.
func BenchmarkReadLoop(b *testing.B) {
	const benchFramesPerWrite = 8
	var seen atomic.Int64
	done := make(chan struct{})
	r := newReadRig(b, func(node.Recv) {
		if seen.Add(1) == int64(b.N) {
			close(done)
		}
	})
	frame := rawFrame(b, r.n, benchAccept())
	burst := bytes.Repeat(frame, benchFramesPerWrite)
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; left -= benchFramesPerWrite {
		if _, err := r.peer.Write(burst[:min(left, benchFramesPerWrite)*len(frame)]); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()
	b.ReportMetric(float64(r.conn.reads.Load())/float64(b.N), "reads/frame")
}
