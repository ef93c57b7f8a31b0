package tcpnet

import (
	"bytes"
	"net"
	"runtime"
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

// newBenchNode builds a Node with an initialised mailbox and address book but
// no listener and no loop, for driving single stages directly.
func newBenchNode(pid mcast.ProcessID) *Node {
	n := &Node{
		cfg:   Config{PID: pid},
		quit:  make(chan struct{}),
		rt:    obs.NewRuntime(nil),
		peers: make(map[mcast.ProcessID]*link),
	}
	n.box = node.NewMailbox[boxedInput](n.quit)
	return n
}

// BenchmarkEncodeFrame measures the cost of producing one outbound frame
// body (sender varint + wire encoding) for a hot-path message, into the
// node's scratch as on the live send path.
func BenchmarkEncodeFrame(b *testing.B) {
	n := newBenchNode(3)
	m := benchAccept()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := n.encode(m); !ok {
			b.Fatal("encode failed")
		}
	}
}

// BenchmarkSendPath measures a frame's whole trip on the real send path: the
// release of one ACCEPT fan-out to two loopback peers — encode, append to
// both links, drain-end flush — through the peers' read loops into their
// mailboxes and handlers. The benchmark goroutine is the sending node's
// loop; at most sendWindow fan-outs are in flight.
func BenchmarkSendPath(b *testing.B) {
	const sendWindow = 64
	var got [2]atomic.Int64
	n := newBenchNode(3)
	n.ln, _ = net.Listen("tcp", "127.0.0.1:0") // for Close only
	n.step = node.NewStep(node.Func{PID: 3, F: func(node.Input, *node.Effects) {}}, nil)
	defer n.Close()
	for i := range got {
		peer, err := Serve(Config{PID: mcast.ProcessID(i), ListenAddr: "127.0.0.1:0",
			Handler: node.Func{PID: mcast.ProcessID(i), F: func(in node.Input, _ *node.Effects) {
				if _, ok := in.(node.Recv); ok {
					got[i].Add(1)
				}
			}}})
		if err != nil {
			b.Fatal(err)
		}
		defer peer.Close()
		n.SetPeer(mcast.ProcessID(i), peer.Addr().String())
	}
	var fx node.Effects
	fx.SendAll([]mcast.ProcessID{0, 1}, benchAccept())
	rel := node.Release{Sends: fx.Sends}
	arrived := func() int64 { return min(got[0].Load(), got[1].Load()) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.release(rel, nil)
		n.commit()
		for int64(i)-arrived() >= sendWindow {
			runtime.Gosched()
		}
	}
	for arrived() < int64(b.N) {
		if n.Stats().OutboundDrops > 0 {
			b.Fatal("frames dropped")
		}
		runtime.Gosched()
	}
}

// BenchmarkReadFramePath measures the inbound hot path: a frame's own buffer
// plus borrow-mode decode, as performed by readLoop.
func BenchmarkReadFramePath(b *testing.B) {
	wireBytes, ok := newBenchNode(4).encode(benchAccept())
	if !ok {
		b.Fatal("encode failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := make([]byte, len(wireBytes))
		copy(buf, wireBytes)
		if _, err := decodeFrameBody(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadLoop measures the whole inbound stage — buffered read,
// the frame's buffer, borrow decode, post to the mailbox — over an
// in-memory pipe, with the writer handing over benchFramesPerWrite frames
// at a time as a peer's link does under load. reads/frame
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
	frame := rawFrame(b, benchAccept())
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
