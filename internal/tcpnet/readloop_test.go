package tcpnet

import (
	"bytes"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
)

// countingConn counts the Read calls readLoop makes: each is a read(2) on a
// real connection.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// readRig is a node hosting shard 3 whose readLoop reads the far end of an
// in-memory pipe: whatever is written to peer arrives as Recv inputs on
// got, payloads copied out of their frames. net.Pipe does not buffer, so
// one Write is consumed by exactly as many Reads as the reader's buffer
// needs — the read count repeats exactly.
type readRig struct {
	n    *Node
	conn *countingConn
	peer net.Conn
	got  chan node.Recv
}

// newReadRig starts the rig; onRecv (optional) replaces the default
// consumer, which clones each message and posts it to got.
func newReadRig(tb testing.TB, onRecv func(node.Recv)) *readRig {
	tb.Helper()
	n := newBenchNode(3)
	s := &shard{n: n, pid: 3, box: node.NewMailbox[boxedInput](64, n.quit)}
	n.shards = append(n.shards, s)
	n.shardByPID[3] = s
	near, far := net.Pipe()
	r := &readRig{n: n, conn: &countingConn{Conn: near}, peer: far, got: make(chan node.Recv, 256)}
	if onRecv == nil {
		onRecv = func(rcv node.Recv) {
			if m, ok := rcv.Msg.(msgs.Multicast); ok {
				rcv.Msg = msgs.Multicast{M: m.M.Clone()} // the frame is recycled below
			}
			r.got <- rcv
		}
	}
	n.wg.Add(2)
	go func() {
		defer n.wg.Done()
		s.box.Run(func(b boxedInput) {
			onRecv(b.in.(node.Recv))
			n.releaseRead(b.frame)
		}, func() {})
	}()
	go n.readLoop(r.conn)
	tb.Cleanup(func() {
		far.Close()
		n.quitOnce.Do(func() { close(n.quit) })
		n.wg.Wait()
	})
	return r
}

// rawFrame builds the bytes a peer's link puts on the wire for one message
// from process 4 to shard 3.
func rawFrame(tb testing.TB, n *Node, m msgs.Message) []byte {
	tb.Helper()
	body, ok := (&shard{n: n, pid: 4}).encode(m)
	if !ok {
		tb.Fatal("encode failed")
	}
	l := newLink(n, "")
	l.append([]mcast.ProcessID{3}, body)
	return l.buf
}

func (r *readRig) next(t *testing.T) node.Recv {
	t.Helper()
	select {
	case rcv := <-r.got:
		return rcv
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a frame")
		return node.Recv{}
	}
}

// TestReadLoopManyFramesOneRead: the frames one segment carried cost one
// read, not two each.
func TestReadLoopManyFramesOneRead(t *testing.T) {
	r := newReadRig(t, nil)
	const frames = 100
	var burst []byte
	for i := 1; i <= frames; i++ {
		burst = append(burst, rawFrame(t, r.n, msgs.ClientReply{ID: mcast.MakeMsgID(4, uint32(i)), Group: 1})...)
	}
	if len(burst) >= readBufSize {
		t.Fatalf("burst of %d bytes does not fit the %d-byte read buffer", len(burst), readBufSize)
	}
	if _, err := r.peer.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= frames; i++ {
		rcv := r.next(t)
		want := msgs.ClientReply{ID: mcast.MakeMsgID(4, uint32(i)), Group: 1}
		if rcv.From != 4 || rcv.Msg != want {
			t.Fatalf("frame %d arrived as %+v", i, rcv)
		}
	}
	// One read took the burst in; the loop is parked in the next.
	if reads := r.conn.reads.Load(); reads > 4 {
		t.Errorf("%d frames cost %d reads, want at most 4", frames, reads)
	}
	if got := r.n.Stats().FramesRead; got != frames {
		t.Errorf("FramesRead = %d", got)
	}
}

// TestReadLoopFrameBoundaries: a frame larger than the read buffer and a
// frame that arrives in three pieces both decode, and the frames around
// them stay in order.
func TestReadLoopFrameBoundaries(t *testing.T) {
	r := newReadRig(t, nil)
	big := mcast.AppMsg{ID: mcast.MakeMsgID(4, 2), Dest: mcast.NewGroupSet(0), Payload: bytes.Repeat([]byte{0xAB}, 3*readBufSize+17)}
	small := func(seq uint32) msgs.ClientReply {
		return msgs.ClientReply{ID: mcast.MakeMsgID(4, seq), Group: 0}
	}
	split := rawFrame(t, r.n, small(3))
	writes := [][]byte{
		append(rawFrame(t, r.n, small(1)), rawFrame(t, r.n, msgs.Multicast{M: big})...),
		split[:2], // inside the length prefix
		split[2:7],
		append(split[7:], rawFrame(t, r.n, small(4))...),
	}
	go func() {
		for _, w := range writes {
			if _, err := r.peer.Write(w); err != nil {
				return
			}
		}
	}()
	if rcv := r.next(t); rcv.Msg != small(1) {
		t.Fatalf("first frame = %+v", rcv)
	}
	m, ok := r.next(t).Msg.(msgs.Multicast)
	if !ok || m.M.ID != big.ID || !bytes.Equal(m.M.Payload, big.Payload) {
		t.Fatalf("the %d-byte frame did not survive (decoded %d payload bytes)", len(big.Payload), len(m.M.Payload))
	}
	if rcv := r.next(t); rcv.Msg != small(3) {
		t.Fatalf("split frame = %+v", rcv)
	}
	if rcv := r.next(t); rcv.Msg != small(4) {
		t.Fatalf("frame after the split one = %+v", rcv)
	}
}

// TestReconnectsLeakNoGoroutine: a peer that redials must not leave a
// goroutine behind per connection (the shutdown watcher used to live until
// the node closed).
func TestReconnectsLeakNoGoroutine(t *testing.T) {
	n, err := Serve(Config{
		PID:        3,
		ListenAddr: "127.0.0.1:0",
		Handler:    node.Func{PID: 3, F: func(node.Input, *node.Effects) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	frame := rawFrame(t, n, msgs.ClientReply{ID: mcast.MakeMsgID(4, 1), Group: 0})
	cycle := func(k int) {
		for i := 0; i < k; i++ {
			c, err := net.Dial("tcp", n.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Write(frame); err != nil {
				t.Fatal(err)
			}
			c.Close()
		}
	}
	cycle(1) // whatever the first connection starts lazily is in the baseline
	waitFor(t, "the first frame", func() bool { return n.Stats().FramesRead == 1 })
	base := runtime.NumGoroutine()
	cycle(50)
	waitFor(t, "all frames read and every connection's goroutines gone", func() bool {
		return n.Stats().FramesRead == 51 && runtime.NumGoroutine() <= base
	})
}
