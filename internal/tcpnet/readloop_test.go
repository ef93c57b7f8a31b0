package tcpnet

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
)

// readRig is a node for process 3 whose readLoop reads the far end of an
// in-memory pipe: whatever is written to peer arrives as Recv inputs on
// got. net.Pipe does not buffer, so
// one Write is consumed by exactly as many Reads as the reader's buffer
// needs — the node's socket-read count repeats exactly.
type readRig struct {
	n    *Node
	peer net.Conn
	got  chan node.Recv
}

// newReadRig starts the rig; onRecv (optional) replaces the default
// consumer, which posts each message to got.
func newReadRig(tb testing.TB, onRecv func(node.Recv)) *readRig {
	tb.Helper()
	n := newBenchNode(3)
	near, far := net.Pipe()
	r := &readRig{n: n, peer: far, got: make(chan node.Recv, 256)}
	if onRecv == nil {
		onRecv = func(rcv node.Recv) { r.got <- rcv }
	}
	n.wg.Add(2)
	go func() {
		defer n.wg.Done()
		n.box.Run(func(b boxedInput) { onRecv(b.in.(node.Recv)) }, func() {})
	}()
	go n.readLoop(near)
	tb.Cleanup(func() {
		far.Close()
		n.quitOnce.Do(func() { close(n.quit) })
		n.wg.Wait()
	})
	return r
}

// rawFrame builds the bytes a peer's link puts on the wire for one message
// from process 4 to process 3.
func rawFrame(tb testing.TB, m msgs.Message) []byte {
	tb.Helper()
	return rawFrameTo(tb, 3, m)
}

// rawFrameTo is rawFrame with the header's destination chosen.
func rawFrameTo(tb testing.TB, to mcast.ProcessID, m msgs.Message) []byte {
	tb.Helper()
	src := newBenchNode(4)
	body, ok := src.encode(m)
	if !ok {
		tb.Fatal("encode failed")
	}
	l := &link{n: src, pid: to}
	l.append(body)
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
// read, not two each, as the node's socket-read counter sees it.
func TestReadLoopManyFramesOneRead(t *testing.T) {
	r := newReadRig(t, nil)
	const frames = 100
	var burst []byte
	for i := 1; i <= frames; i++ {
		burst = append(burst, rawFrame(t, msgs.ClientReply{ID: mcast.MakeMsgID(4, uint32(i)), Group: 1})...)
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
	if reads := r.n.rt.SocketReads.Load(); reads > 4 {
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
	split := rawFrame(t, small(3))
	writes := [][]byte{
		append(rawFrame(t, small(1)), rawFrame(t, msgs.Multicast{M: big})...),
		split[:2], // inside the length prefix
		split[2:7],
		append(split[7:], rawFrame(t, small(4))...),
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
	frame := rawFrame(t, msgs.ClientReply{ID: mcast.MakeMsgID(4, 1), Group: 0})
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

// recvNode serves process 3 with a handler that reports every Recv on the
// returned channel as whether it is want.
func recvNode(tb testing.TB, want msgs.Message) (*Node, chan bool) {
	tb.Helper()
	got := make(chan bool, 1024)
	n, err := Serve(Config{PID: 3, ListenAddr: "127.0.0.1:0",
		Handler: node.Func{PID: 3, F: func(in node.Input, _ *node.Effects) {
			if rcv, ok := in.(node.Recv); ok {
				got <- rcv.Msg == want
			}
		}}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(n.Close)
	return n, got
}

// TestMisaddressedFrameIsDropped: a peer whose address book is stale (ports
// get reused) writes a well-formed frame for another process to this node.
// It must not reach the handler — group 1's replica handling group 0's
// ACCEPT would involve a process outside the message's destinations — and
// costs nothing else: the connection stays up and the next frame, for this
// node, arrives.
func TestMisaddressedFrameIsDropped(t *testing.T) {
	mine := msgs.ClientReply{ID: mcast.MakeMsgID(4, 2), Group: 1}
	n, got := recvNode(t, mine)
	conn, err := net.Dial("tcp", n.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	foreign := rawFrameTo(t, 9, msgs.ClientReply{ID: mcast.MakeMsgID(4, 1), Group: 0})
	for i := 0; i < 2; i++ { // the second round shows the connection survived the first
		if _, err := conn.Write(append(foreign, rawFrame(t, mine)...)); err != nil {
			t.Fatal(err)
		}
		select {
		case isMine := <-got:
			if !isMine {
				t.Fatal("the handler saw the frame addressed to process 9")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the frame behind the misaddressed one never arrived")
		}
	}
	if st := n.Stats(); st.FramesRead != 2 {
		t.Errorf("FramesRead = %d, want 2: a dropped frame is not a frame read", st.FramesRead)
	}
}

// FuzzFrame feeds arbitrary frame contents — [dest][sender][wire message],
// behind a correct length prefix — to a node's read path over a real
// connection, followed by a marker frame. Whatever the bytes: nothing
// panics; a frame that parses and names this process posts its one message,
// then the marker; one that names another process posts nothing
// but the marker; a malformed one closes the connection, and the node goes
// on serving the next.
func FuzzFrame(f *testing.F) {
	marker := msgs.ClientReply{ID: mcast.MakeMsgID(4, 77), Group: 5}
	markerFrame := rawFrame(f, marker)
	for _, seed := range [][]byte{
		rawFrame(f, benchAccept()), // TestFrameRoundTripPreservesWire's message
		rawFrameTo(f, 9, benchAccept()),
		rawFrame(f, msgs.P2b{Group: 0, Bal: mcast.Ballot{N: 1, Proc: 1}, Slot: 2}),
		rawFrame(f, marker)[:9],
	} {
		f.Add(seed[4:]) // without the length prefix
	}
	n, got := recvNode(f, marker)
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) > 1<<16 {
			return
		}
		// The oracle: what the frame format says about these bytes.
		posts, closes := 0, false
		if dest, off := binary.Varint(frame); off <= 0 {
			closes = true
		} else if dest == 3 {
			if _, err := decodeFrameBody(bytes.Clone(frame[off:])); err != nil {
				closes = true
			} else {
				posts = 1
			}
		}
		conn, err := net.Dial("tcp", n.Addr().String())
		if err != nil {
			t.Skipf("dial: %v", err) // the host ran out of ports: says nothing about these bytes
		}
		defer conn.Close()
		out := binary.BigEndian.AppendUint32(nil, uint32(len(frame)))
		// The node may have closed the connection before the marker is
		// written: a write error is then the expected outcome, shown below.
		_, _ = conn.Write(append(append(out, frame...), markerFrame...))
		gone := make(chan struct{})
		go func() { // the node writes nothing: a Read returns when it closes
			_, _ = conn.Read(make([]byte, 1))
			close(gone)
		}()
		if closes {
			select {
			case <-gone:
			case <-got:
				t.Fatal("a malformed frame posted an input")
			case <-time.After(10 * time.Second):
				t.Fatal("a malformed frame left the connection open")
			}
			return
		}
		for i := 0; i <= posts; i++ {
			select {
			case isMarker := <-got:
				if i == posts && !isMarker {
					t.Fatalf("input %d is not the marker: the frame posted more than its %d messages", i, posts)
				}
			case <-gone:
				t.Fatalf("the connection was closed on a well-formed frame after %d of %d inputs", i, posts+1)
			case <-time.After(10 * time.Second):
				t.Fatalf("%d of %d inputs arrived", i, posts+1)
			}
		}
	})
}
