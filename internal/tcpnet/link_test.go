package tcpnet

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/wal"
)

// TestIdleSendIsFlushed: a single send on an otherwise idle node reaches its
// peer with no further input — the end of the drain flushes the link, and a
// drain of one input has an end like any other. The same holds for a send
// the Step held back for a commit: it is released by the hand-off coming
// back through the mailbox, which is a drain too.
func TestIdleSendIsFlushed(t *testing.T) {
	a := newSink(t, nil)
	hb := msgs.Heartbeat{Group: 1, Bal: mcast.Ballot{N: 2, Proc: 1}}
	n := scripted(t, 1, func(_ uint64, fx *node.Effects) { fx.Send(10, hb) })
	n.SetPeer(10, a.addr())
	for i := 0; i < 3; i++ { // the first goes through the writer's dial, the rest through an idle connected link
		step(t, n, 0)
		if f := a.next(t); f.msg != hb || f.from != 1 {
			t.Fatalf("send %d arrived as %+v", i, f)
		}
	}

	held, err := Serve(Config{
		PID: 2, ListenAddr: "127.0.0.1:0", Storage: wal.NewMemory(),
		Handler: node.Func{PID: 2, F: func(in node.Input, fx *node.Effects) {
			if _, ok := in.(node.Timer); ok {
				fx.Persist(wal.Entry{Kind: wal.EntryApp, App: []byte("x")})
				fx.Send(10, hb)
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	held.SetPeer(10, a.addr())
	for i := 0; i < 3; i++ {
		step(t, held, 0)
		if f := a.next(t); f.msg != hb || f.from != 2 {
			t.Fatalf("held send %d arrived as %+v", i, f)
		}
	}
}

// TestStalledPeer: a peer that accepts and then stops reading. The shard
// loop's write goes short once the socket is full, the link's writer takes
// the rest and blocks, and the loop keeps appending up to linkBacklog; past
// that frames are dropped and counted, and the loop never blocks. When the
// peer resumes, what was not dropped arrives whole, in order, once.
func TestStalledPeer(t *testing.T) {
	const frames, payload = 1000, 32 << 10 // 32 MB: past the socket buffers and two backlogs
	resume := make(chan struct{})
	a := newSink(t, resume)
	var sent atomic.Int64
	n := scripted(t, 1, func(k uint64, fx *node.Effects) {
		fx.Send(10, msgs.Multicast{M: mcast.AppMsg{
			ID: mcast.MakeMsgID(1, uint32(k)), Dest: mcast.NewGroupSet(0), Payload: bytes.Repeat([]byte{byte(k)}, payload),
		}})
		sent.Add(1)
	})
	n.SetPeer(10, a.addr())
	for k := uint64(1); k <= frames; k++ {
		step(t, n, k)
	}
	// Handle counts a send before the loop appends it to the link or drops
	// it, so the drops are read once every frame has been one or the other.
	waitFor(t, "the shard loop to get through every send", func() bool {
		st := n.Stats()
		return sent.Load() == frames && st.FramesSent+st.OutboundDrops == frames
	})
	drops := n.Stats().OutboundDrops
	if drops == 0 || drops >= frames {
		t.Fatalf("%d of %d frames dropped, want some but not all: the backlog is bounded at %d bytes", drops, frames, linkBacklog)
	}
	l := n.linkTo(10)
	l.mu.Lock()
	writing, backlog := l.writing, len(l.buf)
	l.mu.Unlock()
	if !writing {
		t.Error("the link's writer is not running against a stalled peer")
	}
	if backlog > linkBacklog {
		t.Errorf("backlog of %d bytes, bound %d", backlog, linkBacklog)
	}

	close(resume)
	prev := uint32(0)
	for got := int64(0); got < frames-drops; got++ {
		m, ok := a.next(t).msg.(msgs.Multicast)
		if !ok {
			t.Fatal("not a MULTICAST")
		}
		seq := m.M.ID.Seq()
		if seq <= prev {
			t.Fatalf("frame %d arrived after frame %d", seq, prev)
		}
		if len(m.M.Payload) != payload || m.M.Payload[0] != byte(seq) || m.M.Payload[payload-1] != byte(seq) {
			t.Fatalf("frame %d arrived damaged", seq)
		}
		prev = seq
	}
	if st := n.Stats(); st.OutboundDrops != drops || st.FramesSent+st.OutboundDrops != frames {
		t.Errorf("sent %d + dropped %d frames, want %d in all and no drop after the stall", st.FramesSent, st.OutboundDrops, frames)
	}
	select {
	case f := <-a.frames:
		t.Fatalf("a frame arrived twice: %+v", f.msg.(msgs.Multicast).M.ID)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestCoalescedWritesAndReconnects pins what the link's counters mean. The
// sends of one drain to one address leave in one write — the writer's after
// its dial, then the loop's own on the connected idle link: SocketWrites
// counts it, FramesCoalesced the frames beyond the first. A connection the
// peer has closed costs one Reconnects and nothing else: the link redials
// and later frames arrive.
func TestCoalescedWritesAndReconnects(t *testing.T) {
	a := newSink(t, nil)
	n := scripted(t, 1, func(k uint64, fx *node.Effects) {
		for i := uint64(0); i < k; i++ {
			fx.Send(10, msgs.Heartbeat{Group: 0, Bal: mcast.Ballot{N: i, Proc: 1}})
		}
	})
	n.SetPeer(10, a.addr())
	for drain := int64(1); drain <= 2; drain++ {
		step(t, n, 5)
		for i := uint64(0); i < 5; i++ {
			if f := a.next(t); f.msg.(msgs.Heartbeat).Bal.N != i || f.conn != 1 {
				t.Fatalf("drain %d: frame %d arrived as %+v", drain, i, f)
			}
		}
		if st, w := n.Stats(), int64(n.rt.SocketWrites.Load()); st.FramesCoalesced != 4*drain || w != drain || st.Reconnects != 0 {
			t.Fatalf("FramesCoalesced = %d, SocketWrites = %d, Reconnects = %d after %d drains of 5 frames; want %d, %d and 0",
				st.FramesCoalesced, w, st.Reconnects, drain, 4*drain, drain)
		}
	}

	(<-a.conns).Close() // the peer goes away; writes into the dead connection fail sooner or later
	waitFor(t, "a frame on a fresh connection", func() bool {
		step(t, n, 1)
		select {
		case f := <-a.frames:
			return f.conn == 2
		case <-time.After(20 * time.Millisecond):
			return false
		}
	})
	if st := n.Stats(); st.Reconnects == 0 {
		t.Error("Reconnects = 0 after the peer closed the connection")
	}
	l := n.linkTo(10)
	waitFor(t, "the writer to end with nothing left to write", func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return !l.writing
	})
}

// TestSetPeerMovesTheLink: a peer registered at a new address gets a new
// link, and the connection to the old address is closed then — not left to
// idle until the node closes. Registering the same address again changes
// nothing.
func TestSetPeerMovesTheLink(t *testing.T) {
	a, b := newSink(t, nil), newSink(t, nil)
	hb := msgs.Heartbeat{Group: 1, Bal: mcast.Ballot{N: 2, Proc: 1}}
	n := scripted(t, 1, func(_ uint64, fx *node.Effects) { fx.Send(10, hb) })
	n.SetPeer(10, a.addr())
	step(t, n, 0)
	if f := a.next(t); f.msg != hb || f.conn != 1 {
		t.Fatalf("the frame to the first address arrived as %+v", f)
	}
	n.SetPeer(10, a.addr())
	step(t, n, 0)
	if f := a.next(t); f.conn != 1 {
		t.Fatalf("registering the same address again cost a connection: %+v", f)
	}

	n.SetPeer(10, b.addr())
	select {
	case id := <-a.ended:
		if id != 1 {
			t.Fatalf("connection %d to the old address ended, want the first", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the connection to the old address is still open")
	}
	step(t, n, 0)
	if f := b.next(t); f.msg != hb || f.to != 10 {
		t.Fatalf("the frame to the new address arrived as %+v", f)
	}
	select {
	case f := <-a.frames:
		t.Fatalf("a frame still went to the old address: %+v", f)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestPlaceholderPeerIsADrop: a peer registered at port 0 has not bound its
// port yet — a TCP transport's processes start one by one and learn each
// other's ephemeral ports as they bind. A send to it is a counted drop and
// nothing more: no writer goroutine, no dial, no reconnect, no log line. A
// real address then replaces the placeholder.
func TestPlaceholderPeerIsADrop(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	hb := msgs.Heartbeat{Group: 1, Bal: mcast.Ballot{N: 2, Proc: 1}}
	n, err := Serve(Config{
		PID: 1, ListenAddr: "127.0.0.1:0", Peers: map[mcast.ProcessID]string{10: "127.0.0.1:0"},
		Logf: func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
		Handler: node.Func{PID: 1, F: func(in node.Input, fx *node.Effects) {
			if _, ok := in.(node.Timer); ok {
				fx.Send(10, hb)
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	base := runtime.NumGoroutine()
	step(t, n, 0)
	waitFor(t, "the drop", func() bool { return n.Stats().OutboundDrops == 1 })
	time.Sleep(20 * time.Millisecond) // room for a dial that should not happen
	if s := n.Stats(); s.OutboundDrops != 1 || s.Reconnects != 0 || s.FramesSent != 0 {
		t.Errorf("stats after one send to a placeholder: %+v", s)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("%d goroutines after the send, %d before", g, base)
	}
	mu.Lock()
	for _, line := range logged {
		if strings.Contains(line, "dial") {
			t.Errorf("logged %q", line)
		}
	}
	mu.Unlock()

	a := newSink(t, nil)
	n.SetPeer(10, a.addr())
	step(t, n, 0)
	if f := a.next(t); f.msg != hb {
		t.Fatalf("the send after the real address arrived as %+v", f)
	}
}
