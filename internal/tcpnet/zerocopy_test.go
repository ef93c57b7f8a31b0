package tcpnet

import (
	"sync"
	"testing"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/wire"
)

// waitFor polls cond until it holds or a deadline passes. The encode stage
// runs asynchronously off the shard loops, so counter assertions after an
// apply must wait for the pipeline to drain.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// captureWriter pre-registers a writer for addr whose queue is not drained
// by a writeLoop, so tests can inspect exactly what the encode stage
// enqueued.
func captureWriter(n *Node, addr string) *writer {
	w := &writer{addr: addr, out: make(chan outEntry, 1024)}
	n.mu.Lock()
	n.writers[addr] = w
	n.mu.Unlock()
	return w
}

// TestEncodeOnceFanout is the acceptance check for encode-once fan-out: one
// Handle call whose effects fan a message out to many recipients must
// serialise that message exactly once, however many peers it reaches, and
// enqueue one shared frame per destination address.
func TestEncodeOnceFanout(t *testing.T) {
	// An echo handler is irrelevant here; we drive the send path directly.
	n, err := Serve(Config{
		PID:        100,
		ListenAddr: "127.0.0.1:0",
		Handler:    node.Func{PID: 100, F: func(node.Input, *node.Effects) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Nine remote recipients across three "groups", each at its own
	// address, captured so the writer queues are observable.
	addrs := []string{"cap-a", "cap-b", "cap-c", "cap-d", "cap-e", "cap-f", "cap-g", "cap-h", "cap-i"}
	var tos []mcast.ProcessID
	for pid := mcast.ProcessID(0); pid < 9; pid++ {
		captureWriter(n, addrs[pid])
		n.SetPeer(pid, addrs[pid])
		tos = append(tos, pid)
	}

	var fx node.Effects
	fx.SendAll(tos, benchAccept())
	n.shards[0].send(nil, fx.Sends)
	waitFor(t, "fan-out to drain", func() bool { return n.Stats().FramesSent >= 9 })

	st := n.Stats()
	if st.MessagesEncoded != 1 {
		t.Errorf("MessagesEncoded = %d, want 1 (encode-once fan-out)", st.MessagesEncoded)
	}
	if st.FramesSent != 9 {
		t.Errorf("FramesSent = %d, want 9", st.FramesSent)
	}

	// A second Handle's worth of effects with two distinct messages → two
	// encodes, regardless of recipient counts.
	fx.Reset()
	fx.SendAll(tos[:6], benchAccept())
	fx.SendAll(tos, msgs.Deliver{ID: mcast.MakeMsgID(30, 7), Bal: mcast.Ballot{N: 1, Proc: 0}})
	n.shards[0].send(nil, fx.Sends)
	waitFor(t, "second fan-out to drain", func() bool { return n.Stats().FramesSent >= 9+6+9 })
	st = n.Stats()
	if st.MessagesEncoded != 3 {
		t.Errorf("MessagesEncoded = %d, want 3 total", st.MessagesEncoded)
	}
	if st.FramesSent != 9+6+9 {
		t.Errorf("FramesSent = %d, want %d", st.FramesSent, 9+6+9)
	}
}

// TestFanoutSharesOneFrame verifies the shared frame actually reaches every
// writer queue as the same buffer (pointer-identical), i.e. the fan-out does
// not copy per destination address.
func TestFanoutSharesOneFrame(t *testing.T) {
	n, err := Serve(Config{
		PID:        100,
		ListenAddr: "127.0.0.1:0",
		Handler:    node.Func{PID: 100, F: func(node.Input, *node.Effects) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ws := make([]*writer, 3)
	addrs := []string{"cap-x", "cap-y", "cap-z"}
	for pid := mcast.ProcessID(0); pid < 3; pid++ {
		ws[pid] = captureWriter(n, addrs[pid])
		n.SetPeer(pid, addrs[pid])
	}

	var fx node.Effects
	fx.SendAll([]mcast.ProcessID{0, 1, 2}, benchAccept())
	n.shards[0].send(nil, fx.Sends)
	waitFor(t, "fan-out to drain", func() bool { return n.Stats().FramesSent == 3 })

	var frames []*outFrame
	for _, w := range ws {
		select {
		case e := <-w.out:
			frames = append(frames, e.f)
		default:
			t.Fatal("writer queue empty after fan-out")
		}
	}
	for i := 1; i < len(frames); i++ {
		if frames[i] != frames[0] {
			t.Fatal("fan-out enqueued distinct frame objects; want one shared frame")
		}
	}
}

// TestSelfSendBypassesWire checks that self-recipients inside a fan-out loop
// back through the mailbox without being encoded or counted as sent frames.
func TestSelfSendBypassesWire(t *testing.T) {
	var mu sync.Mutex
	var got []msgs.Kind
	n, err := Serve(Config{
		PID:        100,
		ListenAddr: "127.0.0.1:0",
		Handler: node.Func{PID: 100, F: func(in node.Input, _ *node.Effects) {
			if rcv, ok := in.(node.Recv); ok {
				mu.Lock()
				got = append(got, rcv.Msg.Kind())
				mu.Unlock()
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	var fx node.Effects
	fx.SendAll([]mcast.ProcessID{100}, msgs.Heartbeat{Group: 2, Bal: mcast.Ballot{N: 1, Proc: 100}})
	n.shards[0].send(nil, fx.Sends)

	waitFor(t, "self-send to loop back", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	st := n.Stats()
	if st.MessagesEncoded != 0 || st.FramesSent != 0 {
		t.Errorf("self-send touched the wire: %+v", st)
	}
}

// TestElasticMailboxNeverBlocks floods a node with more inputs than the
// bounded ring holds, from inside the handler itself (the classic
// buffer-deadlock shape: the handler loop producing into its own queue).
// With the ring's overflow fallback this must complete; with a blocking
// bounded mailbox it would deadlock.
func TestElasticMailboxNeverBlocks(t *testing.T) {
	const n = 100000 // far above the default 64-slot ring
	done := make(chan struct{})
	var count int
	var nd *Node
	h := node.Func{PID: 1, F: func(in node.Input, fx *node.Effects) {
		switch in.(type) {
		case node.Submit:
			// Fan out a burst of self-sends from one Handle call.
			for i := 0; i < n; i++ {
				fx.Send(1, msgs.Heartbeat{Group: 0})
			}
		case node.Recv:
			count++
			if count == n {
				close(done)
			}
		}
	}}
	nd, err := Serve(Config{PID: 1, ListenAddr: "127.0.0.1:0", Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if err := nd.Inject(node.Submit{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("handler loop stalled after %d of %d self-sends", count, n)
	}
	if hw := nd.Stats().MailboxHighWater; hw <= 64 {
		t.Errorf("MailboxHighWater = %d, want > ring capacity (overflow was exercised)", hw)
	}
}

// TestStatsCountsDrops verifies OutboundDrops counts address-less sends.
func TestStatsCountsDrops(t *testing.T) {
	n, err := Serve(Config{
		PID:        100,
		ListenAddr: "127.0.0.1:0",
		Handler:    node.Func{PID: 100, F: func(node.Input, *node.Effects) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var fx node.Effects
	fx.Send(55, msgs.Heartbeat{Group: 0}) // no address registered
	n.shards[0].send(nil, fx.Sends)
	waitFor(t, "drop to be counted", func() bool { return n.Stats().OutboundDrops == 1 })
}

// TestFrameRoundTripPreservesWire round-trips a frame body through
// encodeFrame and decodeFrameBody, checking the borrow-decoded message
// against the original.
func TestFrameRoundTripPreservesWire(t *testing.T) {
	n := newBenchNode(7)
	orig := benchAccept()
	f, err := n.encodeFrame(7, orig)
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := decodeFrameBody(f.buf)
	if err != nil {
		t.Fatal(err)
	}
	if rcv.From != 7 {
		t.Errorf("sender = %d, want 7", rcv.From)
	}
	acc, ok := rcv.Msg.(msgs.Accept)
	if !ok {
		t.Fatalf("decoded %T", rcv.Msg)
	}
	if acc.M.ID != orig.M.ID || string(acc.M.Payload) != string(orig.M.Payload) {
		t.Error("borrow-decoded message differs from original")
	}
	// The borrow-decoded payload aliases the frame: mutating the frame must
	// show through (this is the ownership hazard the Handler contract and
	// Clone() discipline exist for).
	f.buf[len(f.buf)-1] ^= 0xFF
	enc, _ := wire.Encode(nil, orig)
	if string(acc.M.Payload) == string(enc[len(enc)-len(acc.M.Payload):]) {
		t.Error("payload did not alias the frame; borrow decode is copying")
	}
}
