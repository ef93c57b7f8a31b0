package tcpnet

import (
	"sync"
	"testing"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/wire"
)

// TestEncodeOnceFanout is the acceptance check for encode-once fan-out: one
// Handle call whose effects fan a message out to many recipients serialises
// that message exactly once, however many peers it reaches, and every
// address receives it whole. The encoded body is copied into each link's
// buffer — for the protocol's frames (an ACCEPT with a 64-byte payload is
// ~110 bytes) that is a few nanoseconds per address; it reaches the order of
// a frame's fixed cost (about a microsecond) at bodies of some 16 KiB.
func TestEncodeOnceFanout(t *testing.T) {
	const peers = 9
	sinks := make([]*sink, peers)
	var tos []mcast.ProcessID
	del := msgs.Deliver{ID: mcast.MakeMsgID(30, 7), Bal: mcast.Ballot{N: 1, Proc: 0}}
	n := scripted(t, 100, func(k uint64, fx *node.Effects) {
		switch k {
		case 1:
			fx.SendAll(tos, benchAccept())
		case 2: // two distinct messages: two encodes, whatever the recipient counts
			fx.SendAll(tos[:6], benchAccept())
			fx.SendAll(tos, del)
		}
	})
	for pid := mcast.ProcessID(0); pid < peers; pid++ {
		sinks[pid] = newSink(t, nil)
		n.SetPeer(pid, sinks[pid].addr())
		tos = append(tos, pid)
	}

	step(t, n, 1)
	want := benchAccept()
	for pid, k := range sinks {
		f := k.next(t)
		acc, ok := f.msg.(msgs.Accept)
		if !ok || f.from != 100 || f.to != mcast.ProcessID(pid) {
			t.Fatalf("peer %d received %+v", pid, f)
		}
		if acc.M.ID != want.M.ID || string(acc.M.Payload) != string(want.M.Payload) || acc.LTS != want.LTS {
			t.Fatalf("peer %d received a different ACCEPT: %+v", pid, acc)
		}
	}
	if st := n.Stats(); st.MessagesEncoded != 1 || st.FramesSent != peers {
		t.Errorf("encoded %d, sent %d frames; want 1 encode, %d frames", st.MessagesEncoded, st.FramesSent, peers)
	}

	step(t, n, 2)
	for pid, k := range sinks {
		if pid < 6 {
			if _, ok := k.next(t).msg.(msgs.Accept); !ok {
				t.Fatalf("peer %d: the ACCEPT did not come first", pid)
			}
		}
		if f := k.next(t); f.msg != del {
			t.Fatalf("peer %d received %+v, want the DELIVER", pid, f)
		}
	}
	if st := n.Stats(); st.MessagesEncoded != 3 || st.FramesSent != peers+6+peers {
		t.Errorf("encoded %d, sent %d frames; want 3 encodes, %d frames", st.MessagesEncoded, st.FramesSent, peers+6+peers)
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
		Handler: node.Func{PID: 100, F: func(in node.Input, fx *node.Effects) {
			switch in := in.(type) {
			case node.Timer:
				fx.SendAll([]mcast.ProcessID{100}, msgs.Heartbeat{Group: 2, Bal: mcast.Ballot{N: 1, Proc: 100}})
			case node.Recv:
				mu.Lock()
				got = append(got, in.Msg.Kind())
				mu.Unlock()
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	step(t, n, 0)
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

// TestElasticMailboxNeverBlocks floods a node with inputs from inside the
// handler itself (the classic buffer-deadlock shape: the handler loop
// producing into its own queue). The mailbox has no capacity, so this must
// complete; with a blocking bounded mailbox it would deadlock.
func TestElasticMailboxNeverBlocks(t *testing.T) {
	const n = 100000
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
		t.Errorf("MailboxHighWater = %d, want > 64 (the burst queued up)", hw)
	}
}

// TestStalledLoopHighWater: while a node's loop is stuck inside one Handle
// call, the posts behind it keep the mailbox's high-water mark current, and
// Stats and the wbcast_mailbox_high_water view read the same number.
func TestStalledLoopHighWater(t *testing.T) {
	const queued = 100
	entered, release := make(chan struct{}), make(chan struct{})
	stalled := false
	h := node.Func{PID: 1, F: func(in node.Input, _ *node.Effects) {
		if _, ok := in.(node.Recv); ok && !stalled {
			stalled = true
			entered <- struct{}{} // unbuffered: the test knows the loop is here
			<-release
		}
	}}
	nd := (&memNet{t: t}).add(h, nil)
	defer close(release) // before the node's Close, which joins the loop
	reg := obs.NewRegistry(`proc="1"`)
	reg.RegisterFunc(obs.MetricMailboxHighWater, "", obs.KindGauge, nd.MailboxHighWater)

	hb := node.Recv{From: 2, Msg: msgs.Heartbeat{Group: 0}}
	if err := nd.Inject(hb); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the handler never received the first input")
	}
	for i := 0; i < queued; i++ {
		if err := nd.Inject(hb); err != nil {
			t.Fatal(err)
		}
	}
	hw := nd.Stats().MailboxHighWater
	if hw < queued {
		t.Errorf("Stats().MailboxHighWater = %d with the loop stalled, want >= %d (depth %d)", hw, queued, nd.MailboxDepth())
	}
	if g := reg.Snapshot().Gauges[obs.MetricMailboxHighWater]; g != hw {
		t.Errorf("%s = %d, Stats().MailboxHighWater = %d", obs.MetricMailboxHighWater, g, hw)
	}
}

// TestStatsCountsDrops verifies OutboundDrops counts address-less sends.
func TestStatsCountsDrops(t *testing.T) {
	n := scripted(t, 100, func(_ uint64, fx *node.Effects) {
		fx.Send(55, msgs.Heartbeat{Group: 0}) // no address registered
	})
	step(t, n, 0)
	waitFor(t, "drop to be counted", func() bool { return n.Stats().OutboundDrops == 1 })
}

// TestFrameRoundTripPreservesWire round-trips a frame body through the send
// path's encode and decodeFrameBody, checking the borrow-decoded message
// against the original.
func TestFrameRoundTripPreservesWire(t *testing.T) {
	orig := benchAccept()
	body, ok := newBenchNode(7).encode(orig)
	if !ok {
		t.Fatal("encode failed")
	}
	rcv, err := decodeFrameBody(body)
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
	// show through. readLoop reads every frame into a buffer of its own and
	// never writes it again, so the alias is safe to keep.
	body[len(body)-1] ^= 0xFF
	enc, _ := wire.Encode(nil, orig)
	if string(acc.M.Payload) == string(enc[len(enc)-len(acc.M.Payload):]) {
		t.Error("payload did not alias the frame; borrow decode is copying")
	}
}
