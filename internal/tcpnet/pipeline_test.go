package tcpnet

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
)

// waitFor polls cond until it holds or a deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// scripted serves a node whose shards run script(pid, k, fx) when the test
// injects step k into shard pid: the sends of one step are one Handle call's,
// and — the node being otherwise idle — one drain's.
func scripted(t *testing.T, script func(pid mcast.ProcessID, k uint64, fx *node.Effects), pids ...mcast.ProcessID) *Node {
	t.Helper()
	cfg := Config{ListenAddr: "127.0.0.1:0"}
	for _, pid := range pids {
		cfg.Shards = append(cfg.Shards, ShardConfig{Handler: node.Func{PID: pid, F: func(in node.Input, fx *node.Effects) {
			if tm, ok := in.(node.Timer); ok {
				script(pid, tm.Data, fx)
			}
		}}})
	}
	n, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func step(t *testing.T, n *Node, pid mcast.ProcessID, k uint64) {
	t.Helper()
	if err := n.InjectTo(pid, node.Timer{Kind: node.TimerApp, Data: k}); err != nil {
		t.Fatal(err)
	}
}

// sinkFrame is one frame as a peer's socket saw it.
type sinkFrame struct {
	tos  []mcast.ProcessID // the header's destination list
	from mcast.ProcessID
	msg  msgs.Message
	conn int // which accepted connection carried it, counting from 1
}

// sink is a peer address that only listens: it decodes the frames written to
// it, in stream order, so a test sees what the link put on the wire. While
// hold is non-nil and open, it accepts but does not read.
type sink struct {
	ln     net.Listener
	frames chan sinkFrame
	hold   chan struct{}
	conns  chan net.Conn
}

func newSink(t *testing.T, hold chan struct{}) *sink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	k := &sink{ln: ln, frames: make(chan sinkFrame, 4096), hold: hold, conns: make(chan net.Conn, 16)}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for id := 1; ; id++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { c.Close() })
			k.conns <- c
			go k.read(t, c, id)
		}
	}()
	return k
}

func (k *sink) addr() string { return k.ln.Addr().String() }

func (k *sink) read(t *testing.T, c net.Conn, id int) {
	if k.hold != nil {
		<-k.hold
	}
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(c, lenBuf[:]); err != nil {
			return
		}
		buf := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Errorf("sink: stream ends inside a frame: %v", err)
			return
		}
		f := sinkFrame{conn: id}
		nd, off := binary.Uvarint(buf)
		for i := uint64(0); i < nd; i++ {
			d, w := binary.Varint(buf[off:])
			off += w
			f.tos = append(f.tos, mcast.ProcessID(d))
		}
		rcv, err := decodeFrameBody(buf[off:])
		if err != nil {
			t.Errorf("sink: undecodable frame: %v", err)
			return
		}
		f.from, f.msg = rcv.From, rcv.Msg
		k.frames <- f
	}
}

func (k *sink) next(t *testing.T) sinkFrame {
	t.Helper()
	select {
	case f := <-k.frames:
		return f
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a frame at the sink")
		return sinkFrame{}
	}
}

func ackEntries(t *testing.T, f sinkFrame) []msgs.AckEntry {
	t.Helper()
	ab, ok := f.msg.(msgs.AckBatch)
	if !ok {
		t.Fatalf("frame carries %T, want an AckBatch", f.msg)
	}
	if len(f.tos) != 0 {
		t.Fatalf("AckBatch frame names destinations %v in its header", f.tos)
	}
	return ab.Entries
}

// TestAckBatchingFlushRules pins the ack-batching contract of the send path:
// ack-class unicasts accumulate per link; a non-ack frame to the same link
// is not allowed past them (per-link FIFO); the end of the drain flushes
// every link, with no further input.
func TestAckBatchingFlushRules(t *testing.T) {
	a, b := newSink(t, nil), newSink(t, nil)
	hb := msgs.Heartbeat{Group: 2, Bal: mcast.Ballot{N: 3, Proc: 1}}
	n := scripted(t, func(_ mcast.ProcessID, k uint64, fx *node.Effects) {
		fx.Send(10, msgs.AcceptAck{ID: mcast.MakeMsgID(9, 1), Group: 1})
		fx.Send(11, msgs.HeartbeatAck{Group: 2, Bal: mcast.Ballot{N: 3, Proc: 1}})
		fx.Send(12, msgs.P2b{Group: 0, Bal: mcast.Ballot{N: 6, Proc: 1}, Slot: 9})
		if k == 1 {
			fx.Send(10, hb)
		}
	}, 1)
	n.SetPeer(10, a.addr())
	n.SetPeer(11, a.addr())
	n.SetPeer(12, b.addr())

	// Three acks, then a non-ack to a's address: a's acks leave ahead of it
	// as one frame, b's at the end of the drain.
	step(t, n, 1, 1)
	first := a.next(t)
	if ents := ackEntries(t, first); len(ents) != 2 || ents[0].To != 10 || ents[1].To != 11 || first.from != 1 {
		t.Fatalf("first frame to a = %+v, want shard 1's acks to 10 then 11", first)
	}
	if second := a.next(t); second.msg != hb || len(second.tos) != 1 || second.tos[0] != 10 {
		t.Fatalf("second frame to a = %+v, want the heartbeat to 10", second)
	}
	if ents := ackEntries(t, b.next(t)); len(ents) != 1 || ents[0].To != 12 {
		t.Fatalf("b's flush = %+v, want one ack to 12", ents)
	}

	// Acks alone: nothing follows them on their links, and the node gets no
	// further input — the end of the drain is what sends them.
	step(t, n, 1, 2)
	if ents := ackEntries(t, a.next(t)); len(ents) != 2 {
		t.Fatalf("a's drain-end flush = %+v, want two acks", ents)
	}
	if ents := ackEntries(t, b.next(t)); len(ents) != 1 {
		t.Fatalf("b's drain-end flush = %+v, want one ack", ents)
	}
	st := n.Stats()
	if st.MessagesEncoded != 5 || st.FramesSent != 5 {
		t.Errorf("encoded %d messages into %d frames, want 5 and 5 (four ack batches, one heartbeat)", st.MessagesEncoded, st.FramesSent)
	}
	if got := n.rt.AckBatchSize.Snapshot().Count; got != 4 {
		t.Errorf("ack batch size observed %d times, want 4", got)
	}
}

// TestAckBatchMaxFlush: a link that accumulates ackBatchMax acks within one
// call flushes them at once; the rest follow in order at the drain's end.
func TestAckBatchMaxFlush(t *testing.T) {
	const extra = 5
	a := newSink(t, nil)
	n := scripted(t, func(_ mcast.ProcessID, _ uint64, fx *node.Effects) {
		for i := 0; i < ackBatchMax+extra; i++ {
			fx.Send(10, msgs.P2b{Group: 0, Bal: mcast.Ballot{N: 1, Proc: 1}, Slot: uint64(i)})
		}
	}, 1)
	n.SetPeer(10, a.addr())
	step(t, n, 1, 0)
	slot := uint64(0)
	for _, want := range []int{ackBatchMax, extra} {
		ents := ackEntries(t, a.next(t))
		if len(ents) != want {
			t.Fatalf("ack batch of %d, want %d", len(ents), want)
		}
		for _, ent := range ents {
			if ent.Msg.(msgs.P2b).Slot != slot {
				t.Fatalf("entry out of order: slot %d, want %d", ent.Msg.(msgs.P2b).Slot, slot)
			}
			slot++
		}
	}
}

// TestFanoutGroupsByAddr: a fan-out send whose recipients share addresses
// produces one frame per address, naming every recipient there in its
// header, from a single encode.
func TestFanoutGroupsByAddr(t *testing.T) {
	a, b := newSink(t, nil), newSink(t, nil)
	n := scripted(t, func(_ mcast.ProcessID, _ uint64, fx *node.Effects) {
		fx.SendAll([]mcast.ProcessID{10, 11, 12}, benchAccept())
	}, 1)
	n.SetPeer(10, a.addr())
	n.SetPeer(11, a.addr())
	n.SetPeer(12, b.addr())
	step(t, n, 1, 0)
	if fa := a.next(t); len(fa.tos) != 2 || fa.tos[0] != 10 || fa.tos[1] != 11 {
		t.Fatalf("a's destinations = %v, want [10 11]", fa.tos)
	}
	if fb := b.next(t); len(fb.tos) != 1 || fb.tos[0] != 12 {
		t.Fatalf("b's destinations = %v, want [12]", fb.tos)
	}
	if st := n.Stats(); st.MessagesEncoded != 1 || st.FramesSent != 2 {
		t.Errorf("encoded %d, sent %d frames; want 1 encode, 2 frames (one per address)", st.MessagesEncoded, st.FramesSent)
	}
}

// TestHostedRecipientsSkipWire: a node hosting shards 1 and 2 — a send from
// shard 1 to {2, 12} reaches shard 2 through its mailbox and puts only the
// frame for 12 on the wire.
func TestHostedRecipientsSkipWire(t *testing.T) {
	b := newSink(t, nil)
	hb := msgs.Heartbeat{Group: 0, Bal: mcast.Ballot{N: 1, Proc: 1}}
	local := make(chan node.Recv, 1)
	n, err := Serve(Config{
		ListenAddr: "127.0.0.1:0",
		Shards: []ShardConfig{
			{Handler: node.Func{PID: 1, F: func(in node.Input, fx *node.Effects) {
				if _, ok := in.(node.Timer); ok {
					fx.SendAll([]mcast.ProcessID{2, 12}, hb)
				}
			}}},
			{Handler: node.Func{PID: 2, F: func(in node.Input, _ *node.Effects) {
				if rcv, ok := in.(node.Recv); ok {
					local <- rcv
				}
			}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.SetPeer(12, b.addr())
	step(t, n, 1, 0)
	if f := b.next(t); len(f.tos) != 1 || f.tos[0] != 12 || f.msg != hb {
		t.Fatalf("wire frame = %+v, want the heartbeat to 12 only", f)
	}
	select {
	case rcv := <-local:
		if rcv.From != 1 || rcv.Msg != hb {
			t.Fatalf("shard 2 received %+v", rcv)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the co-hosted shard never got the message")
	}
	if st := n.Stats(); st.MessagesEncoded != 1 || st.FramesSent != 1 {
		t.Errorf("stats %+v, want one encode and one frame", st)
	}
}
