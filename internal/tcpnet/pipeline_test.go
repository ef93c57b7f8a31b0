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

// scripted serves process pid running script(k, fx) when the test injects
// step k: the sends of one step are one Handle call's, and — the node being
// otherwise idle — one drain's.
func scripted(t *testing.T, pid mcast.ProcessID, script func(k uint64, fx *node.Effects)) *Node {
	t.Helper()
	n, err := Serve(Config{PID: pid, ListenAddr: "127.0.0.1:0", Handler: node.Func{PID: pid, F: func(in node.Input, fx *node.Effects) {
		if tm, ok := in.(node.Timer); ok {
			script(tm.Data, fx)
		}
	}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func step(t *testing.T, n *Node, k uint64) {
	t.Helper()
	if err := n.Inject(node.Timer{Kind: node.TimerApp, Data: k}); err != nil {
		t.Fatal(err)
	}
}

// sinkFrame is one frame as a peer's socket saw it.
type sinkFrame struct {
	to   mcast.ProcessID // the header's destination
	from mcast.ProcessID
	msg  msgs.Message
	conn int // which accepted connection carried it, counting from 1
}

// sink is a peer address that only listens: it decodes the frames written to
// it, in stream order, so a test sees what the link put on the wire. While
// hold is non-nil and open, it accepts but does not read. A connection the
// writing side has closed is reported on ended.
type sink struct {
	ln     net.Listener
	frames chan sinkFrame
	hold   chan struct{}
	conns  chan net.Conn
	ended  chan int
}

func newSink(t *testing.T, hold chan struct{}) *sink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	k := &sink{ln: ln, frames: make(chan sinkFrame, 4096), hold: hold, conns: make(chan net.Conn, 16), ended: make(chan int, 16)}
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
			k.ended <- id
			return
		}
		buf := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Errorf("sink: stream ends inside a frame: %v", err)
			return
		}
		f := sinkFrame{conn: id}
		to, off := binary.Varint(buf)
		f.to = mcast.ProcessID(to)
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

// ackEntries returns what an AckBatch frame to process to carries.
func ackEntries(t *testing.T, f sinkFrame, to mcast.ProcessID) []msgs.Message {
	t.Helper()
	ab, ok := f.msg.(msgs.AckBatch)
	if !ok {
		t.Fatalf("frame carries %T, want an AckBatch", f.msg)
	}
	if f.to != to {
		t.Fatalf("AckBatch frame addressed to %d, want %d", f.to, to)
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
	acks := []msgs.Message{
		msgs.AcceptAck{ID: mcast.MakeMsgID(9, 1), Group: 1},
		msgs.HeartbeatAck{Group: 2, Bal: mcast.Ballot{N: 3, Proc: 1}},
		msgs.P2b{Group: 0, Bal: mcast.Ballot{N: 6, Proc: 1}, Slot: 9},
	}
	n := scripted(t, 1, func(k uint64, fx *node.Effects) {
		fx.Send(10, acks[0])
		fx.Send(10, acks[1])
		fx.Send(12, acks[2])
		if k == 1 {
			fx.Send(10, hb)
		}
	})
	n.SetPeer(10, a.addr())
	n.SetPeer(12, b.addr())

	// Three acks, then a non-ack to 10: 10's acks leave ahead of it as one
	// frame, 12's at the end of the drain.
	step(t, n, 1)
	first := a.next(t)
	if ents := ackEntries(t, first, 10); len(ents) != 2 || ents[0].Kind() != acks[0].Kind() || ents[1] != acks[1] || first.from != 1 {
		t.Fatalf("first frame to 10 = %+v, want process 1's two acks in order", first)
	}
	if second := a.next(t); second.msg != hb || second.to != 10 {
		t.Fatalf("second frame to 10 = %+v, want the heartbeat", second)
	}
	if ents := ackEntries(t, b.next(t), 12); len(ents) != 1 || ents[0] != acks[2] {
		t.Fatalf("12's flush = %+v, want its one ack", ents)
	}

	// Acks alone: nothing follows them on their links, and the node gets no
	// further input — the end of the drain is what sends them.
	step(t, n, 2)
	if ents := ackEntries(t, a.next(t), 10); len(ents) != 2 {
		t.Fatalf("10's drain-end flush = %+v, want two acks", ents)
	}
	if ents := ackEntries(t, b.next(t), 12); len(ents) != 1 {
		t.Fatalf("12's drain-end flush = %+v, want one ack", ents)
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
	n := scripted(t, 1, func(_ uint64, fx *node.Effects) {
		for i := 0; i < ackBatchMax+extra; i++ {
			fx.Send(10, msgs.P2b{Group: 0, Bal: mcast.Ballot{N: 1, Proc: 1}, Slot: uint64(i)})
		}
	})
	n.SetPeer(10, a.addr())
	step(t, n, 0)
	slot := uint64(0)
	for _, want := range []int{ackBatchMax, extra} {
		ents := ackEntries(t, a.next(t), 10)
		if len(ents) != want {
			t.Fatalf("ack batch of %d, want %d", len(ents), want)
		}
		for _, ent := range ents {
			if ent.(msgs.P2b).Slot != slot {
				t.Fatalf("entry out of order: slot %d, want %d", ent.(msgs.P2b).Slot, slot)
			}
			slot++
		}
	}
}
