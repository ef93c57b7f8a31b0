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
