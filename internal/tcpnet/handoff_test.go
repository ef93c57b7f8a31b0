package tcpnet

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/wal"
)

// parkedStore parks its first Append until release is closed, and keeps a
// copy of every application entry as it looked when Append saw it.
type parkedStore struct {
	*wal.Memory
	parked, release chan struct{}
	once            sync.Once
	mu              sync.Mutex
	apps            [][]byte
}

func (s *parkedStore) Append(entries ...wal.Entry) error {
	s.once.Do(func() {
		close(s.parked)
		<-s.release
	})
	s.mu.Lock()
	for _, e := range entries {
		s.apps = append(s.apps, bytes.Clone(e.App))
	}
	s.mu.Unlock()
	return s.Memory.Append(entries...)
}

func (s *parkedStore) seen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.apps)
}

// TestStagedEntriesKeepTheirFrames: a persist entry may alias the borrowed
// frame of the input that produced it, and it now outlives its Handle call
// — it is staged until the drain ends and written by a hand-off that runs
// beside the loop. The frame of every input that staged something must
// therefore stay out of the pool until that hand-off's Append has returned.
// A handler logs each received payload, unclone; the store parks the Append
// that carries the first one while 256 more frames of the same size, filled
// with another byte, pass through the read loop and the shard. Recycled
// early, the first frame's buffer is refilled by one of them and the log
// gets the wrong bytes.
func TestStagedEntriesKeepTheirFrames(t *testing.T) {
	const later = 256
	st := &parkedStore{Memory: wal.NewMemory(), parked: make(chan struct{}), release: make(chan struct{})}
	n, err := Serve(Config{
		PID: 3, ListenAddr: "127.0.0.1:0", Storage: st,
		Handler: node.Func{PID: 3, F: func(in node.Input, fx *node.Effects) {
			if rcv, ok := in.(node.Recv); ok {
				fx.PersistLazy(wal.Entry{Kind: wal.EntryApp, App: rcv.Msg.(msgs.Multicast).M.Payload})
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	conn, err := net.Dial("tcp", n.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(fill byte) {
		t.Helper()
		m := mcast.AppMsg{ID: mcast.MakeMsgID(4, 1), Dest: mcast.NewGroupSet(0), Payload: bytes.Repeat([]byte{fill}, 1024)}
		if _, err := conn.Write(rawFrame(t, msgs.Multicast{M: m})); err != nil {
			t.Fatal(err)
		}
	}
	send('A')
	<-st.parked // the hand-off that carries the first entry is inside Append
	for i := 0; i < later; i++ {
		send('B')
	}
	waitFor(t, "the later frames to pass the shard", func() bool {
		return n.Stats().FramesRead == 1+later && n.MailboxDepth() == 0
	})
	close(st.release)
	waitFor(t, "every entry to reach the store", func() bool { return st.seen() == 1+later })
	for i, app := range st.apps {
		want := byte('B')
		if i == 0 {
			want = 'A'
		}
		if !bytes.Equal(app, bytes.Repeat([]byte{want}, 1024)) {
			t.Fatalf("entry %d reached the store as %q…, want 1024 × %q: its frame was recycled under it", i, app[:8], want)
		}
	}
}

// TestRetainedMessageKeepsItsBytes: a received message is the handler's to
// keep, whole and uncopied. A handler keeps the first MULTICAST's payload
// as it arrived; 256 later frames of the same size, filled with another
// byte, pass through the read loop and the shard. Had the first frame's
// buffer gone back to the read path, one of them would have refilled it
// under the kept payload.
func TestRetainedMessageKeepsItsBytes(t *testing.T) {
	const later = 256
	var kept []byte
	seen, done := 0, make(chan struct{})
	n, err := Serve(Config{
		PID: 3, ListenAddr: "127.0.0.1:0",
		Handler: node.Func{PID: 3, F: func(in node.Input, _ *node.Effects) {
			rcv, ok := in.(node.Recv)
			if !ok {
				return
			}
			if seen++; seen == 1 {
				kept = rcv.Msg.(msgs.Multicast).M.Payload
			}
			if seen == 1+later {
				close(done)
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	conn, err := net.Dial("tcp", n.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(fill byte) {
		t.Helper()
		m := mcast.AppMsg{ID: mcast.MakeMsgID(4, 1), Dest: mcast.NewGroupSet(0), Payload: bytes.Repeat([]byte{fill}, 1024)}
		if _, err := conn.Write(rawFrame(t, msgs.Multicast{M: m})); err != nil {
			t.Fatal(err)
		}
	}
	send('A')
	for i := 0; i < later; i++ {
		send('B')
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the later frames did not reach the handler")
	}
	if !bytes.Equal(kept, bytes.Repeat([]byte{'A'}, 1024)) {
		t.Fatalf("the kept payload reads %q…, want 1024 × 'A': its frame was reused under it", kept[:8])
	}
}
