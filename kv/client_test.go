package kv

import (
	"context"
	"testing"
	"time"

	"wbcast"
	"wbcast/internal/kvstore"
	"wbcast/internal/mcast"
)

// routed builds a service over an in-process cluster of cfg and n of its
// clients. Most tests below hand the clients made-up responses with
// sequence numbers no real operation reaches.
func routed(t *testing.T, cfg wbcast.Config, n int) (*Service, []*Client) {
	t.Helper()
	cfg.Transport = wbcast.InProcess()
	c, err := wbcast.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewService(c, Options{})
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(); c.Close() })
	var cls []*Client
	for range n {
		cl, err := s.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		cls = append(cls, cl)
	}
	return s, cls
}

func resp(id wbcast.MsgID, g wbcast.GroupID, results ...OpResult) kvstore.Resp {
	return kvstore.Resp{ID: id, Group: g, Results: results}
}

// retained fails the test if c keeps a call or an early response.
func retained(t *testing.T, c *Client) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.calls) != 0 || len(c.early) != 0 {
		t.Fatalf("client %d retains %d calls and %d early responses", c.ID(), len(c.calls), len(c.early))
	}
}

func isDone(c *call) bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// TestDuplicateResponses covers the matching contract: one response per
// addressed shard completes the call, and duplicates — other replicas of a
// group, or re-deliveries after a replica restart — change nothing. The
// positions merge across shards.
func TestDuplicateResponses(t *testing.T) {
	s, cls := routed(t, wbcast.Config{Groups: 2, Replicas: 1}, 1)
	c := cls[0]
	id := mcast.MakeMsgID(c.ID(), 1<<20)
	dest := wbcast.NewGroupSet(0, 1)
	cl := c.register(id, dest, 2)

	s.route(resp(id, 0, OpResult{Owned: true, Found: true, Val: []byte("a")}, OpResult{}))
	if isDone(cl) {
		t.Fatal("completed with one of two shards")
	}
	// Two more replicas of group 0 answer; then a post-restart replay.
	s.route(resp(id, 0, OpResult{Owned: true, Found: true, Val: []byte("a")}, OpResult{}))
	s.route(resp(id, 0, OpResult{Owned: true, Found: true, Val: []byte("stale")}, OpResult{}))
	s.route(resp(id, 1, OpResult{}, OpResult{Owned: true, Found: false}))
	if !isDone(cl) {
		t.Fatal("both shards answered, the call is not complete")
	}
	got := cl.results
	if string(got[0].Val) != "a" || !got[0].Owned {
		t.Fatalf("position 0 = %+v; a duplicate overwrote the first response", got[0])
	}
	if !got[1].Owned || got[1].Found {
		t.Fatalf("position 1 = %+v", got[1])
	}
	// The completed call is gone, and a straggler is dropped.
	s.route(resp(id, 1))
	retained(t, c)
}

// TestEarlyResponse: an engine may answer before the call is registered; the
// registration folds the response in and completes the call at once.
func TestEarlyResponse(t *testing.T) {
	s, cls := routed(t, wbcast.Config{Groups: 1, Replicas: 1}, 1)
	c := cls[0]
	id := mcast.MakeMsgID(c.ID(), 1<<20)
	s.route(resp(id, 0, OpResult{Owned: true, Found: true, Val: []byte("v")}))
	cl := c.register(id, wbcast.NewGroupSet(0), 1)
	if !isDone(cl) {
		t.Fatal("early response not folded in at registration")
	}
	if got := cl.results; string(got[0].Val) != "v" {
		t.Fatalf("merged %+v", got)
	}
	retained(t, c)
}

// TestLateResponsesRetainNothing: every operation is answered by each replica
// of its shard; the first response completes the call, and the others —
// which find no call — are dropped, not kept as if they were early. After
// 10 000 operations by two clients, three responses each and one of them
// early for every other operation, neither client retains anything.
func TestLateResponsesRetainNothing(t *testing.T) {
	s, cls := routed(t, wbcast.Config{Groups: 1, Replicas: 1}, 2)
	dest := wbcast.NewGroupSet(0)
	for seq := uint32(1 << 20); seq < 1<<20+5000; seq++ {
		for _, c := range cls {
			id := mcast.MakeMsgID(c.ID(), seq)
			if seq%2 == 0 { // one replica beats the registration
				s.route(resp(id, 0, OpResult{Owned: true}))
			}
			cl := c.register(id, dest, 1)
			for range 3 {
				s.route(resp(id, 0, OpResult{Owned: true}))
			}
			if !isDone(cl) {
				t.Fatalf("%v did not complete", id)
			}
		}
	}
	for _, c := range cls {
		retained(t, c)
	}
}

// TestCancelledCallRetainsNothing: the response to an operation whose
// caller gave up is dropped when it comes. Every hop takes 100 ms, so the
// Put times out after its submission and long before its response.
func TestCancelledCallRetainsNothing(t *testing.T) {
	hop := func(from, to wbcast.ProcessID) time.Duration { return 100 * time.Millisecond }
	_, cls := routed(t, wbcast.Config{Groups: 1, Replicas: 1, Latency: hop}, 1)
	c := cls[0]
	short, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	if err := c.Put(short, []byte("k"), []byte("v")); err != context.DeadlineExceeded {
		t.Fatalf("Put past its deadline: %v", err)
	}
	// The one engine answers in delivery order, so the timed-out Put's
	// response has come once the next operation completes; that it reads
	// the Put shows the Put was submitted.
	ctx, stop := context.WithTimeout(context.Background(), 30*time.Second)
	defer stop()
	if _, found, err := c.Get(ctx, []byte("k")); err != nil || !found {
		t.Fatalf("Get after the timed-out Put = %v, %v", found, err)
	}
	retained(t, c)
}

// TestRouting: a response goes to the client that sent the operation; one to
// an unknown sender, or to a closed client, is dropped.
func TestRouting(t *testing.T) {
	s, cls := routed(t, wbcast.Config{Groups: 1, Replicas: 1}, 2)
	a, b := cls[0], cls[1]
	seq := uint32(1 << 20)
	early := resp(mcast.MakeMsgID(a.ID(), seq), 0)
	s.route(early)
	if len(a.early) != 1 || len(b.early) != 0 {
		t.Fatalf("a response to client %d reached %d and %d early responses", a.ID(), len(a.early), len(b.early))
	}
	a.register(early.ID, wbcast.NewGroupSet(0), 1)

	s.route(resp(mcast.MakeMsgID(b.ID()+1, seq), 0))
	retained(t, a)
	retained(t, b)

	b.Close()
	if _, ok := s.clients.Load(b.ID()); ok {
		t.Fatal("a closed client is still routed to")
	}
	s.route(resp(mcast.MakeMsgID(b.ID(), seq), 0))
	retained(t, b)
}
