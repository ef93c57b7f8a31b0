package kv

import (
	"testing"

	"wbcast"
	"wbcast/internal/mcast"
)

func resp(id wbcast.MsgID, sub int, g wbcast.GroupID, results ...OpResult) Resp {
	return Resp{ID: id, Sub: sub, Group: g, Results: results}
}

// TestHubDuplicateResponses covers the matcher's core contract: one
// response per addressed shard completes the call, and duplicates — other
// replicas of a group, or re-deliveries after a replica restart — fold in
// idempotently without corrupting results.
func TestHubDuplicateResponses(t *testing.T) {
	h := newHub()
	id := wbcast.MsgID(1)
	dest := wbcast.NewGroupSet(0, 1)
	c := h.register(id, dest)

	h.dispatch(resp(id, 2, 0, OpResult{Owned: true, Found: true, Val: []byte("a")}, OpResult{}))
	select {
	case <-c.done:
		t.Fatal("completed with one of two shards")
	default:
	}
	// Two more replicas of group 0 answer; then a post-restart replay.
	h.dispatch(resp(id, 2, 0, OpResult{Owned: true, Found: true, Val: []byte("a")}, OpResult{}))
	h.dispatch(resp(id, 2, 0, OpResult{Owned: true, Found: true, Val: []byte("stale")}, OpResult{}))
	h.dispatch(resp(id, 2, 1, OpResult{}, OpResult{Owned: true, Found: false}))
	<-c.done

	got := c.merge(dest, 2)
	if string(got[0].Val) != "a" || !got[0].Owned {
		t.Fatalf("position 0 = %+v; duplicate overwrote first response", got[0])
	}
	if !got[1].Owned || got[1].Found {
		t.Fatalf("position 1 = %+v", got[1])
	}
	if c.sub != 2 {
		t.Fatalf("recorded Sub %d, want 2", c.sub)
	}
	// The completed call is gone, and a straggler is dropped.
	h.dispatch(resp(id, 2, 1))
	if len(h.calls) != 0 || len(h.pending) != 0 {
		t.Fatalf("completed call retained (%d calls, %d pending)", len(h.calls), len(h.pending))
	}
}

// TestHubEarlyResponse: with in-process engines, deliveries can beat the
// waiter registration; responses buffered before register must complete
// the call immediately.
func TestHubEarlyResponse(t *testing.T) {
	h := newHub()
	id := wbcast.MsgID(7)
	h.dispatch(resp(id, 0, 0, OpResult{Owned: true, Found: true, Val: []byte("v")}))
	c := h.register(id, wbcast.NewGroupSet(0))
	select {
	case <-c.done:
	default:
		t.Fatal("early response not drained at register")
	}
	if got := c.merge(wbcast.NewGroupSet(0), 1); string(got[0].Val) != "v" {
		t.Fatalf("merged %+v", got)
	}
}

// TestHubPendingEviction: responses that arrive ahead of a registration
// that never comes age out FIFO instead of growing without bound.
func TestHubPendingEviction(t *testing.T) {
	h := newHub()
	for i := 0; i < maxPending+10; i++ {
		h.dispatch(resp(wbcast.MsgID(i), 0, 0))
	}
	if len(h.pending) != maxPending || len(h.order) != maxPending {
		t.Fatalf("pending %d / order %d, want %d", len(h.pending), len(h.order), maxPending)
	}
	if _, ok := h.pending[wbcast.MsgID(0)]; ok {
		t.Fatal("oldest early response survived eviction")
	}
	// The survivors are early responses still: registering completes at once.
	last := wbcast.MsgID(maxPending + 9)
	select {
	case <-h.register(last, wbcast.NewGroupSet(0)).done:
	default:
		t.Fatal("a buffered early response did not complete its call")
	}
}

// TestHubDropsLateDuplicates: every operation is answered by each replica of
// its shard; the first response completes the call, and the others — which
// find no call — are dropped, not buffered as if they were early. After
// 10 000 operations by two clients, three responses each, nothing is pending.
func TestHubDropsLateDuplicates(t *testing.T) {
	h := newHub()
	dest := wbcast.NewGroupSet(0)
	for seq := uint32(0); seq < 5000; seq++ {
		for _, sender := range []wbcast.ProcessID{6, 7} {
			id := mcast.MakeMsgID(sender, seq)
			if seq%2 == 0 { // one replica beats the registration
				h.dispatch(resp(id, 0, 0, OpResult{Owned: true}))
			}
			c := h.register(id, dest)
			for replica := 0; replica < 3; replica++ {
				h.dispatch(resp(id, 0, 0, OpResult{Owned: true}))
			}
			select {
			case <-c.done:
			default:
				t.Fatalf("%v did not complete", id)
			}
		}
	}
	if len(h.pending) != 0 || len(h.calls) != 0 {
		t.Fatalf("%d responses pending, %d calls retained; late duplicates must be dropped", len(h.pending), len(h.calls))
	}
	// A cancelled call's stragglers are dropped too, and a new ID that
	// shares a ring slot with a finished one is not mistaken for it.
	id := mcast.MakeMsgID(6, 5000)
	h.register(id, dest)
	h.cancel(id)
	h.dispatch(resp(id, 0, 0))
	if len(h.pending) != 0 {
		t.Fatal("a response to a cancelled call was buffered")
	}
	h.dispatch(resp(mcast.MakeMsgID(6, 5000+doneRing), 0, 0))
	if len(h.pending) != 1 {
		t.Fatal("an early response was dropped as the duplicate of an older operation")
	}
}

// TestHubCancel: a cancelled call never completes and its id is released.
func TestHubCancel(t *testing.T) {
	h := newHub()
	id := wbcast.MsgID(3)
	c := h.register(id, wbcast.NewGroupSet(0))
	h.cancel(id)
	h.dispatch(resp(id, 0, 0))
	select {
	case <-c.done:
		t.Fatal("cancelled call completed")
	default:
	}
}
