package kv

import (
	"sync"

	"wbcast"
)

// maxPending bounds the buffer of responses that arrived before their call
// registered (the submit/apply race). When full, the oldest is evicted FIFO.
const maxPending = 4096

// doneRing is how many of one sender's latest completed (or abandoned)
// operations the hub remembers, to tell their late duplicates from early
// responses. A duplicate that trails by more lands in pending and ages out.
const doneRing = 1024

// call tracks one in-flight operation: the shards still awaited and the
// per-shard results collected so far.
type call struct {
	need    map[wbcast.GroupID]bool
	results map[wbcast.GroupID][]OpResult
	sub     int // Sub of the first response; -1 until one arrives
	done    chan struct{}
}

// hub matches engine responses back to waiting clients by message ID.
// Responses are produced by every replica of every addressed shard; the
// hub keeps the first response per (ID, shard) — with Sub recorded for the
// duplicate-delivery cross-check — and completes a call once every
// addressed shard has answered, which is exactly the delivery-frontier
// wait that gives clients read-your-writes. The responses of the other
// replicas arrive after the call is gone and are dropped.
type hub struct {
	mu    sync.Mutex
	calls map[wbcast.MsgID]*call
	// done remembers, per sender, the IDs whose call is over: slot seq mod
	// doneRing holds seq+1.
	done    map[wbcast.ProcessID]*[doneRing]uint64
	pending map[wbcast.MsgID][]Resp
	order   []wbcast.MsgID // FIFO eviction order for pending
}

func newHub() *hub {
	return &hub{
		calls:   make(map[wbcast.MsgID]*call),
		done:    make(map[wbcast.ProcessID]*[doneRing]uint64),
		pending: make(map[wbcast.MsgID][]Resp),
	}
}

// register creates the waiter for id before (or concurrently with) its
// deliveries, draining any responses that raced ahead of it.
func (h *hub) register(id wbcast.MsgID, dest wbcast.GroupSet) *call {
	c := &call{
		need:    make(map[wbcast.GroupID]bool, len(dest)),
		results: make(map[wbcast.GroupID][]OpResult, len(dest)),
		sub:     -1,
		done:    make(chan struct{}),
	}
	for _, g := range dest {
		c.need[g] = true
	}
	h.mu.Lock()
	h.calls[id] = c
	if early := h.pending[id]; len(early) > 0 {
		delete(h.pending, id)
		for _, r := range early {
			h.applyLocked(c, r)
		}
	}
	h.mu.Unlock()
	return c
}

// cancel drops the waiter for id (the caller timed out); later responses
// for it are dropped.
func (h *hub) cancel(id wbcast.MsgID) {
	h.mu.Lock()
	h.finishLocked(id)
	h.mu.Unlock()
}

// finishLocked forgets id's call and remembers id as over. Callers hold h.mu.
func (h *hub) finishLocked(id wbcast.MsgID) {
	delete(h.calls, id)
	ring := h.done[id.Sender()]
	if ring == nil {
		ring = new([doneRing]uint64)
		h.done[id.Sender()] = ring
	}
	ring[id.Seq()%doneRing] = uint64(id.Seq()) + 1
}

// dispatch routes one engine response. Safe from any engine goroutine.
func (h *hub) dispatch(r Resp) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if c, ok := h.calls[r.ID]; ok {
		h.applyLocked(c, r)
		return
	}
	if ring := h.done[r.ID.Sender()]; ring != nil && ring[r.ID.Seq()%doneRing] == uint64(r.ID.Seq())+1 {
		return // a late duplicate: another replica already answered
	}
	// Not registered yet: buffer, bounded.
	if len(h.pending[r.ID]) == 0 {
		if len(h.order) >= maxPending {
			delete(h.pending, h.order[0])
			h.order = h.order[1:]
		}
		h.order = append(h.order, r.ID)
	}
	h.pending[r.ID] = append(h.pending[r.ID], r)
}

// applyLocked folds one response into a call, and finishes the call with
// the last shard's. Duplicate responses for an already-answered shard (other
// replicas of the group, or a replay after a restart) are idempotently
// ignored. Callers hold h.mu.
func (h *hub) applyLocked(c *call, r Resp) {
	if !c.need[r.Group] {
		return
	}
	delete(c.need, r.Group)
	c.results[r.Group] = r.Results
	if c.sub == -1 {
		c.sub = r.Sub
	}
	if len(c.need) == 0 {
		close(c.done)
		h.finishLocked(r.ID)
	}
}

// merge assembles the per-position outcome of a call from its per-shard
// responses: position i is answered by whichever shard owned it. dest
// iterates in ascending group order, so merging is deterministic.
func (c *call) merge(dest wbcast.GroupSet, n int) []OpResult {
	out := make([]OpResult, n)
	for _, g := range dest {
		for i, r := range c.results[g] {
			if i < n && r.Owned {
				out[i] = r
			}
		}
	}
	return out
}
