package ordering

import (
	"wbcast/internal/mcast"
	"wbcast/internal/pq"
)

// Queue tracks pending and committed-undelivered messages at one process.
// The zero value is not ready to use; call NewQueue.
type Queue struct {
	pending   pq.Heap[tsEntry]
	committed pq.Heap[tsEntry]
	pendingTS map[mcast.MsgID]mcast.Timestamp
	commitTS  map[mcast.MsgID]mcast.Timestamp
}

// NewQueue returns an empty delivery queue.
func NewQueue() *Queue {
	return &Queue{
		pending:   pq.New(byTS),
		committed: pq.New(byTS),
		pendingTS: make(map[mcast.MsgID]mcast.Timestamp),
		commitTS:  make(map[mcast.MsgID]mcast.Timestamp),
	}
}

// SetPending records (or updates) message id as pending with local timestamp
// lts. If the message was committed it is moved back to pending (used only
// when rebuilding state after recovery).
func (q *Queue) SetPending(id mcast.MsgID, lts mcast.Timestamp) {
	delete(q.commitTS, id)
	q.pendingTS[id] = lts
	q.pending.Push(tsEntry{ts: lts, id: id})
}

// Commit moves message id from pending (if present) to the
// committed-undelivered set with global timestamp gts.
func (q *Queue) Commit(id mcast.MsgID, gts mcast.Timestamp) {
	delete(q.pendingTS, id)
	q.commitTS[id] = gts
	q.committed.Push(tsEntry{ts: gts, id: id})
}

// Remove forgets message id entirely (delivered elsewhere, recovery reset,
// or garbage collection).
func (q *Queue) Remove(id mcast.MsgID) {
	delete(q.pendingTS, id)
	delete(q.commitTS, id)
}

// MinPending returns the smallest local timestamp among pending messages,
// and false if no message is pending.
func (q *Queue) MinPending() (mcast.Timestamp, bool) {
	e, ok := q.peek(&q.pending, q.pendingTS)
	return e.ts, ok
}

// PeekDeliverable returns (without removing) the committed message with the
// smallest global timestamp if the delivery rule allows its delivery: no
// pending message may have a local timestamp ≤ that global timestamp.
func (q *Queue) PeekDeliverable() (mcast.MsgID, mcast.Timestamp, bool) {
	c, ok := q.peek(&q.committed, q.commitTS)
	if !ok {
		return 0, mcast.Timestamp{}, false
	}
	if p, ok := q.peek(&q.pending, q.pendingTS); ok && !c.ts.Less(p.ts) {
		// Some pending message has LTS ≤ the minimal committed GTS:
		// it could still commit with a smaller global timestamp.
		return 0, mcast.Timestamp{}, false
	}
	return c.id, c.ts, true
}

// PopDeliverable removes and returns the committed message with the smallest
// global timestamp if the delivery rule allows it (see PeekDeliverable).
// Call repeatedly to drain all deliverable messages in GTS order.
func (q *Queue) PopDeliverable() (mcast.MsgID, mcast.Timestamp, bool) {
	id, ts, ok := q.PeekDeliverable()
	if !ok {
		return 0, mcast.Timestamp{}, false
	}
	q.committed.Pop()
	delete(q.commitTS, id)
	return id, ts, true
}

// Len returns the number of tracked messages (pending + committed).
func (q *Queue) Len() int { return len(q.pendingTS) + len(q.commitTS) }

// NumPending returns the number of pending messages.
func (q *Queue) NumPending() int { return len(q.pendingTS) }

// NumCommitted returns the number of committed-undelivered messages.
func (q *Queue) NumCommitted() int { return len(q.commitTS) }

// Clear empties the queue (state overwrite during recovery).
func (q *Queue) Clear() {
	q.pending, q.committed = pq.New(byTS), pq.New(byTS)
	clear(q.pendingTS)
	clear(q.commitTS)
}

// peek returns the minimal live entry of h, pruning entries that no longer
// match the authoritative map (lazy deletion).
func (q *Queue) peek(h *pq.Heap[tsEntry], live map[mcast.MsgID]mcast.Timestamp) (tsEntry, bool) {
	for h.Len() > 0 {
		e := *h.Min()
		if ts, ok := live[e.id]; ok && ts == e.ts {
			return e, true
		}
		h.Pop()
	}
	return tsEntry{}, false
}

type tsEntry struct {
	ts mcast.Timestamp
	id mcast.MsgID
}

func byTS(a, b *tsEntry) bool { return a.ts.Less(b.ts) }
