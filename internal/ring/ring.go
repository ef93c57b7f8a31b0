package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// minCapacity is the smallest ring allocated; requested capacities are
// rounded up to the next power of two so the slot index is a mask.
const minCapacity = 8

// slot is one ring cell. seq is the Vyukov sequence: it equals the
// cell's ticket number when the cell is free for that ticket, ticket+1
// once the value is published, and advances by the ring size each lap.
type slot[T any] struct {
	seq atomic.Uint64
	val T
}

// MPSC is a multi-producer single-consumer queue: a bounded lock-free
// ring with an unbounded mutex-guarded overflow fallback, so Enqueue
// never blocks and never fails. Any goroutine may Enqueue; exactly one
// goroutine may Dequeue. The zero value is not usable — construct with
// New.
type MPSC[T any] struct {
	mask  uint64
	slots []slot[T]

	// tail is the next producer ticket. Producers claim a ticket with
	// one CAS, then publish into slots[ticket&mask].
	tail atomic.Uint64
	// head is the next ticket to consume. Single consumer: plain field.
	head uint64

	// degraded is set (under omu) whenever the overflow holds items.
	// Producers check it first, so while spills exist every new item
	// goes to the overflow too — that keeps per-producer FIFO order and
	// lets the ring drain.
	degraded atomic.Bool
	omu      sync.Mutex
	over     []T
	spare    []T // recycled backing array for over

	// pending is the consumer-local overflow batch being drained. Ring
	// tickets below limit (the tail when the batch was taken) are
	// consumed before it, and it is consumed completely before any ticket
	// from limit on.
	pending []T
	pendIdx int
	limit   uint64

	depth atomic.Int64
	hw    atomic.Int64
}

// New creates an MPSC queue whose lock-free ring holds at least
// capacity items (rounded up to a power of two, minimum 8). Beyond
// that, items spill to the unbounded overflow.
func New[T any](capacity int) *MPSC[T] {
	n := uint64(minCapacity)
	for int(n) < capacity {
		n <<= 1
	}
	q := &MPSC[T]{mask: n - 1, slots: make([]slot[T], n)}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q
}

// Enqueue adds v. It never blocks: when the ring is full (or spills are
// pending) the item goes to the overflow instead. Safe for concurrent
// use by any number of producers.
func (q *MPSC[T]) Enqueue(v T) {
	if q.degraded.Load() {
		q.spill(v)
		return
	}
	for {
		t := q.tail.Load()
		s := &q.slots[t&q.mask]
		seq := s.seq.Load()
		switch {
		case seq == t:
			if q.tail.CompareAndSwap(t, t+1) {
				s.val = v
				s.seq.Store(t + 1)
				q.account()
				return
			}
			// Lost the ticket race; reload and retry.
		case seq < t:
			// The slot still holds the item one lap behind: the ring
			// was full at the moment observed.
			q.spill(v)
			return
		default:
			// Another producer advanced tail past our stale read.
		}
	}
}

func (q *MPSC[T]) spill(v T) {
	q.omu.Lock()
	q.over = append(q.over, v)
	q.degraded.Store(true)
	q.omu.Unlock()
	q.account()
}

func (q *MPSC[T]) account() {
	d := q.depth.Add(1)
	for {
		hw := q.hw.Load()
		if d <= hw || q.hw.CompareAndSwap(hw, d) {
			return
		}
	}
}

// Dequeue removes the next item, or reports false when the queue is
// empty. Only one goroutine may call Dequeue.
//
// Ordering: items from one producer are dequeued in the order that
// producer enqueued them. The overflow interplay preserves this because
// (a) while the overflow is non-empty all producers spill, (b) the
// consumer switches to the overflow only once the ring is completely
// drained, (c) ring tickets claimed before a batch was taken are
// consumed before it, and (d) a taken overflow batch is consumed
// completely before any later ring ticket.
func (q *MPSC[T]) Dequeue() (T, bool) {
	var zero T
	for {
		if q.head >= q.limit && q.pendIdx < len(q.pending) {
			v := q.pending[q.pendIdx]
			q.pending[q.pendIdx] = zero
			q.pendIdx++
			if q.pendIdx == len(q.pending) {
				q.omu.Lock()
				if q.spare == nil {
					q.spare = q.pending[:0]
				}
				q.omu.Unlock()
				q.pending, q.pendIdx = nil, 0
			}
			q.depth.Add(-1)
			return v, true
		}
		h := q.head
		s := &q.slots[h&q.mask]
		if s.seq.Load() == h+1 {
			v := s.val
			s.val = zero
			s.seq.Store(h + q.mask + 1)
			q.head = h + 1
			q.depth.Add(-1)
			return v, true
		}
		// Slot h is unpublished. If ticket h is also unclaimed the ring
		// is empty; otherwise a producer is mid-publish — wait it out
		// (the window is a few instructions wide). Declaring "empty"
		// here instead would let the overflow batch below overtake that
		// producer's in-flight ring item, breaking its FIFO order.
		if h < q.limit || q.tail.Load() != h {
			runtime.Gosched()
			continue
		}
		if !q.degraded.Load() {
			return zero, false
		}
		// Ring drained and spills exist: take the whole batch. A producer
		// that saw degraded unset before the first spill may claim a ring
		// ticket after the emptiness check above and then spill its next
		// item into this very batch, so tickets below the tail read here
		// go first. Reading it before clearing degraded matters: once
		// cleared, a producer with items in the batch re-enters the ring,
		// and those tickets must stay behind the batch.
		q.omu.Lock()
		batch := q.over
		q.over = q.spare[:0]
		q.spare = nil
		q.limit = q.tail.Load()
		q.degraded.Store(false)
		q.omu.Unlock()
		if len(batch) == 0 {
			return zero, false
		}
		q.pending, q.pendIdx = batch, 0
	}
}

// Depth returns the current number of queued items (ring + overflow).
// It is an instantaneous gauge maintained by producers and the
// consumer; transient off-by-a-few reads under contention are expected.
// A producer counts an item only after publishing it, so the consumer
// never reads a depth above the number of items it can still dequeue.
func (q *MPSC[T]) Depth() int64 { return q.depth.Load() }

// HighWater returns the largest Depth observed so far.
func (q *MPSC[T]) HighWater() int64 { return q.hw.Load() }
