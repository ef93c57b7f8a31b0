package ring

import (
	"sync"
	"sync/atomic"
)

// MPSC is a multi-producer single-consumer queue: producers append to a
// mutex-guarded slice, and the consumer swaps that slice for its own
// drained batch, so Enqueue never blocks on the consumer and never fails.
// Any goroutine may Enqueue; exactly one goroutine may Dequeue. The zero
// value is not usable — construct with New.
type MPSC[T any] struct {
	mu sync.Mutex
	in []T // what producers appended since the consumer's last swap

	// out is the consumer's batch and next its first item not yet taken.
	// Only the consumer touches them.
	out  []T
	next int

	depth atomic.Int64
	hw    atomic.Int64 // written only under mu
}

// New creates an MPSC queue whose first batch has room for capacity items;
// the queue grows past it as needed.
func New[T any](capacity int) *MPSC[T] {
	return &MPSC[T]{in: make([]T, 0, capacity)}
}

// Enqueue adds v. It takes the lock only to append, so it never waits for
// the consumer to drain. Safe for concurrent use by any number of
// producers; the lock orders every append, so each producer's items are
// dequeued in the order it enqueued them.
func (q *MPSC[T]) Enqueue(v T) {
	q.mu.Lock()
	q.in = append(q.in, v)
	if d := q.depth.Add(1); d > q.hw.Load() {
		q.hw.Store(d)
	}
	q.mu.Unlock()
}

// Dequeue removes the next item, or reports false when the queue is
// empty. Only one goroutine may call Dequeue. It pops from the consumer's
// batch without a lock; when the batch is used up it clears it, so no
// dequeued item stays reachable, and swaps it for what producers appended
// meanwhile, under one lock.
func (q *MPSC[T]) Dequeue() (T, bool) {
	if q.next == len(q.out) {
		clear(q.out)
		q.mu.Lock()
		q.in, q.out = q.out[:0], q.in
		q.mu.Unlock()
		q.next = 0
		if len(q.out) == 0 {
			var zero T
			return zero, false
		}
	}
	v := q.out[q.next]
	q.next++
	q.depth.Add(-1)
	return v, true
}

// Depth returns the current number of queued items. A producer counts an
// item under the lock it appends under, so the consumer never reads a
// depth below zero or above the number of items it can still dequeue.
func (q *MPSC[T]) Depth() int64 { return q.depth.Load() }

// HighWater returns the largest Depth so far. Producers raise it as they
// enqueue, so it is current while the consumer is stalled.
func (q *MPSC[T]) HighWater() int64 { return q.hw.Load() }
