// Package ring provides the bounded MPSC (multi-producer,
// single-consumer) ring buffer used as the input mailbox of every
// protocol shard (the loops of internal/tcpnet's nodes, in memory or over
// TCP).
//
// The ring replaces the mutex-guarded elastic FIFO of earlier
// revisions: producers claim slots with a single CAS on the tail
// ticket and publish with one atomic store, so concurrent readLoops,
// timer callbacks and peer shards enqueueing into a hot mailbox no
// longer serialise on a lock. The consumer side is wait-free in the
// common case (one atomic load and one store per dequeue).
//
// Mailboxes must never block producers — that is what rules out
// buffer-deadlock cycles between processes (see docs/CONCURRENCY.md) —
// so the ring keeps the elastic contract with an overflow fallback:
// when the ring is full, producers append to a mutex-guarded overflow
// slice instead. While the overflow is non-empty the queue is
// "degraded": every producer routes to the overflow, which preserves
// per-producer FIFO order (the ring drains completely before the
// consumer switches to the overflow batch, tickets claimed up to the
// moment the batch is taken go before it, and the batch is consumed
// completely before any later ticket).
// Degraded mode costs what the old elastic FIFO cost; the ring is the
// fast path, 64 slots in a wall-clock node (tcpnet's mailboxSize).
package ring
