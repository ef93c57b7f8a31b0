// Package ring provides the MPSC (multi-producer, single-consumer) queue
// used as the input mailbox of every process loop (the loops of
// internal/tcpnet's nodes, in memory or over TCP).
//
// A node runs one loop, so the queue is a mutex and a slice: producers
// (read loops, timer expiries, in-memory peers, the loop itself) append
// under the lock, and the consumer swaps the whole slice for its drained
// batch under the same lock, then pops from the batch without it — one
// lock per producer post and one per consumer batch. The lock orders every
// append, which is what keeps each producer's items in its posting order.
//
// A post never waits for the consumer to drain and the queue has no
// capacity — that is what rules out buffer-deadlock cycles between
// processes (see docs/CONCURRENCY.md); overload shows as Depth and
// HighWater, which the producers keep current even while the consumer is
// stalled.
package ring
