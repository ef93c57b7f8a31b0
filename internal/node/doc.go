// Package node defines the deterministic protocol-node abstraction used by
// every protocol in this repository.
//
// A Handler is a pure state machine: it consumes one Input at a time and
// appends the I/O it wants performed (message sends, application deliveries,
// timer arming, durable records) to an Effects sink. All sources of
// nondeterminism — the network, the clock, timers — live in the runtime
// driving the handler. This keeps protocol logic testable under exact,
// reproducible schedules, which is what lets us measure the paper's latency
// theorems in units of δ.
//
// The package also holds the shard driver every runtime drives a handler
// through (shard.go; docs/CONCURRENCY.md, "The shard driver"): Step — the
// store's only user: Handle and stage per input, release at once what
// vouches for nothing, hand what a drain staged to the store as one Append
// and one Sync beside the loop, then release the rest, crash-stop on a
// storage error — and Mailbox, the never-blocking input queue and drain loop. And it holds what
// the leader-based protocols share of failure detection (suspect.go):
// Suspicion, the epoch-armed TimerSuspect deadline core and paxos both embed.
//
// # Layering
//
// node is the seam of the architecture: protocol packages (core, paxos,
// skeen, blackbox, client, batch) implement Handler, and the
// runtimes (internal/sim, and internal/tcpnet in memory or over TCP —
// selected via the public wbcast.Transport) drive it. Nothing above this package does
// I/O; nothing below it contains protocol logic.
package node
