// Package skeen implements Skeen's atomic multicast protocol for singleton
// groups of reliable processes — paper Fig. 1. It is the unreplicated
// baseline the white-box protocol generalises, with collision-free latency
// 2δ and failure-free latency 4δ (the convoy effect of Fig. 2).
//
// Each group consists of exactly one process, assumed never to crash. The
// protocol assigns every message a global timestamp computed as the maximum
// of per-group local timestamps drawn from Lamport-style clocks, and
// delivers messages in global-timestamp order.
//
// # Layering
//
// skeen is the failure-free reference point at the bottom of the protocol
// family: no replication, one process per group. Its state is the Fig. 1
// process of internal/rsm, driven by messages: a MULTICAST applies the
// assignment (lines 9–11), a PROPOSE from every destination group the
// commit (lines 14–16); this package keeps only the PROPOSE timestamps
// received for each message not yet committed. FT-Skeen (internal/blackbox)
// runs the same machine behind Paxos; the white-box protocol (internal/core)
// replicates the same state inside the timestamp exchange.
package skeen
