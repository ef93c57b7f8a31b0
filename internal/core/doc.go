// Package core implements the white-box atomic multicast protocol of
// Gotsman, Lefort and Chockler (DSN 2019), Fig. 4 — the paper's primary
// contribution.
//
// The protocol weaves Skeen's timestamp-based multicast across groups
// together with a Paxos-like replication protocol within each group. Each
// group has a leader that assigns local timestamps and decides deliveries
// (passive replication); a single ACCEPT/ACCEPT_ACK exchange between the
// leaders of a message's destination groups and quorums of followers in all
// those groups replicates both the local-timestamp assignment and the
// speculative clock advance, giving a collision-free delivery latency of 3δ
// at leaders (4δ at followers) and a failure-free latency of 5δ.
//
// File layout:
//
//	core.go     — replica state (Fig. 3) and normal operation (Fig. 4 lines 1–34)
//	recovery.go — leader recovery (Fig. 4 lines 35–68), orphan adoption
//	liveness.go — heartbeats and suspicion (node.Suspicion), catch-up, garbage collection
//	conflict.go — conflict-aware (generic multicast) delivery, the "genmcast" protocol
//	adapter.go  — test-harness adapter for both modes
//
// # Layering
//
// core implements node.Handler directly above internal/mcast,
// internal/msgs and internal/ordering — deliberately without the
// internal/paxos + internal/rsm stack the baselines are built on: fusing
// replication into the timestamp exchange is the paper's contribution.
// The public wbcast package hosts it on any Transport.
package core
