// Package kvstore implements the replicated key-value state machine behind
// the public kv package: the operation codec, the deterministic per-shard
// Engine that consumes atomic-multicast deliveries, and the history checker
// the chaos tests use (Check: each replica's applied log through
// check.Monitor, then digest equality and cross-shard atomicity). Ops, applied
// records and app snapshots are written and read through internal/wire's
// Writer and Reader.
//
// Each shard of the key-value service is one multicast group. An Engine is
// one replica's copy of one shard: it consumes that replica's delivery
// stream (already in increasing (GTS, Sub) order), applies the operations
// that address keys it owns, and reports results upward. Because every
// replica of every addressed shard sees multi-shard transactions at the
// same position of the global order, the service inherits transaction
// atomicity directly from the multicast — there is no commit protocol in
// this package, which is the point of the paper's white-box design.
//
// Durability is layered on the replica's write-ahead log via the Persister
// interface (satisfied by *wbcast.Replica): applied operations are logged
// as opaque app records, compacted into an app snapshot once the records
// since the last one have reached its length — so the app log stays
// smaller than the state plus one apply batch, at O(1) amortised snapshot
// work per logged byte — and folded back by Recover after a crash.
package kvstore
