// Package kv layers a partitioned, replicated key-value service on wbcast
// atomic multicast: each shard of the keyspace is one multicast group, and
// multi-key transactions addressed to several shards are multicast
// atomically to exactly those groups, inheriting a single global position —
// and hence transaction atomicity — from the ordering layer, with no
// commit protocol of its own. This is the genuine multicast application
// the paper's protocols are designed for (§I: "ordering ... transactions
// spanning multiple data partitions").
//
// A Service wraps a wbcast.Cluster: it attaches one deterministic shard
// engine to every replica (consuming its delivery subscription) and routes
// each result back to the client that sent the operation. A Client maps keys to
// shards by hash (HashPartitioner) and offers Get/Put/Delete and
// multi-key Txn; operations complete when every addressed shard has
// applied them, so a client that completes a Put and then issues a Get
// observes its own write (both occupy positions of the same total order).
//
// With Options.Persist, applied state rides each replica's write-ahead log
// and snapshots, so a restarted deployment recovers its stores without
// protocol involvement. See docs/KVSTORE.md.
package kv
