// Package tcpnet hosts protocol shards as a real TCP server: it turns any
// node.Handler — a white-box replica, a baseline replica or a client — into
// a network server. One Node owns one listener and one outbound connection
// per peer address, and runs each hosted shard (groups are disjoint, so a
// handler is one ordering shard) on the shared shard driver — its own
// node.Mailbox and node.Step, the same loop as the in-process runtime. The
// ordering path is pipelined across three stages (docs/CONCURRENCY.md):
//
//	read loops   — one buffered read(2) takes in every frame a segment
//	               carried; each is borrow-decoded and routed to the
//	               mailboxes of the shards its header names;
//	shard loops  — Handle serially per shard, persist-before-release (the
//	               driver), then post local sends straight to the
//	               destination shard's mailbox and hand remote sends to the
//	               encode stage;
//	encode stage — serialise each send exactly once (encode-once fan-out,
//	               shared by reference counting across the writers of every
//	               destination address), batching ack-class unicasts per
//	               (address, shard) into AckBatch frames.
//
// Every hand-off between stages is a non-blocking mailbox (a bounded MPSC
// ring with an unbounded overflow, internal/ring), so no stage can deadlock
// another; sustained overload shows up as mailbox depth, not as
// backpressure.
//
// Frame format: 4-byte big-endian length, a uvarint destination count and
// that many varint destination ProcessIDs (zero for an AckBatch, routed by
// its entries), then a varint sender ProcessID and one wire-encoded message.
//
// # Memory discipline
//
// The hot path is allocation-lean end to end:
//
//   - Outbound, each distinct message of a Handle call is serialised exactly
//     once, regardless of how many recipients its Send fans out to; the
//     encoded frame is shared (reference-counted) across all peer writer
//     queues and returned to a sync.Pool once every writer is done with it.
//   - Inbound, read frames come from a sync.Pool and are decoded in borrow
//     mode (wire.DecodeBorrowed): the message's byte fields alias the frame,
//     which is recycled as soon as the handler returns. Handlers must
//     deep-copy anything they retain (see the frame-ownership notes on
//     node.Handler).
//
// # Layering
//
// tcpnet is the real-network runtime driving node.Handler: it encodes
// messages via internal/wire and backs the public TCP transport. It is
// the only package that touches sockets.
package tcpnet
