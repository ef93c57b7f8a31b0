// Package tcpnet hosts protocol shards as a real TCP server: it turns any
// node.Handler — a white-box replica, a baseline replica or a client — into
// a network server. One Node owns one listener and one outbound connection
// per peer address, and runs each hosted shard (groups are disjoint, so a
// handler is one ordering shard) on the shared shard driver — its own
// node.Mailbox and node.Step, the same loop as the in-process runtime. The
// path of a frame crosses two goroutines per hop (docs/CONCURRENCY.md):
//
//	read loops  — one buffered read(2) takes in every frame a segment
//	              carried; each is borrow-decoded and routed to the
//	              mailboxes of the shards its header names;
//	shard loops — Handle serially per shard, persist-before-release (the
//	              driver), then post local sends straight to the
//	              destination shard's mailbox, serialise each remote send
//	              exactly once (encode-once fan-out) and append the bytes to
//	              the link of every destination address, batching ack-class
//	              unicasts per link into AckBatch frames; at the end of each
//	              mailbox drain, flush the links the drain touched.
//
// A link is the outbound half of one peer address: a byte buffer under a
// mutex and the connection. The flush offers the buffer to the socket once,
// on the shard loop, without blocking; what the socket does not take — and
// everything while the link is not connected — goes to the link's writer
// goroutine, which dials, writes and ends when nothing is left. One byte
// stream per link: per-link FIFO holds by construction. A backlog past
// linkBacklog drops frames rather than block a shard loop.
//
// The hand-off between the two stages is a non-blocking mailbox (a bounded
// MPSC ring with an unbounded overflow, internal/ring), so no loop can
// deadlock another; sustained overload shows up as mailbox depth, not as
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
//     once, into the shard's scratch, regardless of how many recipients its
//     Send fans out to, and copied into the buffer of each destination
//     address's link; a link alternates between two buffers, so the steady
//     state allocates nothing.
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
