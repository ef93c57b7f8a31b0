// Package tcpnet hosts one protocol process on the wall clock, over TCP or in
// memory: it turns any node.Handler — a white-box replica, a baseline
// replica or a client — into a running process. One Node is one process:
// one handler on the shared shard driver — a node.Mailbox and a node.Step —
// with one loop, one commit hook and one release path, whichever way its
// messages travel.
//
// In memory (Config.Peer; the public InProcess transport) a node listens on
// nothing and encodes nothing: a send is the message value itself, posted
// into each recipient node's mailbox — after Config.Latency, through the
// mailbox's PostAfter, which keeps per-link FIFO for a latency constant per
// pair. A recipient that is gone is a counted drop.
//
// Over TCP a node has one listener and one outbound link per peer process.
// The path of a frame crosses two goroutines per hop (docs/CONCURRENCY.md):
//
//	read loops — one buffered read(2) takes in every frame a segment
//	             carried; each one addressed to this process is
//	             borrow-decoded and posted to the mailbox, any other is
//	             dropped unread;
//	the loop   — Handle serially, persist-before-release (the driver), then
//	             post self-sends straight to the mailbox, serialise each
//	             remote send exactly once (encode-once fan-out) and append
//	             the bytes to the link of every destination as one frame;
//	             at the end of each mailbox drain, flush the links the
//	             drain touched, each in one write.
//
// A link is the outbound half of one peer process: a byte buffer under a
// mutex and the connection. The flush offers the buffer to the socket once,
// on the loop, without blocking; what the socket does not take — and
// everything while the link is not connected — goes to the link's writer
// goroutine, which dials, writes and ends when nothing is left. One byte
// stream per link: per-link FIFO holds by construction. A backlog past
// linkBacklog drops frames rather than block the loop. Registering a peer
// at a new address (SetPeer) replaces its link and closes the old one; an
// address whose port is 0 is a placeholder for a peer that has not bound
// its port yet, and a send to it is a counted drop, with no dial.
//
// The hand-off between the two stages is a non-blocking mailbox (an MPSC
// queue with no capacity, a mutex and a slice: internal/ring), so no loop
// can deadlock another; sustained overload shows up as mailbox depth and
// high water, which the posts keep current while the loop is stalled, not
// as backpressure.
//
// Frame format: 4-byte big-endian length, the varint ProcessID of the one
// destination, the varint ProcessID of the sender, one wire-encoded message.
// The processes of the model are what frames name: a node that reads a
// frame for somebody else — an address book gone stale over reused ports —
// drops it, so no handler takes part in ordering a message it is not a
// destination of. A frame carries one message, always.
//
// # Memory discipline
//
// The hot path is allocation-lean end to end:
//
//   - Outbound, each distinct message of a Handle call is serialised exactly
//     once, into the node's scratch, regardless of how many recipients its
//     Send fans out to, and copied into the buffer of each destination's
//     link; a link alternates between two buffers, so the steady state
//     allocates nothing.
//   - Inbound, each frame is read into a buffer of its own and decoded in
//     borrow mode (wire.DecodeBorrowed): the message's byte fields alias the
//     frame, which nothing reuses — the garbage collector frees it once no
//     part of the message is kept. A handler may keep any part of a received
//     message as it is (node.Handler). A kept payload pins only its own
//     message's bytes: a frame carries one message.
//
// # Layering
//
// tcpnet is the wall-clock runtime driving node.Handler: it encodes
// messages via internal/wire and backs the public TCP and InProcess
// transports. It is the only package that touches sockets.
package tcpnet
