package tcpnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/wal"
	"wbcast/internal/wire"
)

// MaxFrame bounds accepted frame sizes (defensive).
const MaxFrame = 16 << 20

// linkBacklog bounds the bytes pending on one link — frames appended
// and not yet taken by a write. A frame that would grow a non-empty backlog
// past it is dropped and counted; an empty link takes any frame, so one of
// MaxFrame bytes always fits. With the batch being written beside it, a link
// holds at most twice this much (or two frames, if they are larger).
const linkBacklog = 4 << 20

// readBufSize is the per-connection read buffer: one read(2) takes in every
// frame the kernel has queued up to this many bytes, instead of two reads
// (length prefix, body) per frame. A larger frame bypasses the buffer.
const readBufSize = 32 << 10

// dialTimeout bounds one outbound connection attempt.
const dialTimeout = 3 * time.Second

// pooledFrameCap bounds the capacity of the send-side buffers kept for reuse
// (the encode scratch, a link's two buffers), so one jumbo frame does not pin
// megabytes.
const pooledFrameCap = 1 << 20

// Config parametrises a Node.
type Config struct {
	// PID is this process's ID; frames addressed to any other are dropped.
	PID mcast.ProcessID
	// ListenAddr is the TCP address to accept peer connections on.
	ListenAddr string
	// Peers maps every process (replicas and clients) to its address. It
	// is copied at Serve time; peers learned later (e.g. port-0 test
	// clusters, late-joining clients) are registered with Node.SetPeer.
	Peers map[mcast.ProcessID]string
	// Handler is the protocol state machine to run.
	Handler node.Handler
	// Storage, if non-nil, backs the handler's persist effects: every eager
	// entry is appended and synced before any send or delivery of the same
	// Handle call is released; lazy ones ride the next sync (node.Step). The
	// store calls run on a goroutine beside the node's loop, one at a time;
	// Close returns after the last. A storage error crash-stops the node (it
	// closes as if killed; the durable prefix is what a restart recovers).
	// When nil, persist effects are discarded and the node provides no
	// durability.
	Storage wal.Storage
	// Logf, if non-nil, receives diagnostics (connection errors etc.).
	Logf func(format string, args ...any)
	// OnDeliver, if non-nil, receives the handler's application deliveries,
	// invoked from the node's loop.
	OnDeliver func(d mcast.Delivery)
	// Metrics, if non-nil, supplies the counters the node maintains on its
	// I/O paths. Pass a registered obs.NewRuntime to scrape them; when nil
	// the node creates an unregistered one, so Stats() always works. Either
	// way the counters are the single source of truth — Stats() is a view.
	Metrics *obs.Runtime
	// Peer, if non-nil, hosts the node in memory: it listens on nothing
	// (ListenAddr and Peers are ignored), and a send reaches each recipient
	// as the message value itself, posted into the mailbox of the node Peer
	// returns for it. A recipient Peer returns nil for, or whose node has
	// closed, is a counted drop. Peer is called from the node's loop.
	Peer func(pid mcast.ProcessID) *Node
	// Latency, if non-nil, delays every in-memory message between two
	// distinct processes by Latency(from, to). It must be constant per
	// ordered pair: one sender's deadlines to one recipient are then
	// monotone, and a mailbox posts equal deadlines in arming order, so
	// per-link FIFO holds. It requires Peer.
	Latency func(from, to mcast.ProcessID) time.Duration
}

// Stats is a snapshot of a Node's I/O counters (see Node.Stats). It is
// also the public wbcast.TransportStats, which Replica.Stats returns: on
// the TCP transport every field counts as documented below; on the
// in-process transport (a node with Config.Peer) nothing is encoded, sent
// or read as a frame, so those four counts and Reconnects stay 0, and
// OutboundDrops counts sends to processes that are gone; on the simulated
// transport every field is 0.
type Stats struct {
	// MessagesEncoded counts distinct messages serialised to wire form:
	// one per send with encode-once fan-out, however many recipients the
	// send addresses.
	MessagesEncoded int64
	// FramesSent counts frames appended to peer links — one per
	// destination process per send (self-sends excluded).
	// FramesSent / MessagesEncoded is the achieved fan-out sharing factor.
	FramesSent int64
	// FramesCoalesced counts frames beyond the first in one write: those
	// that rode along instead of costing their own syscall.
	FramesCoalesced int64
	// OutboundDrops counts frames dropped because a peer's link was past
	// linkBacklog, its address was unknown or still a placeholder (port 0),
	// or it could not be reached — in memory, sends to a peer that is gone.
	// Dropped frames are recovered by the protocols' retry machinery.
	OutboundDrops int64
	// Reconnects counts outbound redials after a connection failure.
	Reconnects int64
	// FramesRead counts inbound frames successfully decoded; one dropped
	// for naming another process is not among them.
	FramesRead int64
	// MailboxHighWater is the largest input-mailbox depth observed, kept
	// by the posts themselves, so it is current while the loop is stalled.
	// Mailboxes never block senders (the queue has no capacity, which
	// rules out buffer deadlocks), so sustained overload shows up here
	// rather than as TCP backpressure — monitor it when perf-debugging a
	// saturated node.
	MailboxHighWater int64
}

// Node is a running process: one handler behind the shared shard driver — its
// Step and its Mailbox, consumed only by the node's loop — and, over TCP, one
// listener and one link per peer process.
type Node struct {
	cfg Config
	ln  net.Listener

	quit     chan struct{}
	quitOnce sync.Once
	wg       sync.WaitGroup

	step *node.Step
	box  *node.Mailbox[boxedInput]

	// The send path's scratch, used by the loop alone: the encoded body of
	// the send being released, the links it goes to, and the links appended
	// to since the last flush.
	enc     []byte
	dests   []*link
	touched []*link

	// The address book: the link of every known peer, and whether stop has
	// closed them (a link registered after that starts closed).
	mu      sync.Mutex
	peers   map[mcast.ProcessID]*link
	stopped bool

	// rt holds the node's I/O counters (cfg.Metrics, or an unregistered
	// handle when the caller passed none).
	rt *obs.Runtime
}

// boxedInput is one mailbox entry: an input, or, with done set, the node's
// hand-off coming back from the store.
type boxedInput struct {
	in   node.Input
	done *node.Commit
}

// Serve starts listening, unless the node is hosted in memory (Config.Peer),
// and processing.
func Serve(cfg Config) (*Node, error) {
	if cfg.Handler == nil {
		return nil, fmt.Errorf("tcpnet: nil handler")
	}
	if cfg.Latency != nil && cfg.Peer == nil {
		return nil, fmt.Errorf("tcpnet: Latency applies in memory only")
	}
	rt := cfg.Metrics
	if rt == nil {
		rt = obs.NewRuntime(nil)
	}
	n := &Node{
		cfg:   cfg,
		quit:  make(chan struct{}),
		step:  node.NewStep(cfg.Handler, cfg.Storage),
		peers: make(map[mcast.ProcessID]*link, len(cfg.Peers)),
		rt:    rt,
	}
	n.box = node.NewMailbox[boxedInput](n.quit)
	if d, ok := cfg.Handler.(node.Drainer); ok {
		n.box.Gather = d.Gather // a client; replica loops do not gather (node.Mailbox.Run)
	}
	if cfg.Peer == nil {
		ln, err := net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			return nil, fmt.Errorf("tcpnet: listen %s: %w", cfg.ListenAddr, err)
		}
		n.ln = ln
		for pid, addr := range cfg.Peers {
			n.SetPeer(pid, addr)
		}
		n.wg.Add(1)
		go n.acceptLoop()
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.box.Run(n.consume, n.commit)
	}()
	n.box.Post(boxedInput{in: node.Start{}})
	return n, nil
}

// Addr returns the bound listen address; nil in memory.
func (n *Node) Addr() net.Addr {
	if n.ln == nil {
		return nil
	}
	return n.ln.Addr()
}

// Stats returns a snapshot of the node's I/O counters: a view over the
// obs.Runtime handle that the I/O paths maintain (one source of truth).
func (n *Node) Stats() Stats {
	return Stats{
		MessagesEncoded:  int64(n.rt.Encoded.Load()),
		FramesSent:       int64(n.rt.FramesSent.Load()),
		FramesCoalesced:  int64(n.rt.FramesCoalesced.Load()),
		OutboundDrops:    int64(n.rt.OutboundDrops.Load()),
		Reconnects:       int64(n.rt.Reconnects.Load()),
		FramesRead:       int64(n.rt.FramesRead.Load()),
		MailboxHighWater: n.MailboxHighWater(),
	}
}

// MailboxDepth returns the current depth of the input mailbox. Exposed as
// the wbcast_mailbox_depth gauge view by the public TCP transport.
func (n *Node) MailboxDepth() int64 { return n.box.Depth() }

// MailboxHighWater returns the largest depth of the input mailbox so far.
// Exposed as the wbcast_mailbox_high_water gauge view by the public TCP
// transport, and read by Stats.
func (n *Node) MailboxHighWater() int64 { return n.box.HighWater() }

// SetPeer registers (or updates) the address of a peer process. The
// address book is consulted for each send, so an update takes effect for
// all subsequent sends; a new address gets a new link, and the old one's
// connection is closed with whatever it had not yet written. An address
// whose port is 0 is a placeholder — the peer has not bound its port yet:
// sends to it are counted drops, with no dial and no log line, until a real
// address replaces it.
func (n *Node) SetPeer(pid mcast.ProcessID, addr string) {
	n.mu.Lock()
	old := n.peers[pid]
	if old != nil && old.addr == addr {
		n.mu.Unlock()
		return
	}
	l := &link{n: n, pid: pid, addr: addr, placeholder: HasEphemeralPort(addr)}
	l.closed.Store(n.stopped) // the loop may still be finishing its drain
	n.peers[pid] = l
	n.mu.Unlock()
	if old != nil {
		old.close()
	}
}

// HasEphemeralPort reports whether addr leaves its port to the kernel: as a
// listen address it binds an ephemeral port, as a peer's it is a placeholder.
func HasEphemeralPort(addr string) bool {
	_, port, err := net.SplitHostPort(addr)
	return err == nil && (port == "0" || port == "")
}

// linkTo returns the link of a peer. A peer without one is a counted drop,
// logged unless its address is a placeholder.
func (n *Node) linkTo(pid mcast.ProcessID) *link {
	n.mu.Lock()
	l := n.peers[pid]
	n.mu.Unlock()
	if l == nil || l.placeholder {
		n.rt.OutboundDrops.Inc()
		if l == nil {
			n.logf("tcpnet: no address for process %d", pid)
		}
		return nil
	}
	return l
}

// Inject posts a local input (e.g. a client Submit).
func (n *Node) Inject(in node.Input) error {
	if n.closed() {
		return fmt.Errorf("tcpnet: node closed")
	}
	n.box.Post(boxedInput{in: in})
	return nil
}

// closed reports whether the node has stopped: its loop is gone or going,
// and nothing may be posted to its mailbox any more.
func (n *Node) closed() bool {
	select {
	case <-n.quit:
		return true
	default:
		return false
	}
}

// stop initiates shutdown without joining goroutines (safe to call from
// the node's loop itself, e.g. on a storage failure).
func (n *Node) stop() {
	n.quitOnce.Do(func() { close(n.quit) })
	if n.ln != nil {
		n.ln.Close()
	}
	// Release the writers blocked on a peer that does not read.
	n.mu.Lock()
	n.stopped = true
	for _, l := range n.peers {
		l.close()
	}
	n.mu.Unlock()
}

// Close stops the node and joins its goroutines.
func (n *Node) Close() {
	n.stop()
	n.wg.Wait()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.quit:
				return
			default:
				n.logf("tcpnet: accept: %v", err)
				continue
			}
		}
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop parses frames off one inbound connection, read through one
// buffer per connection, and posts each one addressed to this process to
// the mailbox. A frame for anybody else — a peer's address book is stale —
// is dropped unread: no handler may see a message its process is not a
// destination of. Each frame is read into a buffer of its own, which the
// decoded message borrows and nothing reuses: the garbage collector frees it
// with the last part of the message anybody keeps. A malformed frame ends
// the connection.
func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	done := make(chan struct{})
	defer close(done)
	go func() { // unblock the read on shutdown; gone with the connection
		select {
		case <-n.quit:
			conn.Close()
		case <-done:
		}
	}()
	br := bufio.NewReaderSize(countedReader{conn, &n.rt.SocketReads}, readBufSize)
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(lenBuf[:])
		if size == 0 || size > MaxFrame {
			n.logf("tcpnet: bad frame size %d from %s", size, conn.RemoteAddr())
			return
		}
		buf := make([]byte, size)
		if _, err := io.ReadFull(br, buf); err != nil {
			return
		}
		dest, off := binary.Varint(buf)
		if off <= 0 {
			n.logf("tcpnet: bad destination from %s", conn.RemoteAddr())
			return
		}
		if dest != int64(n.cfg.PID) {
			n.logf("tcpnet: dropping a frame for process %d from %s", dest, conn.RemoteAddr())
			continue
		}
		rcv, err := decodeFrameBody(buf[off:])
		if err != nil {
			n.logf("tcpnet: %v (from %s)", err, conn.RemoteAddr())
			return
		}
		n.rt.FramesRead.Inc()
		n.box.Post(boxedInput{in: rcv})
	}
}

// countedReader counts the Read calls on one connection.
type countedReader struct {
	conn  net.Conn
	reads *obs.Counter
}

func (r countedReader) Read(p []byte) (int, error) {
	r.reads.Inc()
	return r.conn.Read(p)
}

// decodeFrameBody parses a frame body — [sender varint][wire message] — in
// borrow mode: the returned Recv's message aliases buf.
func decodeFrameBody(buf []byte) (node.Recv, error) {
	from, k := binary.Varint(buf)
	if k <= 0 {
		return node.Recv{}, fmt.Errorf("bad sender varint")
	}
	m, err := wire.DecodeBorrowed(buf[k:])
	if err != nil {
		return node.Recv{}, err
	}
	return node.Recv{From: mcast.ProcessID(from), Msg: m}, nil
}

// consume runs one input through the node's Step, or takes back the
// hand-off that has run.
func (n *Node) consume(b boxedInput) {
	if b.done != nil {
		n.release(n.step.Complete(b.done))
		return
	}
	n.release(n.step.Do(b.in))
}

// commit is the mailbox's commit hook, the end of a drain. First the
// handler's end-of-drain effects are released, then the links the drain
// appended to are flushed — so a frame waits for the rest of its drain and no
// longer, and whatever the drain produced for one peer leaves in one write.
// Then what the drain staged goes to the store — one Append, one Sync — on a
// goroutine beside the loop, and comes back through the mailbox.
func (n *Node) commit() {
	n.release(n.step.EndDrain(), nil)
	for _, l := range n.touched {
		l.touched = false
		l.flush()
	}
	n.touched = n.touched[:0]
	c := n.step.Handoff()
	if c == nil {
		return
	}
	if held := c.Calls(); held > 0 {
		n.rt.CommitInputs.Observe(time.Duration(held) * time.Second)
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		c.Run()
		n.box.Post(boxedInput{done: c})
	}()
}

// release acts on what the Step handed back, in the driver's order: timers,
// sends, deliveries. A storage failure crash-stops the node — it closes as
// if killed, and the durable prefix is what a restart recovers.
func (n *Node) release(rel node.Release, err error) {
	if err != nil {
		n.logf("tcpnet: p%d crash-stopping on storage failure: %v", n.cfg.PID, err)
		n.stop()
		return
	}
	for _, tm := range rel.Timers {
		n.box.PostAfter(tm.After, boxedInput{in: node.Timer{Kind: tm.Kind, Data: tm.Data}})
	}
	n.send(rel.Sends)
	if n.cfg.OnDeliver != nil {
		for _, d := range rel.Deliveries {
			n.cfg.OnDeliver(d)
		}
	}
}

// send releases one release's sends. A self-send gets the message through
// the mailbox without touching the wire: the value is shared, not
// re-encoded — received messages are immutable either way. For the remote
// recipients the message is serialised once, here,
// whatever the fan-out, and the bytes are appended to the link of every
// destination as one frame; commit flushes them.
func (n *Node) send(sends []node.Send) {
	for i := range sends {
		snd := &sends[i]
		if n.cfg.Peer != nil {
			n.sendInMemory(snd)
			continue
		}
		n.dests = n.dests[:0]
		for r := 0; r < snd.NumRecipients(); r++ {
			to := snd.Recipient(r)
			if to == n.cfg.PID {
				n.box.Post(boxedInput{in: node.Recv{From: to, Msg: snd.Msg}})
				continue
			}
			l := n.linkTo(to)
			if l == nil {
				continue
			}
			if !l.touched {
				l.touched = true
				n.touched = append(n.touched, l)
			}
			n.dests = append(n.dests, l)
		}
		if len(n.dests) == 0 {
			continue
		}
		if body, ok := n.encode(snd.Msg); ok {
			for _, l := range n.dests {
				l.append(body)
			}
		}
	}
}

// sendInMemory posts one send into the mailbox of every recipient's node,
// after the configured latency: the message value itself, shared by all of
// them, as on a self-send. A recipient that is gone is a counted drop: a
// closed node's mailbox has no loop left to drain it.
func (n *Node) sendInMemory(snd *node.Send) {
	in := boxedInput{in: node.Recv{From: n.cfg.PID, Msg: snd.Msg}}
	for r := 0; r < snd.NumRecipients(); r++ {
		to, q := snd.Recipient(r), n
		if to != n.cfg.PID {
			if q = n.cfg.Peer(to); q == nil || q.closed() {
				n.rt.OutboundDrops.Inc()
				continue
			}
			if n.cfg.Latency != nil {
				if lat := n.cfg.Latency(n.cfg.PID, to); lat > 0 {
					q.box.PostAfter(lat, in)
					continue
				}
			}
		}
		q.box.Post(in)
	}
}

// encode serialises one frame body — [sender varint][wire message] — into
// the node's scratch, valid until the next call.
func (n *Node) encode(m msgs.Message) ([]byte, bool) {
	buf, err := wire.Encode(binary.AppendVarint(n.enc[:0], int64(n.cfg.PID)), m)
	if n.enc = buf[:0]; cap(buf) > pooledFrameCap {
		n.enc = nil
	}
	if err != nil {
		n.logf("tcpnet: encode %v: %v", m.Kind(), err)
		return nil, false
	}
	n.rt.Encoded.Inc()
	return buf, true
}

// link is the outbound half of one peer process: one byte stream, so
// per-link FIFO holds by construction. The node's loop appends whole frames
// to buf under mu; whoever takes buf — swapping in the spare — writes it, and
// at most one taker exists at a time: the loop's flush, which holds mu
// across one write that cannot block, or the writer goroutine, which does
// not hold mu while it writes and is the only one to dial. While the writer
// runs (writing), the loop only appends and it drains what the loop adds.
type link struct {
	n    *Node
	pid  mcast.ProcessID
	addr string
	// placeholder: addr's port is 0, so nothing is sent, dialled or logged.
	placeholder bool

	// Used by the node's loop alone: whether the link is on the loop's
	// touched list.
	touched bool

	mu      sync.Mutex
	buf     []byte // whole frames, not yet taken by a write
	frames  int    // how many
	spare   []byte // the buffer of the last finished write
	conn    net.Conn
	try     tryWriter // conn's non-blocking write, where the platform has one
	writing bool
	// closed: the node has stopped, or SetPeer has replaced the link.
	closed atomic.Bool
}

// append adds one frame — [len u32][dest varint][body] — to the link's
// backlog, or drops it when the backlog is past its bound: a slow peer never
// blocks the loop, and the protocols' retry machinery recovers the frame (the
// model's reliable channel is an eventual property).
func (l *link) append(body []byte) {
	l.mu.Lock()
	if len(l.buf) > 0 && len(l.buf)+len(body) > linkBacklog {
		l.mu.Unlock()
		l.n.rt.OutboundDrops.Inc()
		l.n.logf("tcpnet: backlog to %s full; dropping frame", l.addr)
		return
	}
	start := len(l.buf)
	buf := binary.AppendVarint(append(l.buf, 0, 0, 0, 0), int64(l.pid))
	buf = append(buf, body...)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	l.buf = buf
	l.frames++
	l.mu.Unlock()
	l.n.rt.FramesSent.Inc()
}

// take hands the backlog to a write. Callers hold mu.
func (l *link) take() (out []byte, frames int) {
	out, frames = l.buf, l.frames
	l.buf, l.spare, l.frames = l.spare[:0], nil, 0
	if frames > 1 {
		l.n.rt.FramesCoalesced.Add(uint64(frames - 1))
	}
	return out, frames
}

// done takes back the buffer of a finished write. Callers hold mu.
func (l *link) done(out []byte) {
	if cap(out) <= pooledFrameCap {
		l.spare = out[:0]
	}
}

// flush writes the link's backlog, on the node's loop if that cannot block:
// with the link connected and its writer idle, the socket is offered the
// bytes once, without waiting for it. What it does not take — or
// everything, when the link is not connected, the connection is broken or
// the platform has no such write — goes to the writer goroutine; while that
// runs, flush leaves the backlog to it.
func (l *link) flush() {
	l.mu.Lock()
	if l.writing || len(l.buf) == 0 {
		l.mu.Unlock()
		return
	}
	out, frames := l.take()
	off := l.try.write(out)
	if off == len(out) {
		l.done(out)
		l.mu.Unlock()
		return
	}
	l.writing = true
	l.mu.Unlock()
	l.n.wg.Add(1)
	go l.writeLoop(out, off, frames)
}

// writeLoop is the link's writer goroutine, started by the flush that could
// not finish on its own: it completes that write — out from off — then
// writes whatever the loop has appended meanwhile, and ends when nothing is
// left, or the link is closed.
func (l *link) writeLoop(out []byte, off, frames int) {
	defer l.n.wg.Done()
	for {
		l.write(out, off, frames)
		l.mu.Lock()
		l.done(out)
		if l.closed.Load() {
			l.buf, l.frames = l.buf[:0], 0
		}
		if len(l.buf) == 0 {
			l.writing = false
			l.mu.Unlock()
			return
		}
		out, frames = l.take()
		off = 0
		l.mu.Unlock()
	}
}

// write blocks until out[off:] is written, dialling when the link has no
// connection. A failed write closes the connection and is retried once, from
// the start of out, on a fresh one: a stale connection (the peer restarted)
// costs nothing, and frames the dead connection did take may arrive twice,
// which the protocols tolerate. Failing that, the frames are dropped and
// counted; a closed link drops them uncounted.
func (l *link) write(out []byte, off, frames int) {
	n := l.n
	l.mu.Lock()
	conn := l.conn
	l.mu.Unlock()
	for attempt := 0; attempt < 2; attempt++ {
		if conn == nil {
			if l.closed.Load() {
				return
			}
			c, err := net.DialTimeout("tcp", l.addr, dialTimeout)
			if err != nil {
				n.logf("tcpnet: dial %s: %v", l.addr, err)
				break // drop; retries re-send
			}
			l.setConn(c)
			conn, off = c, 0
		}
		n.rt.SocketWrites.Inc()
		_, err := conn.Write(out[off:])
		if err == nil {
			return
		}
		n.logf("tcpnet: write to %s: %v", l.addr, err)
		n.rt.Reconnects.Inc()
		l.setConn(nil)
		conn = nil
	}
	n.rt.OutboundDrops.Add(uint64(frames))
}

// setConn replaces the link's connection, closing the old one; a connection
// made for a closed link is closed at once.
func (l *link) setConn(c net.Conn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil {
		l.conn.Close()
	}
	l.conn, l.try = c, newTryWriter(c, &l.n.rt.SocketWrites) // a nil c takes nothing
	if c != nil && l.closed.Load() {
		c.Close()
	}
}

// close ends the link: its connection is closed, which releases a writer
// blocked on a peer that does not read, and nothing is dialled or written
// for it again.
func (l *link) close() {
	l.closed.Store(true)
	l.setConn(nil)
}
