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

// maxDests bounds the destination list of one frame header (defensive; a
// real fan-out is bounded by the topology size).
const maxDests = 1 << 10

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

// ackBatchMax bounds how many ack-class messages one shard accumulates for
// one link before they leave as one AckBatch frame regardless of where the
// drain stands.
const ackBatchMax = 64

// pooledFrameCap bounds the capacity of the buffers kept for reuse (the read
// pool's frames, a link's two buffers), so one jumbo frame does not pin
// megabytes.
const pooledFrameCap = 1 << 20

// ShardConfig describes one protocol shard hosted by a Node: its handler
// plus the per-shard durable store and delivery sink.
type ShardConfig struct {
	// Handler is the shard's protocol state machine; its ID() is the
	// shard's process ID.
	Handler node.Handler
	// Storage, if non-nil, backs the shard's persist effects (see
	// Config.Storage).
	Storage wal.Storage
	// OnDeliver, if non-nil, receives the shard's application deliveries,
	// invoked from the shard's loop.
	OnDeliver func(d mcast.Delivery)
}

// Config parametrises a Node.
type Config struct {
	// PID is this process's ID (single-shard form; ignored when Shards is
	// set — each shard's ID comes from its handler).
	PID mcast.ProcessID
	// ListenAddr is the TCP address to accept peer connections on.
	ListenAddr string
	// Peers maps every process (replicas and clients) to its address. It
	// is copied at Serve time; peers learned later (e.g. port-0 test
	// clusters, late-joining clients) are registered with Node.SetPeer.
	// Several processes may share one address (a multi-shard peer).
	Peers map[mcast.ProcessID]string
	// Handler is the protocol state machine to run (single-shard form:
	// exactly one of Handler and Shards must be set).
	Handler node.Handler
	// Storage, if non-nil, backs the handler's persist effects: every eager
	// entry is appended and synced before any send or delivery of the same
	// Handle call is released; lazy ones ride the next sync (node.Step). The
	// store calls run on a goroutine beside the shard's loop, one at a time;
	// Close returns after the last. A storage error crash-stops the node (it
	// closes as if killed; the durable prefix is what a restart recovers).
	// When nil, persist effects are discarded and the node provides no
	// durability. Single-shard form; per-shard stores go in Shards.
	Storage wal.Storage
	// Shards, when non-empty, lists the protocol shards this node hosts
	// (multi-shard form). Handler, Storage and OnDeliver must be unset;
	// shard IDs must be distinct. Each shard gets its own mailbox and
	// loop; sends between co-hosted shards bypass the wire.
	Shards []ShardConfig
	// Logf, if non-nil, receives diagnostics (connection errors etc.).
	Logf func(format string, args ...any)
	// OnDeliver, if non-nil, receives the handler's application deliveries
	// (single-shard form).
	OnDeliver func(d mcast.Delivery)
	// DialTimeout bounds outbound connection attempts (default 3s).
	DialTimeout time.Duration
	// MailboxSize is the ring capacity of each shard's input mailbox
	// (default 64). Enqueues beyond it spill to an unbounded overflow, so
	// senders never block the shard loops — this bounds the fast path,
	// not the queue.
	MailboxSize int
	// Metrics, if non-nil, supplies the counters the node maintains on its
	// I/O paths. Pass a registered obs.NewRuntime to scrape them; when nil
	// the node creates an unregistered one, so Stats() always works. Either
	// way the counters are the single source of truth — Stats() is a view.
	Metrics *obs.Runtime
}

// Stats is a snapshot of a Node's I/O counters (see Node.Stats).
type Stats struct {
	// MessagesEncoded counts distinct messages serialised to wire form:
	// one per send with encode-once fan-out, however many recipients the
	// send addresses, plus one per flushed AckBatch (each covering many
	// ack sends).
	MessagesEncoded int64
	// FramesSent counts frames appended to peer links — one per
	// destination address per send (self- and co-hosted sends excluded).
	// FramesSent / MessagesEncoded is the achieved fan-out sharing factor.
	FramesSent int64
	// FramesCoalesced counts frames beyond the first in one write: those
	// that rode along instead of costing their own syscall.
	FramesCoalesced int64
	// OutboundDrops counts frames dropped because a peer's link was past
	// linkBacklog, its address was unknown, or it could not be reached.
	// Dropped frames are recovered by the protocols' retry machinery.
	OutboundDrops int64
	// Reconnects counts outbound redials after a connection failure.
	Reconnects int64
	// FramesRead counts inbound frames successfully decoded.
	FramesRead int64
	// MailboxHighWater is the largest input-mailbox depth observed across
	// the hosted shards. Mailboxes never block senders (ring + overflow,
	// which rules out buffer deadlocks), so sustained overload shows up
	// here rather than as TCP backpressure — monitor it when
	// perf-debugging a saturated node.
	MailboxHighWater int64
}

// Node is a running TCP-hosted process (one or more protocol shards behind
// one listener).
type Node struct {
	cfg Config
	ln  net.Listener

	quit     chan struct{}
	quitOnce sync.Once
	wg       sync.WaitGroup

	// Hosted shards. shardByPID is immutable after Serve, so the hot
	// paths read it without locking.
	shards     []*shard
	shardByPID map[mcast.ProcessID]*shard

	// The address book: every known peer's link, and the one link of each
	// address (several processes may share one).
	mu    sync.Mutex
	peers map[mcast.ProcessID]*link
	links map[string]*link

	// readPool recycles inbound frame buffers.
	readPool sync.Pool

	// rt holds the node's I/O counters (cfg.Metrics, or an unregistered
	// handle when the caller passed none).
	rt *obs.Runtime
}

// shard is one hosted protocol shard: a handler behind the shared shard
// driver — its Step and its Mailbox, consumed only by the shard's loop.
// Shards share no mutable protocol state; the only cross-shard edge is a
// posted message (see the node.Handler shard-model contract).
type shard struct {
	n         *Node
	pid       mcast.ProcessID
	idx       int // in n.shards: the shard's lane on every link
	step      *node.Step
	onDeliver func(d mcast.Delivery)
	box       *node.Mailbox[boxedInput]
	// held keeps the borrowed frames of the inputs that left entries or
	// effects with the Step for its next hand-off, flying those of the
	// hand-off in flight — staged entries alias them until its Append has
	// returned: composite readFrames, nil when none.
	held, flying *readFrame

	// The send path's scratch, used by the shard's loop alone: the encoded
	// body of the send being released, its recipients grouped by link, and
	// the links appended to since the last flush.
	enc     []byte
	groups  []linkGroup
	ngroups int
	touched []*link
}

// boxedInput pairs an input with the pooled read frame its decoded message
// borrows from (nil for timers, injected inputs and expanded ack-batch
// entries); the frame is released after the handler has consumed the input.
// One with done set carries no input: it is the shard's hand-off coming back
// from the store.
type boxedInput struct {
	in    node.Input
	frame *readFrame
	done  *node.Commit
}

// readFrame is one inbound frame buffer, shared by reference counting
// across the mailboxes of every hosted destination shard. A composite has
// no bytes of its own: it holds one reference on each of its parts — the
// frames of the inputs one commit covers — and drops them with its last.
type readFrame struct {
	buf   []byte
	refs  atomic.Int32
	parts []*readFrame
}

// Serve starts listening and processing.
func Serve(cfg Config) (*Node, error) {
	type shardSpec struct {
		pid mcast.ProcessID
		sc  ShardConfig
	}
	var specs []shardSpec
	if len(cfg.Shards) > 0 {
		if cfg.Handler != nil || cfg.Storage != nil || cfg.OnDeliver != nil {
			return nil, fmt.Errorf("tcpnet: Shards and single-shard fields are mutually exclusive")
		}
		for i, sc := range cfg.Shards {
			if sc.Handler == nil {
				return nil, fmt.Errorf("tcpnet: shard %d: nil handler", i)
			}
			specs = append(specs, shardSpec{sc.Handler.ID(), sc})
		}
	} else {
		if cfg.Handler == nil {
			return nil, fmt.Errorf("tcpnet: nil handler")
		}
		specs = append(specs, shardSpec{cfg.PID, ShardConfig{
			Handler: cfg.Handler, Storage: cfg.Storage, OnDeliver: cfg.OnDeliver,
		}})
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.MailboxSize <= 0 {
		cfg.MailboxSize = 64
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", cfg.ListenAddr, err)
	}
	rt := cfg.Metrics
	if rt == nil {
		rt = obs.NewRuntime(nil)
	}
	n := &Node{
		cfg:        cfg,
		ln:         ln,
		quit:       make(chan struct{}),
		shardByPID: make(map[mcast.ProcessID]*shard, len(specs)),
		peers:      make(map[mcast.ProcessID]*link, len(cfg.Peers)),
		links:      make(map[string]*link),
		rt:         rt,
	}
	n.readPool.New = func() any { return &readFrame{} }
	for _, sp := range specs {
		if _, dup := n.shardByPID[sp.pid]; dup {
			ln.Close()
			return nil, fmt.Errorf("tcpnet: duplicate shard %d", sp.pid)
		}
		s := &shard{
			n: n, pid: sp.pid, idx: len(n.shards), onDeliver: sp.sc.OnDeliver,
			step: node.NewStep(sp.sc.Handler, sp.sc.Storage),
			box:  node.NewMailbox[boxedInput](cfg.MailboxSize, n.quit),
		}
		n.shards = append(n.shards, s)
		n.shardByPID[sp.pid] = s
	}
	for pid, addr := range cfg.Peers {
		n.SetPeer(pid, addr)
	}
	n.wg.Add(1 + len(n.shards))
	go n.acceptLoop()
	for _, s := range n.shards {
		go func() {
			defer n.wg.Done()
			s.box.Run(s.consume, s.commit)
		}()
		s.box.Post(boxedInput{in: node.Start{}})
	}
	return n, nil
}

// Addr returns the bound listen address.
func (n *Node) Addr() net.Addr { return n.ln.Addr() }

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
		MailboxHighWater: n.rt.MailboxHW.Load(),
	}
}

// MailboxDepth returns the summed current input-mailbox depth across the
// hosted shards. Exposed as the wbcast_mailbox_depth gauge view by the
// public TCP transport.
func (n *Node) MailboxDepth() int64 {
	var d int64
	for _, s := range n.shards {
		d += s.box.Depth()
	}
	return d
}

// ShardDepth returns the current input-mailbox depth of one hosted shard
// (0 for an unhosted pid). Exposed as the wbcast_shard_queue_depth gauge.
func (n *Node) ShardDepth(pid mcast.ProcessID) int64 {
	s, ok := n.shardByPID[pid]
	if !ok {
		return 0
	}
	return s.box.Depth()
}

// SetPeer registers (or updates) the address of a peer process. The
// address book is consulted for each send, so an update takes effect for
// all subsequent sends; the link of a stale address idles until the node
// closes.
func (n *Node) SetPeer(pid mcast.ProcessID, addr string) {
	n.mu.Lock()
	l, ok := n.links[addr]
	if !ok {
		l = newLink(n, addr)
		n.links[addr] = l
	}
	n.peers[pid] = l
	n.mu.Unlock()
}

// linkTo returns the link of a peer's current address. A peer without one
// is a counted drop.
func (n *Node) linkTo(pid mcast.ProcessID) *link {
	n.mu.Lock()
	l := n.peers[pid]
	n.mu.Unlock()
	if l == nil {
		n.rt.OutboundDrops.Inc()
		n.logf("tcpnet: no address for process %d", pid)
	}
	return l
}

// Inject posts a local input (e.g. a client Submit) to a single-shard
// node. Multi-shard nodes must use InjectTo.
func (n *Node) Inject(in node.Input) error {
	if len(n.shards) != 1 {
		return fmt.Errorf("tcpnet: Inject on a %d-shard node; use InjectTo", len(n.shards))
	}
	return n.InjectTo(n.shards[0].pid, in)
}

// InjectTo posts a local input to one hosted shard.
func (n *Node) InjectTo(pid mcast.ProcessID, in node.Input) error {
	select {
	case <-n.quit:
		return fmt.Errorf("tcpnet: node closed")
	default:
	}
	s, ok := n.shardByPID[pid]
	if !ok {
		return fmt.Errorf("tcpnet: shard %d not hosted here", pid)
	}
	s.box.Post(boxedInput{in: in})
	return nil
}

// stop initiates shutdown without joining goroutines (safe to call from
// a shard loop itself, e.g. on a storage failure).
func (n *Node) stop() {
	n.quitOnce.Do(func() { close(n.quit) })
	n.ln.Close()
	// Release the writers blocked on a peer that does not read. A writer
	// that connects from here on sees quit and closes its own.
	n.mu.Lock()
	for _, l := range n.links {
		l.setConn(nil)
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
// buffer per connection, and routes each to the mailboxes of the hosted
// destination shards named in its header. A frame with several hosted
// destinations is posted once per shard with a shared reference-counted
// buffer; an AckBatch frame is expanded into per-entry Recv posts (ack
// messages carry no byte slices, so the frame is recycled immediately).
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
	br := bufio.NewReaderSize(conn, readBufSize)
	var lenBuf [4]byte
	var targets []*shard
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(lenBuf[:])
		if size == 0 || size > MaxFrame {
			n.logf("tcpnet: bad frame size %d from %s", size, conn.RemoteAddr())
			return
		}
		rf := n.getReadFrame(int(size))
		if _, err := io.ReadFull(br, rf.buf); err != nil {
			n.putReadFrame(rf)
			return
		}
		start := time.Now()
		nd, off := binary.Uvarint(rf.buf)
		if off <= 0 || nd > maxDests {
			n.putReadFrame(rf)
			n.logf("tcpnet: bad destination count from %s", conn.RemoteAddr())
			return
		}
		targets = targets[:0]
		bad := false
		for i := uint64(0); i < nd; i++ {
			d, k := binary.Varint(rf.buf[off:])
			if k <= 0 {
				bad = true
				break
			}
			off += k
			if s, ok := n.shardByPID[mcast.ProcessID(d)]; ok {
				targets = append(targets, s)
			}
		}
		if bad {
			n.putReadFrame(rf)
			n.logf("tcpnet: bad destination list from %s", conn.RemoteAddr())
			return
		}
		rcv, err := decodeFrameBody(rf.buf[off:])
		if err != nil {
			n.putReadFrame(rf)
			n.logf("tcpnet: %v (from %s)", err, conn.RemoteAddr())
			return
		}
		n.rt.FramesRead.Inc()
		n.rt.DecodeStage.Observe(time.Since(start))
		if ab, ok := rcv.Msg.(msgs.AckBatch); ok {
			for _, ent := range ab.Entries {
				if s, ok := n.shardByPID[ent.To]; ok {
					s.box.Post(boxedInput{in: node.Recv{From: rcv.From, Msg: ent.Msg}})
				}
			}
			n.putReadFrame(rf)
			continue
		}
		if len(targets) == 0 {
			n.putReadFrame(rf) // none of the destinations is hosted here
			continue
		}
		rf.refs.Store(int32(len(targets)))
		for _, s := range targets {
			s.box.Post(boxedInput{in: rcv, frame: rf})
		}
	}
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

func (n *Node) getReadFrame(size int) *readFrame {
	rf := n.readPool.Get().(*readFrame)
	if cap(rf.buf) < size {
		rf.buf = make([]byte, size)
	}
	rf.buf = rf.buf[:size]
	return rf
}

func (n *Node) putReadFrame(rf *readFrame) {
	if rf == nil || cap(rf.buf) > pooledFrameCap {
		return
	}
	n.readPool.Put(rf)
}

// retainRead takes one extra reference on an inbound frame (nil-safe).
func (n *Node) retainRead(rf *readFrame) {
	if rf != nil {
		rf.refs.Add(1)
	}
}

// releaseRead drops one reference on an inbound frame (nil-safe); the last
// reference releases a composite's parts and recycles the buffer.
func (n *Node) releaseRead(rf *readFrame) {
	if rf != nil && rf.refs.Add(-1) == 0 {
		for _, part := range rf.parts {
			n.releaseRead(part)
		}
		clear(rf.parts)
		rf.parts = rf.parts[:0]
		n.putReadFrame(rf)
	}
}

// consume runs one input through the shard's Step, or takes back the
// hand-off that has run. What the call left with the Step keeps a reference
// on its borrowed frame; the rest is released at once.
func (s *shard) consume(b boxedInput) {
	n := s.n
	n.rt.MailboxHW.SetMax(s.box.HighWater())
	if b.done != nil {
		rel, err := s.step.Complete(b.done)
		rf := s.flying
		s.flying = nil
		s.release(rf, rel, err)
		return
	}
	rel, kept, err := s.step.Do(b.in)
	if kept && b.frame != nil {
		if s.held == nil {
			s.held = n.getReadFrame(0)
			s.held.refs.Store(1)
		}
		n.retainRead(b.frame)
		s.held.parts = append(s.held.parts, b.frame)
	}
	s.release(b.frame, rel, err)
}

// commit is the mailbox's commit hook, the end of a drain. First the links
// the drain appended to are flushed — so a frame waits for the rest of its
// drain and no longer, and whatever the drain produced for one peer leaves
// in one write. Then what the drain staged goes to the store — one Append,
// one Sync — on a goroutine beside the loop, with the frames it may alias,
// and comes back through the mailbox.
func (s *shard) commit() {
	for _, l := range s.touched {
		ln := &l.lanes[s.idx]
		s.flushAcks(l, ln)
		ln.touched = false
		l.flush()
	}
	s.touched = s.touched[:0] // links live as long as the node: nothing to unpin
	c := s.step.Handoff()
	if c == nil {
		return
	}
	if held := c.Calls(); held > 0 {
		s.n.rt.CommitInputs.Observe(time.Duration(held) * time.Second)
	}
	s.flying, s.held = s.held, nil
	c.Go(&s.n.wg, func() { s.box.Post(boxedInput{done: c}) })
}

// release acts on what the Step handed back, in the driver's order: timers,
// sends, deliveries; then the shard's reference on rf, the frame the
// effects may borrow from, can go. A storage failure crash-stops the whole
// node — it closes as if killed, and the durable prefix is what a restart
// recovers.
func (s *shard) release(rf *readFrame, rel node.Release, err error) {
	n := s.n
	if err != nil {
		n.logf("tcpnet: p%d crash-stopping on storage failure: %v", s.pid, err)
		n.stop()
		n.releaseRead(s.held)
		n.releaseRead(s.flying)
		s.held, s.flying = nil, nil
	} else {
		for _, tm := range rel.Timers {
			s.box.PostAfter(tm.After, boxedInput{in: node.Timer{Kind: tm.Kind, Data: tm.Data}})
		}
		s.send(rf, rel.Sends)
		if s.onDeliver != nil {
			for _, d := range rel.Deliveries {
				s.onDeliver(d)
			}
		}
	}
	n.releaseRead(rf)
}

// linkGroup collects the recipients of one send that share a link, so the
// address gets one frame whatever it hosts.
type linkGroup struct {
	l   *link
	tos []mcast.ProcessID
}

// send releases one release's sends. A hosted recipient (self-send or a
// co-hosted shard) gets the message through its mailbox without touching
// the wire: the value is shared, not re-encoded — handlers treat received
// messages as immutable either way — and the posted input keeps a reference
// to rf in case the message borrows from it. For the remote recipients the
// message is serialised once, here, whatever the fan-out, and the bytes are
// appended to the link of every destination address; commit flushes them.
// Ack-class unicasts accumulate per link and leave as one AckBatch frame —
// before any later frame of this shard to the same link (per-link FIFO),
// when ackBatchMax have gathered, and at the end of the drain.
func (s *shard) send(rf *readFrame, sends []node.Send) {
	n := s.n
	for i := range sends {
		snd := &sends[i]
		ack := snd.Tos == nil && snd.Msg.Kind().IsAck()
		s.ngroups = 0
		for r := 0; r < snd.NumRecipients(); r++ {
			to := snd.Recipient(r)
			if t, ok := n.shardByPID[to]; ok {
				n.retainRead(rf)
				t.box.Post(boxedInput{in: node.Recv{From: s.pid, Msg: snd.Msg}, frame: rf})
			} else if l := n.linkTo(to); l == nil {
				continue
			} else if ack {
				ln := s.lane(l)
				ln.acks = append(ln.acks, msgs.AckEntry{To: to, Msg: snd.Msg})
				if len(ln.acks) >= ackBatchMax {
					s.flushAcks(l, ln)
				}
			} else {
				s.addTo(l, to)
			}
		}
		if s.ngroups == 0 {
			continue
		}
		groups := s.groups[:s.ngroups]
		for j := range groups {
			s.flushAcks(groups[j].l, s.lane(groups[j].l))
		}
		if body, ok := s.encode(snd.Msg); ok {
			for j := range groups {
				groups[j].l.append(groups[j].tos, body)
			}
		}
	}
}

// addTo adds one recipient to the send's link grouping scratch.
func (s *shard) addTo(l *link, to mcast.ProcessID) {
	for j := 0; j < s.ngroups; j++ {
		if s.groups[j].l == l {
			s.groups[j].tos = append(s.groups[j].tos, to)
			return
		}
	}
	if s.ngroups == len(s.groups) {
		s.groups = append(s.groups, linkGroup{})
	}
	g := &s.groups[s.ngroups]
	g.l, g.tos = l, append(g.tos[:0], to)
	s.ngroups++
}

// lane returns the shard's lane on l, entering l among the links commit
// flushes.
func (s *shard) lane(l *link) *lane {
	ln := &l.lanes[s.idx]
	if !ln.touched {
		ln.touched = true
		s.touched = append(s.touched, l)
	}
	return ln
}

// flushAcks appends the acks the shard has accumulated for l as a single
// AckBatch frame: no destinations in the header, the receiver routes by the
// per-entry To fields.
func (s *shard) flushAcks(l *link, ln *lane) {
	if len(ln.acks) == 0 {
		return
	}
	s.n.rt.AckBatchSize.Observe(time.Duration(len(ln.acks)) * time.Second)
	body, ok := s.encode(msgs.AckBatch{Entries: ln.acks})
	clear(ln.acks)
	ln.acks = ln.acks[:0]
	if ok {
		l.append(nil, body)
	}
}

// encode serialises one frame body — [sender varint][wire message] — into
// the shard's scratch, valid until the next call.
func (s *shard) encode(m msgs.Message) ([]byte, bool) {
	start := time.Now()
	buf, err := wire.Encode(binary.AppendVarint(s.enc[:0], int64(s.pid)), m)
	if s.enc = buf[:0]; cap(buf) > pooledFrameCap {
		s.enc = nil
	}
	if err != nil {
		s.n.logf("tcpnet: encode %v: %v", m.Kind(), err)
		return nil, false
	}
	s.n.rt.Encoded.Inc()
	s.n.rt.EncodeStage.Observe(time.Since(start))
	return buf, true
}

// link is the outbound half of one peer address: one byte stream, so
// per-link FIFO holds by construction. Shard loops append whole frames to
// buf under mu; whoever takes buf — swapping in the spare — writes it, and
// at most one taker exists at a time: a shard loop's flush, which holds mu
// across one write that cannot block, or the writer goroutine, which does
// not hold mu while it writes and is the only one to dial. While the writer
// runs (writing), loops only append and it drains what they add.
type link struct {
	n    *Node
	addr string
	// lanes[i] is used by shard i's loop alone.
	lanes []lane

	mu      sync.Mutex
	buf     []byte // whole frames, not yet taken by a write
	frames  int    // how many
	spare   []byte // the buffer of the last finished write
	conn    net.Conn
	try     tryWriter // conn's non-blocking write, where the platform has one
	writing bool
}

// lane is one shard's part of a link: the acks it has accumulated for the
// address, and whether the link is on its touched list.
type lane struct {
	acks    []msgs.AckEntry
	touched bool
}

func newLink(n *Node, addr string) *link {
	return &link{n: n, addr: addr, lanes: make([]lane, len(n.shards))}
}

// append adds one frame — [len u32][ndests uvarint][dest varint...][body]
// — to the link's backlog, or drops it when the backlog is past its bound:
// a slow peer never blocks a shard loop, and the protocols' retry machinery
// recovers the frame (the model's reliable channel is an eventual property).
func (l *link) append(tos []mcast.ProcessID, body []byte) {
	l.mu.Lock()
	if len(l.buf) > 0 && len(l.buf)+len(body) > linkBacklog {
		l.mu.Unlock()
		l.n.rt.OutboundDrops.Inc()
		l.n.logf("tcpnet: backlog to %s full; dropping frame", l.addr)
		return
	}
	start := len(l.buf)
	buf := binary.AppendUvarint(append(l.buf, 0, 0, 0, 0), uint64(len(tos)))
	for _, to := range tos {
		buf = binary.AppendVarint(buf, int64(to))
	}
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

// flush writes the link's backlog, on the calling shard loop if that cannot
// block: with the link connected and its writer idle, the socket is offered
// the bytes once, without waiting for it. What it does not take — or
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
// writes whatever the loops have appended meanwhile, and ends when nothing
// is left.
func (l *link) writeLoop(out []byte, off, frames int) {
	defer l.n.wg.Done()
	for {
		l.write(out, off, frames)
		l.mu.Lock()
		l.done(out)
		select {
		case <-l.n.quit:
			l.buf, l.frames = l.buf[:0], 0
		default:
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
// counted.
func (l *link) write(out []byte, off, frames int) {
	n := l.n
	l.mu.Lock()
	conn := l.conn
	l.mu.Unlock()
	for attempt := 0; attempt < 2; attempt++ {
		if conn == nil {
			select {
			case <-n.quit:
				return
			default:
			}
			c, err := net.DialTimeout("tcp", l.addr, n.cfg.DialTimeout)
			if err != nil {
				n.logf("tcpnet: dial %s: %v", l.addr, err)
				break // drop; retries re-send
			}
			l.setConn(c)
			conn, off = c, 0
		}
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
// made after the node has quit is closed at once.
func (l *link) setConn(c net.Conn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil {
		l.conn.Close()
	}
	l.conn, l.try = c, tryWriter{}
	if c == nil {
		return
	}
	select {
	case <-l.n.quit:
		c.Close()
	default:
		l.try = newTryWriter(c)
	}
}
