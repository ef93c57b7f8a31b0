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

// Outbound write coalescing bounds: a writeLoop drains up to
// coalesceFrames queued frames (or coalesceBytes bytes) into one
// vectored write, so bursts — batch envelopes, ACK fans — cost one
// syscall instead of one per frame.
const (
	coalesceFrames = 64
	coalesceBytes  = 256 << 10
)

// readBufSize is the per-connection read buffer: one read(2) takes in every
// frame the kernel has queued up to this many bytes, instead of two reads
// (length prefix, body) per frame. A larger frame bypasses the buffer.
const readBufSize = 32 << 10

// ackBatchMax bounds how many ack-class messages accumulate for one
// (address, sending shard) stream before the encode stage flushes them as
// one AckBatch frame regardless of queue pressure.
const ackBatchMax = 64

// pooledFrameCap bounds the capacity of buffers returned to the frame
// pools, so one jumbo frame does not pin megabytes inside the pool.
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
	// FramesSent counts frames enqueued to peer writers — one per
	// destination address per send (self- and co-hosted sends excluded).
	// FramesSent / MessagesEncoded is the achieved fan-out sharing factor.
	FramesSent int64
	// FramesCoalesced counts frames that rode along in a multi-frame
	// vectored write instead of costing their own syscall.
	FramesCoalesced int64
	// OutboundDrops counts frames dropped because a peer's writer queue
	// was full or its address was unknown/retracted. Dropped frames are
	// recovered by the protocols' retry machinery.
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

	// The encode stage's input: shard loops post sendBatches, the encode
	// goroutine is the single consumer.
	encodeQ *node.Mailbox[*sendBatch]

	mu      sync.Mutex
	addrs   map[mcast.ProcessID]string
	writers map[string]*writer

	// readPool recycles inbound frame buffers; outPool recycles outbound
	// reference-counted frames; batchPool recycles sendBatches.
	readPool  sync.Pool
	outPool   sync.Pool
	batchPool sync.Pool

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
	step      *node.Step
	onDeliver func(d mcast.Delivery)
	box       *node.Mailbox[boxedInput]
	// held keeps the borrowed frames of the inputs that left entries or
	// effects with the Step for its next hand-off, flying those of the
	// hand-off in flight — staged entries alias them until its Append has
	// returned: composite readFrames, nil when none.
	held, flying *readFrame
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

// outFrame is one encoded outbound frame body — [sender varint][wire
// message] — shared by reference counting across the writer queues of
// every destination address of a fan-out send. The per-address frame
// header ([len][ndests][dests...]) is built by each writeLoop.
type outFrame struct {
	buf  []byte
	refs atomic.Int32
}

// outEntry is one frame queued to one address's writer, carrying the
// destination list for the header.
type outEntry struct {
	f *outFrame
	// to is the single destination when tos is nil; tos is the
	// destination list when the address hosts several of the send's
	// recipients.
	to  mcast.ProcessID
	tos []mcast.ProcessID
	// ackBatch marks an AckBatch frame: the header carries zero
	// destinations and the receiver routes by the per-entry To fields.
	ackBatch bool
}

// sendBatch is one release's remote sends, handed from a shard loop to
// the encode stage. frame (if non-nil) holds a reference to the inbound
// frame the send messages may borrow from; the encode stage releases it
// once every send is serialised.
type sendBatch struct {
	from  mcast.ProcessID
	sends []node.Send
	frame *readFrame
}

// writer is the outbound queue for one peer address.
type writer struct {
	addr string
	out  chan outEntry
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
		addrs:      make(map[mcast.ProcessID]string, len(cfg.Peers)),
		writers:    make(map[string]*writer),
		rt:         rt,
	}
	n.encodeQ = node.NewMailbox[*sendBatch](max(cfg.MailboxSize, 64), n.quit)
	n.readPool.New = func() any { return &readFrame{} }
	n.outPool.New = func() any { return &outFrame{} }
	n.batchPool.New = func() any { return &sendBatch{} }
	for pid, addr := range cfg.Peers {
		n.addrs[pid] = addr
	}
	for _, sp := range specs {
		if _, dup := n.shardByPID[sp.pid]; dup {
			ln.Close()
			return nil, fmt.Errorf("tcpnet: duplicate shard %d", sp.pid)
		}
		s := &shard{
			n: n, pid: sp.pid, onDeliver: sp.sc.OnDeliver,
			step: node.NewStep(sp.sc.Handler, sp.sc.Storage),
			box:  node.NewMailbox[boxedInput](cfg.MailboxSize, n.quit),
		}
		n.shards = append(n.shards, s)
		n.shardByPID[sp.pid] = s
	}
	n.wg.Add(2 + len(n.shards))
	go n.acceptLoop()
	go n.encodeLoop()
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
// address book is consulted when each send is encoded, so an update takes
// effect for all subsequent sends; a writer for a stale address idles
// until the node closes.
func (n *Node) SetPeer(pid mcast.ProcessID, addr string) {
	n.mu.Lock()
	n.addrs[pid] = addr
	n.mu.Unlock()
}

// peerAddr looks up the current address of a peer.
func (n *Node) peerAddr(pid mcast.ProcessID) (string, bool) {
	n.mu.Lock()
	addr, ok := n.addrs[pid]
	n.mu.Unlock()
	return addr, ok
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

// commit is the mailbox's commit hook: what the drain staged goes to the
// store — one Append, one Sync — on a goroutine beside the loop, with the
// frames it may alias, and comes back through the mailbox.
func (s *shard) commit() {
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

// send releases one release's sends. Sends to co-hosted shards are posted
// straight to their mailboxes; sends with any remote recipient are handed
// to the encode stage as one sendBatch, carrying a reference to the
// inbound frame rf so borrowed message bytes stay alive until serialised.
func (s *shard) send(rf *readFrame, sends []node.Send) {
	n := s.n
	remote := false
	for i := range sends {
		snd := &sends[i]
		for r := 0; r < snd.NumRecipients(); r++ {
			to := snd.Recipient(r)
			if t, ok := n.shardByPID[to]; ok {
				// Hosted recipient (self-send or a co-hosted shard): loop
				// back through its mailbox without touching the wire. The
				// message value is shared, not re-encoded; handlers treat
				// received messages as immutable either way, and the posted
				// input keeps a reference to rf in case the message borrows
				// from it.
				n.retainRead(rf)
				t.box.Post(boxedInput{in: node.Recv{From: s.pid, Msg: snd.Msg}, frame: rf})
			} else {
				remote = true
			}
		}
	}
	if remote {
		n.retainRead(rf)
		b := n.batchPool.Get().(*sendBatch)
		b.from = s.pid
		b.frame = rf
		b.sends = append(b.sends[:0], sends...)
		n.encodeQ.Post(b)
	}
}

// putBatch recycles a sendBatch, clearing message references so the pool
// does not pin frames or payloads.
func (n *Node) putBatch(b *sendBatch) {
	clear(b.sends)
	b.sends = b.sends[:0]
	b.frame = nil
	n.batchPool.Put(b)
}

// ackKey identifies one ack-accumulation stream of the encode stage: acks
// from one hosted shard to one peer address. Keeping streams separate per
// sending shard preserves per-link FIFO (an AckBatch frame carries one
// sender).
type ackKey struct {
	addr string
	from mcast.ProcessID
}

// encoder is the encode stage's state: the address-grouping scratch for
// one send's fan-out and the pending ack batches. It is owned by the
// single encodeLoop goroutine.
type encoder struct {
	n       *Node
	groups  []addrGroup
	ngroups int
	acks    map[ackKey][]msgs.AckEntry
	pending int
}

// addrGroup collects the recipients of one send that share a destination
// address, so the address gets one frame whatever it hosts.
type addrGroup struct {
	addr string
	tos  []mcast.ProcessID
}

func newEncoder(n *Node) *encoder {
	return &encoder{n: n, acks: make(map[ackKey][]msgs.AckEntry)}
}

// encodeLoop drains sendBatches from the shard loops, serialising each
// send exactly once and fanning the shared frame out per destination
// address. Ack-class unicasts are buffered per (address, shard) and
// flushed as one AckBatch frame — before any non-ack frame to the same
// stream (preserving per-link FIFO), when ackBatchMax accumulate, and at
// the mailbox's commit points (so an idle queue never delays acks).
func (n *Node) encodeLoop() {
	defer n.wg.Done()
	e := newEncoder(n)
	n.encodeQ.Run(func(b *sendBatch) {
		e.batch(b)
		n.releaseRead(b.frame)
		n.putBatch(b)
	}, e.flushAll)
}

// addTo adds one recipient to the send's address grouping scratch.
func (e *encoder) addTo(addr string, to mcast.ProcessID) {
	for j := 0; j < e.ngroups; j++ {
		if e.groups[j].addr == addr {
			e.groups[j].tos = append(e.groups[j].tos, to)
			return
		}
	}
	if e.ngroups < len(e.groups) {
		g := &e.groups[e.ngroups]
		g.addr = addr
		g.tos = append(g.tos[:0], to)
	} else {
		e.groups = append(e.groups, addrGroup{addr: addr, tos: []mcast.ProcessID{to}})
	}
	e.ngroups++
}

// batch serialises one sendBatch.
func (e *encoder) batch(b *sendBatch) {
	n := e.n
	for i := range b.sends {
		snd := &b.sends[i]
		if snd.Tos == nil && snd.Msg.Kind().IsAck() {
			// Ack-class unicast: accumulate for batching.
			to := snd.To
			if _, hosted := n.shardByPID[to]; hosted {
				continue // already posted locally by the shard loop
			}
			addr, ok := n.peerAddr(to)
			if !ok {
				n.rt.OutboundDrops.Inc()
				n.logf("tcpnet: no address for process %d", to)
				continue
			}
			k := ackKey{addr: addr, from: b.from}
			e.acks[k] = append(e.acks[k], msgs.AckEntry{To: to, Msg: snd.Msg})
			e.pending++
			if len(e.acks[k]) >= ackBatchMax {
				e.flushAcks(k)
			}
			continue
		}
		// Group the remote recipients by destination address: one frame
		// per address, shared by reference counting.
		e.ngroups = 0
		for r := 0; r < snd.NumRecipients(); r++ {
			to := snd.Recipient(r)
			if _, hosted := n.shardByPID[to]; hosted {
				continue // posted locally by the shard loop
			}
			addr, ok := n.peerAddr(to)
			if !ok {
				n.rt.OutboundDrops.Inc()
				n.logf("tcpnet: no address for process %d", to)
				continue
			}
			e.addTo(addr, to)
		}
		if e.ngroups == 0 {
			continue
		}
		// Per-link FIFO: pending acks from this shard to any address this
		// frame targets must hit the wire first.
		for j := 0; j < e.ngroups; j++ {
			e.flushAcks(ackKey{addr: e.groups[j].addr, from: b.from})
		}
		f, err := n.encodeFrame(b.from, snd.Msg)
		if err != nil {
			n.logf("tcpnet: encode %v: %v", snd.Msg.Kind(), err)
			continue
		}
		// Hand out one reference per destination address before the first
		// enqueue, so a fast writer finishing early cannot free the frame
		// while we are still fanning it out.
		f.refs.Store(int32(e.ngroups))
		for j := 0; j < e.ngroups; j++ {
			g := &e.groups[j]
			ent := outEntry{f: f}
			if len(g.tos) == 1 {
				ent.to = g.tos[0]
			} else {
				// The scratch is reused per send; a multi-recipient
				// destination list must survive until its writer builds
				// the header.
				ent.tos = append([]mcast.ProcessID(nil), g.tos...)
			}
			n.enqueueAddr(g.addr, ent)
		}
	}
}

// flushAcks encodes and enqueues one stream's pending acks as a single
// AckBatch frame.
func (e *encoder) flushAcks(k ackKey) {
	entries := e.acks[k]
	if len(entries) == 0 {
		return
	}
	e.pending -= len(entries)
	n := e.n
	f, err := n.encodeFrame(k.from, msgs.AckBatch{Entries: entries})
	n.rt.AckBatchSize.Observe(time.Duration(len(entries)) * time.Second)
	e.acks[k] = entries[:0]
	if err != nil {
		n.logf("tcpnet: encode ack batch: %v", err)
		return
	}
	f.refs.Store(1)
	n.enqueueAddr(k.addr, outEntry{f: f, ackBatch: true})
}

// flushAll flushes every pending ack stream (end of a drain pass).
func (e *encoder) flushAll() {
	if e.pending == 0 {
		return
	}
	for k := range e.acks {
		e.flushAcks(k)
	}
}

// encodeFrame builds a frame body — [sender varint][wire message] — into a
// pooled buffer. The caller owns the returned frame's references.
func (n *Node) encodeFrame(from mcast.ProcessID, m msgs.Message) (*outFrame, error) {
	start := time.Now()
	f := n.outPool.Get().(*outFrame)
	buf := binary.AppendVarint(f.buf[:0], int64(from))
	buf, err := wire.Encode(buf, m)
	if err != nil {
		f.buf = buf[:0]
		n.outPool.Put(f)
		return nil, err
	}
	f.buf = buf
	n.rt.Encoded.Inc()
	n.rt.EncodeStage.Observe(time.Since(start))
	return f, nil
}

// release drops one reference; the last reference returns the frame to the
// pool.
func (n *Node) release(f *outFrame) {
	if f.refs.Add(-1) == 0 {
		if cap(f.buf) > pooledFrameCap {
			return
		}
		n.outPool.Put(f)
	}
}

// enqueueAddr hands a frame reference to the address's writer, creating it
// on demand. On a full queue the reference is released and the drop is
// counted; dropped frames are recovered by the protocols' retry machinery
// (the reliable-channel assumption of the model is an eventual property).
func (n *Node) enqueueAddr(addr string, e outEntry) {
	n.mu.Lock()
	w, ok := n.writers[addr]
	if !ok {
		w = &writer{addr: addr, out: make(chan outEntry, 1024)}
		n.writers[addr] = w
		n.wg.Add(1)
		go n.writeLoop(w)
	}
	n.mu.Unlock()
	select {
	case w.out <- e:
		n.rt.FramesSent.Inc()
	default:
		// Never block the encode stage on a slow peer.
		n.rt.OutboundDrops.Inc()
		n.release(e.f)
		n.logf("tcpnet: outbound queue to %s full; dropping frame", addr)
	}
}

// writeLoop owns the outbound connection to one peer address, dialling
// lazily and reconnecting once per write on failure. Queued frames are
// coalesced into a single vectored write, which pipelines bursts (batch
// envelopes, quorum ACK fans) through one syscall. Each frame's header —
// [len u32][ndests uvarint][dest varint...] — is built here into a scratch
// arena, so the shared body buffer is written as-is however many addresses
// it fans out to.
func (n *Node) writeLoop(w *writer) {
	defer n.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	held := make([]outEntry, 0, coalesceFrames)
	var hdr []byte // header arena for one coalesced write
	var ends []int // per-frame header end offsets into hdr
	var bufs, scratch net.Buffers
	for {
		select {
		case <-n.quit:
			return
		case e := <-w.out:
			held = append(held[:0], e)
			size := len(e.f.buf)
		drain:
			for len(held) < coalesceFrames && size < coalesceBytes {
				select {
				case e := <-w.out:
					held = append(held, e)
					size += len(e.f.buf)
				default:
					break drain
				}
			}
			if len(held) > 1 {
				n.rt.FramesCoalesced.Add(uint64(len(held) - 1))
			}
			// Build the headers first (appends may grow hdr, so record
			// offsets and slice afterwards).
			hdr, ends = hdr[:0], ends[:0]
			for _, e := range held {
				s := len(hdr)
				hdr = append(hdr, 0, 0, 0, 0) // length prefix, patched below
				switch {
				case e.ackBatch:
					hdr = binary.AppendUvarint(hdr, 0)
				case e.tos == nil:
					hdr = binary.AppendUvarint(hdr, 1)
					hdr = binary.AppendVarint(hdr, int64(e.to))
				default:
					hdr = binary.AppendUvarint(hdr, uint64(len(e.tos)))
					for _, t := range e.tos {
						hdr = binary.AppendVarint(hdr, int64(t))
					}
				}
				binary.BigEndian.PutUint32(hdr[s:], uint32(len(hdr)-s-4+len(e.f.buf)))
				ends = append(ends, len(hdr))
			}
			bufs = bufs[:0]
			prev := 0
			for i, e := range held {
				bufs = append(bufs, hdr[prev:ends[i]], e.f.buf)
				prev = ends[i]
			}
			written := false
			for attempt := 0; attempt < 2; attempt++ {
				if conn == nil {
					c, err := net.DialTimeout("tcp", w.addr, n.cfg.DialTimeout)
					if err != nil {
						n.logf("tcpnet: dial %s: %v", w.addr, err)
						break // drop; retries re-send
					}
					conn = c
				}
				// WriteTo consumes its receiver; give each attempt a copy.
				scratch = append(scratch[:0], bufs...)
				if _, err := scratch.WriteTo(conn); err != nil {
					n.logf("tcpnet: write to %s: %v", w.addr, err)
					conn.Close()
					conn = nil
					n.rt.Reconnects.Inc()
					continue
				}
				written = true
				break
			}
			if !written {
				// Every un-written frame is a drop, whatever path led
				// here (dial failure, both write attempts failing).
				n.rt.OutboundDrops.Add(uint64(len(held)))
			}
			for i := range held {
				n.release(held[i].f)
				held[i] = outEntry{}
			}
		}
	}
}
