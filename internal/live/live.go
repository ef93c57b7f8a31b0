package live

import (
	"fmt"
	"sync"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/wal"
)

// LatencyFunc returns the one-way injected delay between two processes. It
// must be constant per ordered pair to preserve FIFO ordering.
type LatencyFunc func(from, to mcast.ProcessID) time.Duration

// Config parametrises a Network.
type Config struct {
	// Latency is the injected one-way delay; nil means no injection.
	Latency LatencyFunc
	// OnDeliver receives every application delivery; it is invoked from
	// the delivering process's goroutine and must not block for long.
	OnDeliver func(p mcast.ProcessID, d mcast.Delivery)
	// Logf, if non-nil, receives diagnostics (storage-failure crash-stops).
	Logf func(format string, args ...any)
}

// mailboxSize is the ring capacity of each process's input mailbox
// (node.Mailbox). Posts beyond it spill to an unbounded overflow, so senders
// never block; in-flight load is limited by the closed-loop pacing of the
// submitters.
const mailboxSize = 64

// Network hosts a set of processes. Construct with New and register
// handlers with Add, which starts them; Close stops and joins every
// goroutine.
type Network struct {
	cfg    Config
	mu     sync.Mutex
	procs  map[mcast.ProcessID]*proc
	closed bool
	wg     sync.WaitGroup
}

// New creates an empty network.
func New(cfg Config) *Network {
	return &Network{cfg: cfg, procs: make(map[mcast.ProcessID]*proc)}
}

type envelope struct {
	in   node.Input
	done *node.Commit // instead of an input: the hand-off that has run
}

type proc struct {
	net *Network
	pid mcast.ProcessID
	// step and box are the shared shard driver: the process is one
	// ordering shard. A sender posts its envelopes from one goroutine in
	// send order, so per-link FIFO is preserved.
	step    *node.Step
	box     *node.Mailbox[envelope]
	quit    chan struct{}
	crashed chan struct{}
	crashMu sync.Once
	// stepMu is held by the loop across every Step call and commits counts
	// the hand-off running beside it, so that Crash can wait both out: once
	// it returns, nothing touches the process's store any more.
	stepMu  sync.Mutex
	commits sync.WaitGroup
}

// Add registers a handler, starts its loop and delivers the Start input.
// With a durable store, what a mailbox drain staged is appended and synced
// by one hand-off (node.Step) that runs beside the loop, effects that vouch
// for an entry wait for it, and a storage error crash-stops the process. A
// nil store discards persist effects (no durability).
func (n *Network) Add(h node.Handler, st wal.Storage) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("live: Add after Close")
	}
	pid := h.ID()
	if _, dup := n.procs[pid]; dup {
		return fmt.Errorf("live: duplicate process %d", pid)
	}
	quit := make(chan struct{})
	p := &proc{
		net:     n,
		pid:     pid,
		step:    node.NewStep(h, st),
		box:     node.NewMailbox[envelope](mailboxSize, quit),
		quit:    quit,
		crashed: make(chan struct{}),
	}
	n.procs[pid] = p
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		p.box.Run(p.consume, p.commit)
	}()
	p.box.Post(envelope{in: node.Start{}})
	return nil
}

// Close stops all processes and waits for their goroutines to exit.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.wg.Wait()
		return
	}
	n.closed = true
	procs := n.procs
	n.mu.Unlock()
	for _, p := range procs {
		close(p.quit)
	}
	n.wg.Wait()
	for _, p := range procs {
		p.commits.Wait()
	}
}

// proc returns the process registered as pid, or nil.
func (n *Network) proc(pid mcast.ProcessID) *proc {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.procs[pid]
}

// Crash stops delivering inputs to pid (crash-stop fault injection) and
// returns once the Handle call and the hand-off in flight, if any, are over:
// the caller may then tear down the process's store. The process goroutines
// keep draining their queues but discard everything.
func (n *Network) Crash(pid mcast.ProcessID) {
	if p := n.proc(pid); p != nil {
		p.crash()
		p.stepMu.Lock()
		p.stepMu.Unlock() //nolint:staticcheck // empty section: a barrier
		p.commits.Wait()
	}
}

func (p *proc) crash() { p.crashMu.Do(func() { close(p.crashed) }) }

func (p *proc) isCrashed() bool {
	select {
	case <-p.crashed:
		return true
	default:
		return false
	}
}

// MailboxHighWater returns the largest input-mailbox depth observed at
// pid so far, or 0 if pid is unknown. Mailboxes never block senders
// (ring + overflow), so sustained overload shows up here rather than as
// sender backpressure.
func (n *Network) MailboxHighWater(pid mcast.ProcessID) int64 {
	if p := n.proc(pid); p != nil {
		return p.box.HighWater()
	}
	return 0
}

// MailboxDepth returns the current input-mailbox depth at pid, or 0 if
// pid is unknown (an instantaneous gauge; MailboxHighWater is its
// maximum).
func (n *Network) MailboxDepth(pid mcast.ProcessID) int64 {
	if p := n.proc(pid); p != nil {
		return p.box.Depth()
	}
	return 0
}

// Submit posts a Submit input to a client process. It never blocks;
// submitters are expected to pace themselves on completions (closed loop
// or a pipelining window), since queues grow elastically.
func (n *Network) Submit(pid mcast.ProcessID, m mcast.AppMsg) error {
	return n.Inject(pid, node.Submit{Msg: m})
}

// Inject posts an arbitrary input to a process.
func (n *Network) Inject(pid mcast.ProcessID, in node.Input) error {
	p := n.proc(pid)
	if p == nil {
		return fmt.Errorf("live: unknown process %d", pid)
	}
	select {
	case <-p.quit:
		return fmt.Errorf("live: network closed")
	default:
	}
	p.box.Post(envelope{in: in})
	return nil
}

// consume runs one input through the process's Step, or takes back the
// hand-off that has run; what the Step holds back follows with the hand-off
// that covers it.
func (p *proc) consume(env envelope) {
	if p.enter() {
		var rel node.Release
		var err error
		if env.done != nil {
			rel, err = p.step.Complete(env.done)
		} else {
			rel, err = p.step.Do(env.in)
		}
		p.stepMu.Unlock()
		p.release(rel, err)
	}
}

// commit is the mailbox's commit hook, the end of a drain: the handler's
// end-of-drain effects are released, then what the drain staged goes to the
// store beside the loop and comes back as an envelope. A process crashed in
// between loses the batch unreleased.
func (p *proc) commit() {
	if p.enter() {
		rel := p.step.EndDrain()
		if c := p.step.Handoff(); c != nil {
			c.Go(&p.commits, func() { p.box.Post(envelope{done: c}) })
		}
		p.stepMu.Unlock()
		p.release(rel, nil)
	}
}

// enter takes stepMu for one Step call, unless the process has crashed:
// crashed processes discard all input.
func (p *proc) enter() bool {
	p.stepMu.Lock()
	if p.isCrashed() {
		p.stepMu.Unlock()
		return false
	}
	return true
}

// release acts on what the Step handed back, in the driver's order:
// timers, sends, deliveries. A storage failure crash-stops the process.
func (p *proc) release(rel node.Release, err error) {
	if err != nil {
		if p.net.cfg.Logf != nil {
			p.net.cfg.Logf("live: p%d crash-stopping on storage failure: %v", p.pid, err)
		}
		p.crash()
		return
	}
	for _, tm := range rel.Timers {
		p.box.PostAfter(tm.After, envelope{in: node.Timer{Kind: tm.Kind, Data: tm.Data}})
	}
	for _, snd := range rel.Sends {
		for i := 0; i < snd.NumRecipients(); i++ {
			p.net.route(p.pid, snd.Recipient(i), snd.Msg)
		}
	}
	if p.net.cfg.OnDeliver != nil {
		for _, d := range rel.Deliveries {
			p.net.cfg.OnDeliver(p.pid, d)
		}
	}
}

// route hands a message to the destination's mailbox, to be posted after
// the configured latency, if any.
func (n *Network) route(from, to mcast.ProcessID, m msgs.Message) {
	q := n.proc(to)
	if q == nil {
		return // unknown destination: drop (e.g. client already gone)
	}
	var lat time.Duration
	if n.cfg.Latency != nil && from != to {
		lat = n.cfg.Latency(from, to)
	}
	env := envelope{in: node.Recv{From: from, Msg: m}}
	if lat <= 0 {
		q.box.Post(env)
	} else {
		// A constant per-pair latency makes one sender's deadlines monotone,
		// and the mailbox posts equal deadlines in arming order: per-link
		// FIFO holds.
		q.box.PostAfter(lat, env)
	}
}
