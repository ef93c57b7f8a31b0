package wbcast

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"time"

	"wbcast/internal/faults"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/sim"
	"wbcast/internal/tcpnet"
	"wbcast/internal/wal"
)

// Transport is the runtime that hosts the protocol processes of a
// deployment. The same protocol state machines run unchanged on every
// transport; the transport decides how messages move between them:
//
//   - InProcess hosts every process as a goroutine in this OS process: the
//     TCP transport's runtime, with each message posted straight into its
//     recipients' mailboxes after an optionally injected latency
//     (Config.Latency). This is the default and the right choice for
//     embedded use and benchmarks on one machine.
//   - Simulated hosts every process on a deterministic discrete-event
//     simulator: virtual time, reproducible schedules, exact per-message
//     latency control. Background timers (retries, heartbeats, failure
//     detection, GC) are disabled, so runs quiesce and replay identically —
//     the transport for test authors, not for fault-injection scenarios.
//   - TCP hosts the processes started on it in this OS process and connects
//     to the rest of the cluster over TCP — one Transport per host of a
//     distributed deployment.
//
// A Transport value is single-use: it hosts one deployment and is shut down
// by Close (or by the Close of the Cluster built on it). The interface is
// sealed: the constructors in this package make the only implementations.
type Transport interface {
	// Close shuts down every process hosted on this transport and joins
	// their goroutines.
	Close()

	// The interface is sealed: implementations live in this package.
	//
	// open prepares the transport and assigns the deployment-wide
	// observability runtime (cfg.clock, cfg.tracer) into the passed Config
	// — on every call, not just the first, so processes started later with
	// fresh Config values share the same clock and tracer.
	//
	// add hosts a handler; opts.reg is the process's metrics registry, into
	// which the transport registers its runtime counters (frame I/O, drops,
	// mailbox depth and high-water). opts.store,
	// when non-nil, backs the process's persist effects under node.Step's
	// contract (Step.Do: what a call stages, what it holds until the sync,
	// what leaves at once); a storage error crash-stops the process. crash
	// returns only once neither the process's loop nor a hand-off it
	// started can touch that store any more. opts.rebuild, when non-nil,
	// reconstructs the handler from its store — the simulated transport
	// hands it to the simulator, so FaultPlan restarts replay the durable
	// state instead of resurrecting in-memory state.
	open(cfg *Config) error
	add(h node.Handler, opts hostOptions) error
	inject(pid ProcessID, in node.Input) error
	crash(pid ProcessID)
	stats(pid ProcessID) TransportStats
	addr(pid ProcessID) string
	// backgroundTimers reports whether processes hosted here should keep
	// their timer-driven machinery (retries, heartbeats, failure
	// detection, GC). False only on the plain simulated transport, whose
	// quiescence pump requires runs that terminate; chaos mode
	// (SimulatedOptions.Faults) turns timers back on because fault
	// recovery is timer-driven.
	backgroundTimers() bool
}

// hostOptions carries the per-process extras of Transport.add: the
// delivery fan-out, the metrics registry, and (replicas with a configured
// Config.Storage only) the durable store plus the storage-backed handler
// rebuilder.
type hostOptions struct {
	onDeliver func(Delivery)
	reg       *obs.Registry
	store     wal.Storage
	rebuild   func() (node.Handler, error)
}

// TransportStats is a snapshot of a process's transport-level counters,
// surfaced by Replica.Stats: the TCP and in-process transports' node
// counters (see internal/tcpnet for what each field counts on either), all
// zero on the simulated transport.
type TransportStats = tcpnet.Stats

// ---------------------------------------------------------------------------
// Simulated transport (internal/sim)

// SimulatedOptions parametrises the deterministic transport beyond the
// options shared in Config (Delta, Latency, ...).
type SimulatedOptions struct {
	// Seed initialises the simulator's RNG, which samples the link faults
	// of SimulatedOptions.Faults.
	Seed int64
	// Faults, when non-nil, switches the transport into chaos mode and
	// injects the plan's fault schedule: Crash and Restart, Partition,
	// Isolate, OneWay and Heal, SetLink and ClearLinks (per-link drop,
	// duplicate, delay, reorder) and ClockSkew, fired at virtual-time (At)
	// or message-count (AfterSends) triggers. In chaos mode the protocols'
	// background timers stay enabled and virtual time advances
	// continuously (runs no longer pump to quiescence). See FaultPlan and
	// docs/FAULTS.md.
	Faults *FaultPlan
	// OnFault, if non-nil, receives a narration line (with its virtual
	// time) each time a fault action fires.
	OnFault func(at time.Duration, desc string)
}

// Simulated returns a deterministic discrete-event transport: virtual time,
// reproducible schedules, per-message latency of Config.Delta on every link
// (or Config.Latency, when set). Multicasts complete in virtual time — a
// submission is pumped to quiescence — so tests run as fast as the CPU
// allows regardless of the configured latency.
//
// Background timers are disabled on this transport: there are no retries,
// heartbeats, failure detection or GC, which is what makes runs quiesce and
// replay identically. Crashing a process therefore stalls (rather than
// fails over) the messages that need it. For fault-injection scenarios,
// pass a FaultPlan via SimulatedOptions.Faults — chaos mode re-enables the
// timer-driven recovery machinery — or use the InProcess transport.
func Simulated() Transport { return SimulatedWith(SimulatedOptions{}) }

// SimulatedWith is Simulated with explicit options.
func SimulatedWith(opts SimulatedOptions) Transport {
	t := &simTransport{
		opts:    opts,
		deliver: make(map[ProcessID]func(Delivery)),
		done:    make(chan struct{}),
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

type simTransport struct {
	opts SimulatedOptions

	mu      sync.Mutex
	cond    *sync.Cond
	s       *sim.Sim
	deliver map[ProcessID]func(Delivery)
	pending bool
	closed  bool
	done    chan struct{}
	// slice is the virtual-time advance per pump iteration in chaos mode.
	slice time.Duration
	clock obs.Clock
	trc   *obs.Tracer
}

func (t *simTransport) open(cfg *Config) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.s != nil {
		cfg.clock, cfg.tracer = t.clock, t.trc
		return nil
	}
	// The observability clock is virtual time: traces of a seeded
	// simulation are deterministic and replayable. The closure reads t.s,
	// assigned below; handlers only run once the simulator exists.
	t.clock = func() time.Duration { return t.s.Now() }
	t.trc = obs.NewTracer(cfg.TraceSample, t.clock)
	cfg.clock, cfg.tracer = t.clock, t.trc
	var lat sim.Latency
	if cfg.Latency != nil {
		user := cfg.Latency
		lat = func(from, to mcast.ProcessID, _ msgs.Message, _ time.Duration, _ *rand.Rand) time.Duration {
			return user(from, to)
		}
	} else {
		lat = sim.Uniform(cfg.Delta)
	}
	simCfg := sim.Config{
		Latency:   lat,
		Seed:      t.opts.Seed,
		OnDeliver: t.dispatchLocked,
	}
	if tr := t.trc; tr != nil {
		// A storage crash-stop is a fault event: chaos timelines show it
		// interleaved with the protocol stages it interrupted.
		simCfg.OnStorageCrash = func(p mcast.ProcessID, err error) {
			tr.Fault(t.s.Now(), fmt.Sprintf("p%d storage failure: %v", p, err))
		}
	}
	var eng *faults.Engine
	if t.opts.Faults != nil {
		if err := validateFaults(t.opts.Faults); err != nil {
			return err
		}
		eng = faults.New(faults.Config{
			Plan:    *t.opts.Faults,
			Tracer:  t.trc,
			OnEvent: t.opts.OnFault,
		})
		simCfg.Filter = eng.Filter
		simCfg.TimerScale = eng.ScaleTimer
	}
	t.s = sim.New(simCfg)
	if eng != nil {
		eng.Bind(t.s)
		t.slice = 10 * cfg.Delta
		if t.slice < time.Millisecond {
			t.slice = time.Millisecond
		}
	}
	go t.pump()
	return nil
}

// dispatchLocked is invoked by the simulator from inside pump's Run, i.e.
// with t.mu already held — it must not lock.
func (t *simTransport) dispatchLocked(p mcast.ProcessID, d mcast.Delivery) {
	if fn := t.deliver[p]; fn != nil {
		fn(d)
	}
}

// pump drives the simulator. Plain, it runs to quiescence after every
// external input, in bounded slices of virtual time so an armed timer is
// reached however far ahead it was scheduled. In chaos mode the background
// timers keep the event queue from draining (heartbeats re-arm forever), so
// virtual time advances continuously, t.slice at a time; the lock is
// released between slices so application goroutines (Multicast,
// subscription consumers) interleave, and a short real sleep keeps an idle
// simulation from spinning a core. Virtual time runs as fast as the CPU
// allows — a multi-second recovery story plays out in milliseconds of
// wall-clock time.
func (t *simTransport) pump() {
	t.mu.Lock()
	defer t.mu.Unlock()
	defer close(t.done)
	for !t.closed {
		switch {
		case t.opts.Faults != nil:
			t.s.Run(t.s.Now() + t.slice)
			t.mu.Unlock()
			time.Sleep(50 * time.Microsecond)
			t.mu.Lock()
		case !t.pending:
			t.cond.Wait()
		default:
			t.pending = false
			for t.s.Pending() > 0 && !t.closed {
				t.s.Run(t.s.Now() + time.Second)
			}
		}
	}
}

func (t *simTransport) add(h node.Handler, opts hostOptions) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.s == nil {
		return fmt.Errorf("wbcast: transport not opened")
	}
	if t.closed {
		return fmt.Errorf("wbcast: transport closed")
	}
	if opts.onDeliver != nil {
		t.deliver[h.ID()] = opts.onDeliver
	}
	// The quiescence pump is not woken: the handler's Start event runs with
	// the first injected input. Pumping here would advance virtual time a
	// slice before that input or not, depending on goroutine scheduling.
	t.s.AddStored(h, opts.store, opts.rebuild)
	return nil
}

func (t *simTransport) inject(pid ProcessID, in node.Input) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.s == nil {
		return fmt.Errorf("wbcast: transport not opened")
	}
	if t.closed {
		return fmt.Errorf("wbcast: transport closed")
	}
	if sub, ok := in.(node.Submit); ok {
		t.s.NoteSubmit(t.s.Now(), pid, sub.Msg) // the latency and genuineness audits
	}
	t.s.Inject(t.s.Now(), pid, in)
	t.pending = true
	t.cond.Broadcast()
	return nil
}

// crash runs under the pump's lock, so no Handle call is in flight when it
// returns. (A replica's rebuild function declines to load its store once
// the replica is closed, so a later FaultPlan restart does not touch it.)
func (t *simTransport) crash(pid ProcessID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.s != nil {
		t.s.Crash(pid)
	}
}

func (t *simTransport) stats(ProcessID) TransportStats { return TransportStats{} }
func (t *simTransport) addr(ProcessID) string          { return "" }
func (t *simTransport) backgroundTimers() bool         { return t.opts.Faults != nil }

// Close implements Transport: it stops the pump and joins it.
func (t *simTransport) Close() {
	t.mu.Lock()
	started := t.s != nil // the pump (and so t.done) exists only once opened
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
	if started {
		<-t.done
	}
}

// ---------------------------------------------------------------------------
// TCP and in-process transports (internal/tcpnet)

// InProcess returns a transport hosting every process as a goroutine in
// this OS process: the TCP transport's nodes, listening on nothing, each
// posting a message straight into its recipients' mailboxes. Config.Latency,
// when set, injects artificial one-way delays (see LAN and WAN for the
// paper's testbed profiles).
func InProcess() Transport { return &tcpTransport{memory: true} }

// TCP returns a transport that hosts the processes started on it in this OS
// process and reaches the rest of the cluster over TCP. peers maps every
// process of the deployment — replicas and clients — to the address it is
// reachable at; every host of the cluster must be configured with the same
// map. listen, when non-empty, is the bind address of the first process
// started on this transport (the common one-process-per-host deployment,
// where the bind address may differ from the advertised peers entry). Any
// further local processes bind their own peers entry.
//
// Single-host clusters (tests, development) may give every process the
// address "127.0.0.1:0": each locally hosted process binds an ephemeral
// port and the transport rewrites the shared address book as the actual
// addresses become known. This only works when all processes of the cluster
// are hosted on the same Transport value; multi-host deployments need real
// addresses.
func TCP(listen string, peers map[ProcessID]string) Transport {
	t := &tcpTransport{listen: listen, peers: make(map[ProcessID]string, len(peers))}
	maps.Copy(t.peers, peers)
	return t
}

// tcpTransport hosts each process on a tcpnet.Node: over TCP, or in memory
// (InProcess), where a node reaches its peers through the registry.
type tcpTransport struct {
	listen string
	memory bool
	// nodes is the registry of hosted nodes, ProcessID → *tcpnet.Node. It
	// changes under mu; readers — an in-memory node's send path among them —
	// look a node up without a lock.
	nodes sync.Map

	mu         sync.Mutex
	opened     bool
	listenUsed bool
	peers      map[ProcessID]string
	closed     map[ProcessID]bool
	logf       func(format string, args ...any)
	latency    func(from, to ProcessID) time.Duration
	clock      obs.Clock
	tracer     *obs.Tracer
}

func (t *tcpTransport) open(cfg *Config) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.clock == nil {
		start := time.Now()
		t.clock = func() time.Duration { return time.Since(start) }
		t.tracer = obs.NewTracer(cfg.TraceSample, t.clock)
	}
	cfg.clock, cfg.tracer = t.clock, t.tracer
	if t.opened {
		return nil
	}
	// Latency×TCP is rejected earlier, by Config.normalized.
	t.logf, t.latency = cfg.Logf, cfg.Latency
	t.closed = make(map[ProcessID]bool)
	t.opened = true
	return nil
}

// node returns the node hosting pid, or nil.
func (t *tcpTransport) node(pid ProcessID) *tcpnet.Node {
	v, _ := t.nodes.Load(pid)
	n, _ := v.(*tcpnet.Node)
	return n
}

func (t *tcpTransport) add(h node.Handler, opts hostOptions) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.opened {
		return fmt.Errorf("wbcast: transport not opened")
	}
	pid := h.ID()
	if _, dup := t.nodes.Load(pid); dup || t.closed[pid] {
		return fmt.Errorf("wbcast: process %d already hosted on this transport", pid)
	}
	cfg := tcpnet.Config{
		PID:       pid,
		Peers:     maps.Clone(t.peers),
		Handler:   h,
		OnDeliver: opts.onDeliver,
		Storage:   opts.store,
		Logf:      t.logf,
		// The node maintains these counters directly; its Stats() and the
		// registry scrape are two views over the same atomics.
		Metrics: obs.NewRuntime(opts.reg),
	}
	switch addr, ok := t.peers[pid]; {
	case t.memory:
		cfg.Peer, cfg.Latency = t.node, t.latency
	case t.listen != "" && !t.listenUsed:
		cfg.ListenAddr, t.listenUsed = t.listen, true
	case ok:
		cfg.ListenAddr = addr
	default:
		return fmt.Errorf("wbcast: no TCP address for process %d: add a peers entry or a listen address", pid)
	}
	n, err := tcpnet.Serve(cfg)
	if err != nil {
		return err
	}
	// Depth and high water are views over the node's live queue, which
	// keeps both as it is posted to.
	opts.reg.RegisterFunc(obs.MetricMailboxDepth, "current input-queue length", obs.KindGauge,
		n.MailboxDepth)
	opts.reg.RegisterFunc(obs.MetricMailboxHighWater, "largest input-queue length observed", obs.KindGauge,
		n.MailboxHighWater)
	t.nodes.Store(pid, n)
	// Ephemeral-port fix-up: when the configured address left the port to
	// the kernel, adopt the actual bound address and teach every local node
	// about it. Remote hosts cannot learn it this way — they need real
	// addresses in their peers map.
	if prev, ok := t.peers[pid]; !t.memory && (!ok || tcpnet.HasEphemeralPort(prev)) {
		actual := n.Addr().String()
		t.peers[pid] = actual
		t.nodes.Range(func(_, other any) bool {
			other.(*tcpnet.Node).SetPeer(pid, actual)
			return true
		})
	}
	return nil
}

func (t *tcpTransport) inject(pid ProcessID, in node.Input) error {
	n := t.node(pid)
	if n == nil {
		return fmt.Errorf("wbcast: process %d is not hosted on this transport", pid)
	}
	return n.Inject(in)
}

// crash closes the process's node: over TCP it stops accepting, reading and
// writing, which is exactly what a crash-stop failure looks like to the rest
// of the cluster; in memory, sends to it become counted drops.
func (t *tcpTransport) crash(pid ProcessID) {
	t.mu.Lock()
	n, ok := t.nodes.LoadAndDelete(pid)
	if ok {
		t.closed[pid] = true
	}
	t.mu.Unlock()
	if ok {
		n.(*tcpnet.Node).Close()
	}
}

func (t *tcpTransport) stats(pid ProcessID) TransportStats {
	if n := t.node(pid); n != nil {
		return n.Stats()
	}
	return TransportStats{}
}

func (t *tcpTransport) addr(pid ProcessID) string {
	if n := t.node(pid); n != nil && n.Addr() != nil {
		return n.Addr().String()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peers[pid]
}

func (t *tcpTransport) backgroundTimers() bool { return true }

// Close implements Transport: it closes every hosted node.
func (t *tcpTransport) Close() {
	var nodes []*tcpnet.Node
	t.mu.Lock()
	t.nodes.Range(func(pid, n any) bool {
		t.nodes.Delete(pid)
		t.closed[pid.(ProcessID)] = true
		nodes = append(nodes, n.(*tcpnet.Node))
		return true
	})
	t.mu.Unlock()
	for _, n := range nodes {
		n.Close()
	}
}
