// Package harness wires protocol replicas, clients, the simulator and the
// correctness checker into ready-made clusters for integration tests and
// latency experiments. Every protocol package exposes an adapter satisfying
// Protocol, so the same random workloads, fault schedules and checks run
// against Skeen's protocol, FT-Skeen, FastCast and the white-box protocol.
package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"wbcast/internal/check"
	"wbcast/internal/client"
	"wbcast/internal/faults"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/sim"
	"wbcast/internal/wal"
)

// Protocol abstracts over the multicast implementations. Adapters are
// defined in each protocol package (structurally, without importing this
// one).
type Protocol interface {
	// Name identifies the protocol in test output.
	Name() string
	// NewReplica builds the handler for replica pid of the topology.
	NewReplica(pid mcast.ProcessID, top *mcast.Topology) (node.Handler, error)
	// Contacts returns the per-group MULTICAST targets (e.g. the initial
	// leader guess Cur_leader[g]).
	Contacts(top *mcast.Topology) func(g mcast.GroupID) []mcast.ProcessID
}

// ProtocolObs is the optional observability extension of Protocol: adapters
// that implement it receive an instrumentation handle per replica, so
// harness runs can record stage timelines and recovery events. The
// fault-tolerant adapters (core, blackbox) implement it; adapters
// without it fall back to the plain NewReplica path, untraced.
type ProtocolObs interface {
	NewReplicaObs(pid mcast.ProcessID, top *mcast.Topology, po *obs.Proto) (node.Handler, error)
}

// StorageProtocol is the optional durability extension of Protocol:
// adapters that implement it build replicas that emit persist effects for
// every crash-surviving state transition and replay a recovered state
// before joining. Options.Storage requires it — the fault-tolerant
// adapters (core, blackbox) implement it.
type StorageProtocol interface {
	NewReplicaStored(pid mcast.ProcessID, top *mcast.Topology, po *obs.Proto, rs *wal.State) (node.Handler, error)
}

// ConflictProtocol is the optional conflict-aware extension of Protocol:
// an adapter that returns a non-nil holder (core.Protocol with Generic set)
// delivers under the partial-order contract of generic multicast — only
// conflicting deliveries are mutually ordered. NewCluster switches the
// continuous monitor to partial-order mode over the holder's relation, and
// Check verifies the relaxed Ordering and per-process stamp checks against
// it. A holder without a relation means every pair conflicts (the strict
// contract still relaxed of the per-group gap check, since re-released
// slots make the delivery *sequences* diverge harmlessly).
type ConflictProtocol interface {
	Conflicts() *mcast.ConflictHolder
}

// Options configures a simulated cluster.
type Options struct {
	Groups     int
	GroupSize  int
	NumClients int
	// Latency defaults to sim.Uniform(10ms).
	Latency sim.Latency
	Seed    int64
	// Retry is the client re-multicast interval; zero disables retries.
	Retry time.Duration
	// Trace is forwarded to the simulator.
	Trace func(sim.TraceEvent)
	// Faults, when non-nil, installs a deterministic fault schedule
	// (internal/faults): crash/restart, partitions, per-link
	// drop/duplicate/delay/reorder and clock skew, fired at virtual-time or
	// message-count triggers. Pair it with timers on the Protocol adapter
	// (retries, heartbeats) — fault recovery is timer-driven.
	Faults *faults.Plan
	// Storage, when non-nil, gives every replica a durable store (the
	// protocol adapter must implement StorageProtocol): persist effects are
	// appended and synced before the sends of the same Handle call, restarts
	// rebuild the replica by replaying its store instead of resurrecting its
	// in-memory state, and a storage error crash-stops the process. Pair a
	// wal.Flaky fake with a Faults restart schedule for crash-consistency
	// chaos.
	Storage func(pid mcast.ProcessID) (wal.Storage, error)
	// CommitTime is forwarded to the simulator: how long a store's commit
	// takes in virtual time (zero: within the dispatch).
	CommitTime time.Duration
	// AppHorizon models the application core.Config.AppGCHorizon is a
	// contract with: each replica's application keeps its own delivery
	// frontier across restarts, ignores deliveries at or below it (a
	// restarted replica repeats those above the frontier it had logged),
	// and raises the protocol's GC horizon as it applies. Checks and logs
	// then see what the applications applied.
	AppHorizon bool
	// OnFault, when non-nil, receives a narration line per fired action.
	OnFault func(at time.Duration, desc string)
	// TraceSample enables message-lifecycle tracing (internal/obs): every
	// TraceSample-th message per sender is traced through its stages, with
	// recovery events and fault-injection steps interleaved. The clock is
	// the simulator's virtual time, so a seeded run's trace is
	// byte-for-byte reproducible (TestTraceDeterministic). 0 disables.
	TraceSample int
}

// Cluster is a simulated deployment of one protocol. It runs on the
// goroutine that drives its Sim and shares nothing with another Cluster
// but its Protocol adapter, so independent clusters over an adapter that is
// safe to share may run side by side (bench.FailureFree's convoy probes do).
type Cluster struct {
	Proto Protocol
	Sim   *sim.Sim
	Top   *mcast.Topology
	// Clients holds the client handlers.
	Clients  []*client.Client
	Replicas map[mcast.ProcessID]node.Handler

	// Engine is the fault engine, non-nil when Options.Faults was set.
	Engine *faults.Engine
	// Stores holds each replica's durable store when Options.Storage was
	// set; tests reach in to inspect recovered state or trip fault fakes.
	Stores map[mcast.ProcessID]wal.Storage
	// Tracer records message-lifecycle and fault events, non-nil when
	// Options.TraceSample was set. Render with obs.FormatTimeline.
	Tracer *obs.Tracer
	// Monitor checks every delivery continuously (poured by RunChecked and
	// CollectHistory).
	Monitor *check.Monitor

	hist *check.History
	// applied is what the applications applied of the deliveries the
	// replicas released, kept only with Options.AppHorizon; without it the
	// checks and logs read the simulator's log (see log).
	applied    []sim.DeliveryRecord
	appHorizon bool
	collected  int // prefix of log already poured into hist
	monitored  int // prefix already poured into Monitor
	nextSeq    uint32
	crashed    map[mcast.ProcessID]bool
	// conflicts is the partial-order conflict relation of a
	// ConflictProtocol run; nil for the total-order protocols.
	conflicts func(a, b mcast.AppMsg) bool
	// onComplete is the callback OnComplete registers, called when a
	// client's multicast completes; nil until then.
	onComplete func(id mcast.MsgID)
}

// ClientPID returns the process ID of client i (placed after all replicas).
func ClientPID(top *mcast.Topology, i int) mcast.ProcessID {
	return mcast.ProcessID(top.NumReplicas() + i)
}

// NewCluster builds a cluster: replicas per the topology, plus clients.
func NewCluster(p Protocol, opts Options) (*Cluster, error) {
	if opts.Groups <= 0 || opts.GroupSize <= 0 {
		return nil, fmt.Errorf("harness: need positive Groups and GroupSize")
	}
	if opts.NumClients <= 0 {
		opts.NumClients = 1
	}
	top := mcast.UniformTopology(opts.Groups, opts.GroupSize)
	c := &Cluster{
		Proto:      p,
		Top:        top,
		Replicas:   make(map[mcast.ProcessID]node.Handler),
		hist:       check.NewHistory(),
		crashed:    make(map[mcast.ProcessID]bool),
		appHorizon: opts.AppHorizon,
	}
	c.Monitor = check.NewMonitor(top)
	if cp, ok := p.(ConflictProtocol); ok && cp.Conflicts() != nil {
		c.conflicts = cp.Conflicts().Conflicts
		c.Monitor = check.NewPartialMonitor(top, c.conflicts)
	}
	// The trace clock is virtual time; the closure reads c.Sim, assigned
	// below, before any handler runs.
	var clock obs.Clock
	if opts.TraceSample > 0 {
		clock = func() time.Duration { return c.Sim.Now() }
		c.Tracer = obs.NewTracer(opts.TraceSample, 0, clock)
	}
	// Storage-backed restarts: sim.Restart consults Rebuild, which replays
	// the process's store into a fresh handler. The map is populated by the
	// replica loop below; the closure only runs once the simulation does.
	rebuilds := make(map[mcast.ProcessID]func() (node.Handler, error))
	simCfg := sim.Config{Latency: opts.Latency, CommitTime: opts.CommitTime, Seed: opts.Seed, Trace: opts.Trace}
	if opts.AppHorizon {
		last := make(map[mcast.ProcessID]mcast.Delivery) // the applications' frontiers
		simCfg.OnDeliver = func(p mcast.ProcessID, d mcast.Delivery) {
			prev := last[p]
			if !prev.Before(d) {
				return // a repeat at or below the application's frontier
			}
			last[p] = d
			if prev.GTS.Less(d.GTS) && !prev.GTS.IsZero() {
				// Every sub-delivery of prev's timestamp has been applied.
				c.Sim.Inject(c.Sim.Now(), p, node.GCHorizon{TS: prev.GTS})
			}
			c.applied = append(c.applied, sim.DeliveryRecord{Proc: p, At: c.Sim.Now(), D: d})
		}
	}
	if opts.Storage != nil {
		c.Stores = make(map[mcast.ProcessID]wal.Storage)
		simCfg.Rebuild = func(p mcast.ProcessID) (node.Handler, error) {
			if rb := rebuilds[p]; rb != nil {
				return rb()
			}
			return nil, nil
		}
		// A storage crash-stop counts as a crash for the Termination check
		// (a FaultPlan restart revives the process and clears the mark).
		simCfg.OnStorageCrash = func(p mcast.ProcessID, err error) { c.crashed[p] = true }
	}
	if opts.Faults != nil {
		// Fault actions land in the trace too, so a chaos timeline shows
		// crashes, partitions and heals interleaved with protocol stages.
		onFault := opts.OnFault
		if tr := c.Tracer; tr != nil {
			user := onFault
			onFault = func(at time.Duration, desc string) {
				tr.Fault(at, desc)
				if user != nil {
					user(at, desc)
				}
			}
		}
		c.Engine = faults.New(faults.Config{
			Plan:      *opts.Faults,
			OnEvent:   onFault,
			OnCrash:   func(p mcast.ProcessID) { c.crashed[p] = true },
			OnRestart: func(p mcast.ProcessID) { delete(c.crashed, p) },
		})
		simCfg.Filter = c.Engine.Filter
		simCfg.TimerScale = c.Engine.ScaleTimer
	}
	s := sim.New(simCfg)
	c.Sim = s
	if c.Engine != nil {
		c.Engine.Bind(s)
	}
	po, _ := p.(ProtocolObs)
	sp, _ := p.(StorageProtocol)
	if opts.Storage != nil && sp == nil {
		return nil, fmt.Errorf("harness: Options.Storage set but %s's adapter does not implement StorageProtocol", p.Name())
	}
	for pid := mcast.ProcessID(0); int(pid) < top.NumReplicas(); pid++ {
		var ph *obs.Proto
		if c.Tracer != nil && po != nil {
			// Trace-only handles: a nil registry keeps the metrics
			// unscrapeable but the stage events flowing into the tracer.
			ph = obs.NewProto(nil, clock, c.Tracer, pid)
		}
		var h node.Handler
		var st wal.Storage
		var err error
		switch {
		case opts.Storage != nil:
			if st, err = opts.Storage(pid); err != nil {
				return nil, fmt.Errorf("harness: storage for replica %d: %w", pid, err)
			}
			c.Stores[pid] = st
			rebuilds[pid] = func() (node.Handler, error) {
				rs, err := st.Load()
				if err != nil {
					return nil, err
				}
				return sp.NewReplicaStored(pid, top, ph, rs)
			}
			h, err = rebuilds[pid]()
		case ph != nil:
			h, err = po.NewReplicaObs(pid, top, ph)
		default:
			h, err = p.NewReplica(pid, top)
		}
		if err != nil {
			return nil, fmt.Errorf("harness: replica %d: %w", pid, err)
		}
		c.Replicas[pid] = h
		s.AddStored(h, st)
	}
	contacts := p.Contacts(top)
	complete := func(id mcast.MsgID) {
		if c.onComplete != nil {
			c.onComplete(id)
		}
	}
	for i := 0; i < opts.NumClients; i++ {
		pid := ClientPID(top, i)
		var co *obs.Client
		if c.Tracer != nil {
			co = obs.NewClient(nil, clock, c.Tracer, pid)
		}
		cl := client.New(client.Config{
			PID:           pid,
			Contacts:      contacts,
			Retry:         opts.Retry,
			RetryContacts: top.Members,
			OnComplete:    complete,
			Obs:           co,
		})
		c.Clients = append(c.Clients, cl)
		s.Add(cl)
	}
	return c, nil
}

// OnComplete registers a callback invoked when any client's multicast
// completes (replies from all destination groups received).
func (c *Cluster) OnComplete(f func(id mcast.MsgID)) { c.onComplete = f }

// Submit schedules a multicast of payload to dest from client idx at time
// at, and returns the assigned message ID.
func (c *Cluster) Submit(at time.Duration, idx int, dest mcast.GroupSet, payload []byte) mcast.MsgID {
	m := c.message(idx, dest, payload)
	c.Sim.SubmitAt(at, m.ID.Sender(), m)
	return m.ID
}

// SubmitBurst schedules multicasts of payloads[i] to dests[i] from client idx
// at time at, consumed by the client in one drain (sim.SubmitBurst), and
// returns the assigned message IDs: the client sends the ones that share a
// destination set as one batch envelope.
func (c *Cluster) SubmitBurst(at time.Duration, idx int, dests []mcast.GroupSet, payloads [][]byte) []mcast.MsgID {
	ms := make([]mcast.AppMsg, len(payloads))
	ids := make([]mcast.MsgID, len(payloads))
	for i, p := range payloads {
		ms[i] = c.message(idx, dests[i], p)
		ids[i] = ms[i].ID
	}
	c.Sim.SubmitBurst(at, c.Clients[idx].ID(), ms)
	return ids
}

// SubmitDirect records a multicast of payload to dest attributed to client
// idx, but delivers the MULTICAST message straight to the process target at
// time at, bypassing the client handler (no retries, no reply tracking).
// Scenario tests use it to hand a message to a specific leader.
func (c *Cluster) SubmitDirect(at time.Duration, idx int, dest mcast.GroupSet, payload []byte, target mcast.ProcessID) mcast.MsgID {
	m := c.message(idx, dest, payload)
	c.Sim.NoteSubmit(at, m.ID.Sender(), m)
	c.Sim.Inject(at, target, node.Recv{From: m.ID.Sender(), Msg: msgs.Multicast{M: m}})
	return m.ID
}

// message assigns client idx's next message and records its submission for
// the checks.
func (c *Cluster) message(idx int, dest mcast.GroupSet, payload []byte) mcast.AppMsg {
	cl := c.Clients[idx].ID()
	c.nextSeq++
	m := mcast.AppMsg{ID: mcast.MakeMsgID(cl, c.nextSeq), Dest: dest, Payload: payload}
	c.hist.AddSubmit(cl, m)
	c.Monitor.NoteSubmit(cl, m)
	return m
}

// Crash crashes process pid at the current simulation time and records it
// for the Termination check.
func (c *Cluster) Crash(pid mcast.ProcessID) {
	c.crashed[pid] = true
	c.Sim.Crash(pid)
}

// Restart brings a crashed process back (crash-recovery with durable
// state, sim.Restart) and marks it correct again: the Termination check
// requires it to deliver everything from then on.
func (c *Cluster) Restart(pid mcast.ProcessID) {
	delete(c.crashed, pid)
	c.Sim.Restart(pid)
}

// RandomWorkload submits n messages at random times within window, each to a
// uniformly random non-empty destination set of size ≤ maxDest, from random
// clients.
func (c *Cluster) RandomWorkload(rng *rand.Rand, n int, maxDest int, window time.Duration) []mcast.MsgID {
	maxDest = min(maxDest, c.Top.NumGroups())
	ids := make([]mcast.MsgID, 0, n)
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(maxDest)
		perm := rng.Perm(c.Top.NumGroups())[:k]
		gs := make([]mcast.GroupID, k)
		for j, g := range perm {
			gs[j] = mcast.GroupID(g)
		}
		at := time.Duration(rng.Int63n(int64(window) + 1))
		idx := rng.Intn(len(c.Clients))
		ids = append(ids, c.Submit(at, idx, mcast.NewGroupSet(gs...), []byte(fmt.Sprintf("msg-%d", i))))
	}
	return ids
}

// CollectHistory pours the simulator's delivery records into the checker
// history and the continuous monitor. It is idempotent: repeated calls
// only append new records.
func (c *Cluster) CollectHistory() *check.History {
	ds := c.log()
	for _, d := range ds[c.monitored:] {
		c.Monitor.NoteDelivery(d.Proc, d.D)
	}
	c.monitored = len(ds)
	return c.history()
}

// history pours the records into the checker history alone: Check reads
// nothing of the Monitor, so a run that only ends in Check never feeds it.
func (c *Cluster) history() *check.History {
	ds := c.log()
	for _, d := range ds[c.collected:] {
		c.hist.AddDelivery(d.Proc, d.D)
	}
	c.collected = len(ds)
	return c.hist
}

// log is what the checks and logs run on: every delivery the replicas
// released, or with Options.AppHorizon what their applications applied of
// them.
func (c *Cluster) log() []sim.DeliveryRecord {
	if c.appHorizon {
		return c.applied
	}
	return c.Sim.Deliveries()
}

// RunChecked advances virtual time to until in slices of step, pouring
// every new delivery into the continuous invariant monitor (and the
// history, CollectHistory) after each slice. It stops early and returns
// the violations as soon as any invariant breaks, so a chaos failure is
// pinned near the virtual time it occurred; nil means the run reached
// until with every check green.
func (c *Cluster) RunChecked(until, step time.Duration) []error {
	if step <= 0 {
		step = 10 * time.Millisecond
	}
	for c.Sim.Now() < until {
		c.Sim.Run(min(c.Sim.Now()+step, until))
		c.CollectHistory()
		if errs := c.Monitor.Errs(); len(errs) > 0 {
			return errs
		}
	}
	return nil
}

// DeliveryLog renders every delivery observed so far as one canonical text
// line per delivery, in processing order. Two runs of the same seeded
// schedule must produce byte-identical logs — the reproducibility contract
// of the chaos harness (TestChaosDeterministic).
func (c *Cluster) DeliveryLog() []byte {
	var b strings.Builder
	for _, d := range c.log() {
		fmt.Fprintf(&b, "t=%d p%d %v gts=(%d,g%d) sub=%d payload=%q\n",
			int64(d.At), d.Proc, d.D.Msg.ID, d.D.GTS.Time, d.D.GTS.Group, d.D.Sub, d.D.Msg.Payload)
	}
	return []byte(b.String())
}

// TraceLog renders the recorded message-lifecycle trace as the canonical
// timeline, one line per event in recording order. Like DeliveryLog, two
// runs of the same seeded schedule must produce byte-identical trace logs
// (TestTraceDeterministic) — the tracer samples by sequence number and
// timestamps by virtual time, never by RNG or wall clock.
func (c *Cluster) TraceLog() []byte {
	return []byte(obs.FormatTimeline(c.Tracer.Events()))
}

// Check runs the full correctness check (with GTS checks on) and the
// genuineness audit, returning all violations.
func (c *Cluster) Check(atQuiescence bool) []error {
	errs := c.history().Check(check.Config{
		Topology:     c.Top,
		Crashed:      c.crashed,
		AtQuiescence: atQuiescence,
		CheckGTS:     true,
		Conflicts:    c.conflicts,
	})
	return append(errs, c.Sim.AuditGenuineness(c.Top)...)
}

// DeliveryLatency returns, for message id, the latency from its submission
// to its first delivery in group g (the paper's per-group delivery latency).
func (c *Cluster) DeliveryLatency(id mcast.MsgID, g mcast.GroupID) (time.Duration, bool) {
	sub, ok := c.Sim.SubmitTime(id)
	if !ok {
		return 0, false
	}
	at, ok := c.Sim.FirstDelivery(c.Top, id, g)
	if !ok {
		return 0, false
	}
	return at - sub, true
}

// MaxDeliveryLatency returns the maximum over dest groups of the first
// delivery latency of id — the paper's "delivery latency with respect to
// all groups in dest(m)".
func (c *Cluster) MaxDeliveryLatency(id mcast.MsgID, dest mcast.GroupSet) (time.Duration, bool) {
	var worst time.Duration
	for _, g := range dest {
		l, ok := c.DeliveryLatency(id, g)
		if !ok {
			return 0, false
		}
		worst = max(worst, l)
	}
	return worst, true
}
