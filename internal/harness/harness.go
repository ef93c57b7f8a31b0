// Package harness wires protocol replicas, clients, the simulator and the
// safety checker (check.Monitor) into ready-made clusters for integration
// tests and latency experiments. Every entry of the protocol table
// (internal/protocols) is a Builder, so the same random workloads, fault
// schedules and checks run against Skeen's protocol, FT-Skeen, FastCast, the
// white-box protocol and its conflict-aware mode, each replica built by the
// table's one constructor.
package harness

import (
	"fmt"
	"math/rand"
	"slices"
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

// Protocol is a multicast implementation as the harness runs it. Clients
// contact each group's initial leader (the Cur_leader guess of the paper's
// Fig. 4), which for Skeen's singleton groups is their one member.
type Protocol interface {
	// Name identifies the protocol in test output.
	Name() string
	// NewReplica builds the handler for replica pid of the topology,
	// volatile and untraced.
	NewReplica(pid mcast.ProcessID, top *mcast.Topology) (node.Handler, error)
}

// Builder is the optional extension of Protocol through which NewCluster
// builds every replica with one call — traced (Options.TraceSample),
// durable (Options.Storage), under an application horizon
// (Options.AppHorizon) — and rebuilds a durable one on restart. Every
// protocol of internal/protocols implements it; a Protocol without it runs
// volatile and untraced.
type Builder interface {
	// New builds replica pid: po instruments it (nil: untraced); rs, when
	// non-nil, makes it durable, replaying rs before it joins; appHorizon
	// is core.Config.AppGCHorizon.
	New(pid mcast.ProcessID, top *mcast.Topology, po *obs.Proto, rs *wal.State, appHorizon bool) (node.Handler, error)
	// Conflicts returns the holder of a conflict-aware protocol's relation,
	// nil for the total-order contract. With a holder, NewCluster checks
	// deliveries under the partial-order contract of generic multicast:
	// only conflicting deliveries are mutually ordered. A holder without a
	// relation means every pair conflicts (the strict contract still
	// relaxed of the per-group gap check, since re-released slots make the
	// delivery *sequences* diverge harmlessly).
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
	// message-count triggers. Pair it with a Protocol that runs timers
	// (retries, heartbeats) — fault recovery is timer-driven.
	Faults *faults.Plan
	// Storage, when non-nil, gives every replica a durable store (the
	// Protocol must be a Builder): persist effects are appended and synced
	// before the sends of the same Handle call, restarts rebuild the replica
	// by replaying its store instead of resurrecting its in-memory state,
	// and a storage error crash-stops the process. Pair a wal.Flaky fake
	// with a Faults restart schedule for crash-consistency chaos.
	Storage func(pid mcast.ProcessID) (wal.Storage, error)
	// CommitTime is forwarded to the simulator: how long a store's commit
	// takes in virtual time (zero: within the dispatch).
	CommitTime time.Duration
	// AppHorizon sets core.Config.AppGCHorizon on every replica (of a
	// Builder) and models the application that flag is a contract with:
	// each replica's application keeps its own delivery frontier across
	// restarts, ignores deliveries at or below it (a restarted replica
	// repeats those above the frontier it had logged), and raises the
	// protocol's GC horizon as it applies. Checks and logs then see what the
	// applications applied.
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
//
// The simulator owns each process's state: its live handler (Replica) and
// whether it is down (Sim.Crashed). Check reads the latter at the end of a
// run, whoever crashed or restarted the process: Crash, a FaultPlan
// action, or a failing store.
type Cluster struct {
	Sim *sim.Sim
	Top *mcast.Topology
	// Clients holds the client handlers.
	Clients []*client.Client

	// Engine is the fault engine, non-nil when Options.Faults was set.
	Engine *faults.Engine
	// Stores holds each replica's durable store when Options.Storage was
	// set; tests reach in to inspect recovered state or trip fault fakes.
	Stores map[mcast.ProcessID]wal.Storage
	// Tracer records message-lifecycle and fault events, non-nil when
	// Options.TraceSample was set. Render with obs.FormatTimeline.
	Tracer *obs.Tracer
	// Monitor checks every delivery as it is poured in (by RunChecked and
	// CollectHistory) and the whole run at Check.
	Monitor *check.Monitor

	// applied is what the applications applied of the deliveries the
	// replicas released, kept only with Options.AppHorizon; without it the
	// checks and logs read the simulator's log (see log).
	applied    []sim.DeliveryRecord
	appHorizon bool
	monitored  int // prefix of log already poured into Monitor
	nextSeq    uint32
	// onComplete is the callback OnComplete registers, called when a
	// client's multicast completes; nil until then.
	onComplete func(id mcast.MsgID)
	// gcErrs are the GC oracle's violations (checkPrune); inFlight holds
	// the pruned messages whose client was still waiting for replies.
	gcErrs   []error
	inFlight map[mcast.MsgID]bool
}

// collector is a replica whose garbage collection the harness checks as it
// happens (core.Replica).
type collector interface {
	OnPrune(func(mcast.AppMsg))
	Undelivered(mcast.MsgID) bool
}

// checkPrune is the GC oracle, run as replica p discards m. Its premise is
// that every member of m's destination groups has delivered m: a live one
// that still holds m undelivered could later retry m as new, and a
// destination that had pruned it would order it again. That is a violation.
// A client that still waits for m may re-send it too; that is counted
// (PrunedInFlight), not failed.
func (c *Cluster) checkPrune(p mcast.ProcessID, m mcast.AppMsg) {
	for _, g := range m.Dest {
		for _, q := range c.Top.Members(g) {
			if col, ok := c.Sim.Handler(q).(collector); ok && !c.Sim.Crashed(q) && col.Undelivered(m.ID) {
				c.gcErrs = append(c.gcErrs, fmt.Errorf("gc: p%d pruned %v at t=%v while live p%d holds it undelivered", p, m.ID, c.Sim.Now(), q))
			}
		}
	}
	if i := int(m.ID.Sender()) - c.Top.NumReplicas(); i >= 0 && i < len(c.Clients) && c.Clients[i].Awaiting(m.ID) {
		c.inFlight[m.ID] = true
	}
}

// PrunedInFlight returns how many messages a replica pruned while their
// client still waited for replies and could re-send them.
func (c *Cluster) PrunedInFlight() int { return len(c.inFlight) }

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
	c := &Cluster{Top: top, appHorizon: opts.AppHorizon, inFlight: make(map[mcast.MsgID]bool)}
	b, _ := p.(Builder)
	if opts.Storage != nil && b == nil {
		return nil, fmt.Errorf("harness: Options.Storage set but %s is not a Builder", p.Name())
	}
	var conflicts func(a, b mcast.AppMsg) bool
	if b != nil && b.Conflicts() != nil {
		conflicts = b.Conflicts().Conflicts
	}
	c.Monitor = check.NewMonitor(top.GroupOf, conflicts)
	// The trace clock is virtual time; the closure reads c.Sim, assigned
	// below, before any handler runs.
	var clock obs.Clock
	if opts.TraceSample > 0 {
		clock = func() time.Duration { return c.Sim.Now() }
		c.Tracer = obs.NewTracer(opts.TraceSample, clock)
	}
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
	}
	if opts.Faults != nil {
		c.Engine = faults.New(faults.Config{Plan: *opts.Faults, Tracer: c.Tracer, OnEvent: opts.OnFault})
		simCfg.Filter = c.Engine.Filter
		simCfg.TimerScale = c.Engine.ScaleTimer
	}
	s := sim.New(simCfg)
	c.Sim = s
	if c.Engine != nil {
		c.Engine.Bind(s)
	}
	for pid := mcast.ProcessID(0); int(pid) < top.NumReplicas(); pid++ {
		var ph *obs.Proto
		if c.Tracer != nil && b != nil {
			// Trace-only handles: a nil registry keeps the metrics
			// unscrapeable but the stage events flowing into the tracer.
			ph = obs.NewProto(nil, clock, c.Tracer, pid)
		}
		var st wal.Storage
		if opts.Storage != nil {
			var err error
			if st, err = opts.Storage(pid); err != nil {
				return nil, fmt.Errorf("harness: storage for replica %d: %w", pid, err)
			}
			c.Stores[pid] = st
		}
		// build makes the replica, durable ones from what their store
		// holds; the simulator calls it again on a restart, so a restarted
		// replica recovers from its store instead of from leftover RAM.
		build := func() (h node.Handler, err error) {
			if b == nil {
				h, err = p.NewReplica(pid, top)
			} else {
				var rs *wal.State
				if st != nil {
					if rs, err = st.Load(); err != nil {
						return nil, err
					}
				}
				h, err = b.New(pid, top, ph, rs, opts.AppHorizon)
			}
			if col, ok := h.(collector); ok {
				col.OnPrune(func(m mcast.AppMsg) { c.checkPrune(pid, m) })
			}
			return h, err
		}
		h, err := build()
		if err != nil {
			return nil, fmt.Errorf("harness: replica %d: %w", pid, err)
		}
		if st == nil {
			build = nil // a volatile restart keeps the handler: a long pause
		}
		s.AddStored(h, st, build)
	}
	contacts := func(g mcast.GroupID) []mcast.ProcessID { return []mcast.ProcessID{top.InitialLeader(g)} }
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
	c.Monitor.NoteSubmit(cl, m)
	return m
}

// Replica returns replica pid's live handler: after a durable restart, the
// one rebuilt from its store.
func (c *Cluster) Replica(pid mcast.ProcessID) node.Handler { return c.Sim.Handler(pid) }

// Crash crashes process pid at the current simulation time (Sim.Crash).
func (c *Cluster) Crash(pid mcast.ProcessID) { c.Sim.Crash(pid) }

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

// CollectHistory pours the delivery records not yet seen into the
// Monitor and returns how many it has seen in all. Repeated calls only
// pour new records.
func (c *Cluster) CollectHistory() int {
	ds := c.log()
	for _, d := range ds[c.monitored:] {
		c.Monitor.NoteDelivery(d.Proc, d.D)
	}
	c.monitored = len(ds)
	return c.monitored
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
// every new delivery into the Monitor (CollectHistory) after each slice.
// It stops early and returns the violations as soon as any invariant
// breaks, so a chaos failure is pinned near the virtual time it occurred;
// nil means the run reached until with every check green.
func (c *Cluster) RunChecked(until, step time.Duration) []error {
	if step <= 0 {
		step = 10 * time.Millisecond
	}
	for c.Sim.Now() < until {
		c.Sim.Run(min(c.Sim.Now()+step, until))
		c.CollectHistory()
		if errs := slices.Concat(c.Monitor.Errs(), c.gcErrs); len(errs) > 0 {
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

// Check pours the deliveries not yet seen into the Monitor and returns
// every violation of the run: the Monitor's (with Termination when
// atQuiescence; the processes Sim.Crashed reports down now are exempt) and
// the genuineness audit's.
func (c *Cluster) Check(atQuiescence bool) []error {
	c.CollectHistory()
	var members func(mcast.GroupID) []mcast.ProcessID
	if atQuiescence {
		members = c.Top.Members
	}
	crashed := make(map[mcast.ProcessID]bool)
	for pid := range mcast.ProcessID(c.Top.NumReplicas() + len(c.Clients)) {
		if c.Sim.Crashed(pid) {
			crashed[pid] = true
		}
	}
	return slices.Concat(c.Monitor.Check(members, crashed), c.gcErrs, c.Sim.AuditGenuineness(c.Top))
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
