package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"wbcast/internal/batch"
	"wbcast/internal/client"
	"wbcast/internal/kvstore"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/tcpnet"
	"wbcast/internal/wal"
	"wbcast/kv"
)

// The traced run: the same 3×3 topology on TCP loopback, assembled here from
// the layers' exported constructors so that a timing wrapper sits on every
// boundary — core.Protocol's replica behind a node.Handler wrapper, served
// by tcpnet with a wal.Storage wrapper and an OnDeliver that feeds a
// kvstore.Engine through a subscription-sized queue, and a client built from
// internal/client plus a response hub like kv's. No file of the program
// under test is edited; the price is that this stack is a reassembly of the
// public one, not the public one itself (trace.overhead_frac says how far
// its throughput is from the untraced run).

// spanKind names a span; a number rather than a string so that a span holds
// no pointer and the millions recorded in a window cost the garbage
// collector nothing to scan.
type spanKind uint8

const (
	spanOp              spanKind = iota // root: client call → return; its ID is the MsgID
	spanHandle                          // one Handle call of a replica
	spanHandleMulticast                 // a Handle call whose input is a MULTICAST
	spanDeliver                         // zero-length marker: the Handle call that released a delivery returned
	spanWalAppend
	spanWalSync
	spanResidence // delivering Handle call's return → the engine starts applying
	spanApply     // Engine.Apply
	spanReply     // the hub completes the call → the client call returns
	spanBudget    // the first of the four derived budget segments
)

var spanNames = [...]string{
	"op", "core.handle", "core.handle.multicast", "core.deliver", "wal.append", "wal.sync",
	"delivery.residence", "kvstore.apply", "kv.reply",
	"budget.submit_to_leader", "budget.order", "budget.deliver_to_apply", "budget.apply_to_reply",
}

// segNames are the four consecutive segments of the latency budget.
var segNames = spanNames[spanBudget:]

// span is one timed interval at a layer boundary. Spans of one operation
// share Op (its MsgID); Parent is the span that caused this one.
type span struct {
	Start, End int64 // ns since the trace epoch
	ID, Parent uint64
	Op         uint64
	Proc       int16
	Kind       spanKind
	// Persists is, on a Handle span, how many entries the call asked the
	// runtime to persist before releasing its effects (capped at 255).
	Persists uint8
}

// spanLog collects the spans of one goroutine; logs are merged when the run
// ends. IDs are unique across logs (the log's index is their high part) and
// never collide with a root span, whose ID is its operation's MsgID. Spans
// are kept in fixed-size chunks: a shard loop records a million of them in a
// window, and one slice growing by doubling would stop the loop for tens of
// milliseconds at each copy — a stall of the tracer's own making in the
// latencies it measures.
type spanLog struct {
	t      *tracer
	proc   int16
	base   uint64
	n      uint64
	chunks [][]span
}

const spanChunk = 1 << 14

type tracer struct {
	epoch     time.Time
	recording atomic.Bool
	mu        sync.Mutex
	logs      []*spanLog
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newLog(proc mcast.ProcessID) *spanLog {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &spanLog{t: t, proc: int16(proc), base: uint64(len(t.logs)+1) << 44}
	t.logs = append(t.logs, l)
	return l
}

// reserve returns the ID of a span that add will record later, so that the
// spans it causes in the meantime can name it as their parent.
func (l *spanLog) reserve() uint64 {
	l.n++
	return l.base | l.n
}

// add records s (when the tracer is recording) and returns its ID.
func (l *spanLog) add(s span) uint64 {
	if !l.t.recording.Load() {
		return 0
	}
	if s.ID == 0 {
		s.ID = l.reserve()
	}
	s.Proc = l.proc
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1]) == spanChunk {
		l.chunks = append(l.chunks, make([]span, 0, spanChunk))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, s)
	return s.ID
}

// tracedReplica is one replica of the assembled stack.
type tracedReplica struct {
	pid   mcast.ProcessID
	group mcast.GroupID
	inner node.Handler
	node  *tcpnet.Node
	eng   *kvstore.Engine
	store *lockedStore // nil when volatile
	queue chan queued  // the delivery subscription: OnDeliver → engine
	done  chan struct{}

	shardLog *spanLog // written by the shard loop only
	applyLog *spanLog // written by the engine goroutine only
	// lastHandle is the span of the Handle call whose effects the shard loop
	// is applying; OnDeliver and the shard-side store calls hang off it.
	lastHandle    uint64
	lastHandleEnd int64
	applying      uint64 // the kvstore.apply span in progress (engine goroutine)
	applyMarker   uint64 // the core.deliver span of the delivery being applied
}

type queued struct {
	d       mcast.Delivery
	marker  uint64 // the core.deliver span that released it
	release int64  // when the delivering Handle call returned
}

func (r *tracedReplica) ID() mcast.ProcessID { return r.pid }

// Handle times one call of the protocol state machine. A delivery the call
// releases gets a zero-length core.deliver marker at the call's end: the
// third timestamp of the latency budget.
func (r *tracedReplica) Handle(in node.Input, fx *node.Effects) {
	var op uint64
	kind := spanHandle
	if rcv, ok := in.(node.Recv); ok {
		if c, ok := rcv.Msg.(msgs.Concerner); ok {
			if id, ok := c.Concerns(); ok {
				op = uint64(id)
			}
		}
		if _, ok := rcv.Msg.(msgs.Multicast); ok {
			kind = spanHandleMulticast
		}
	}
	start := r.shardLog.t.now()
	r.inner.Handle(in, fx)
	end := r.shardLog.t.now()
	r.lastHandleEnd = end
	r.lastHandle = r.shardLog.add(span{Kind: kind, Start: start, End: end, Op: op, Parent: op, Persists: uint8(min(len(fx.Persists), 255))})
}

func (r *tracedReplica) onDeliver(d mcast.Delivery) {
	marker := r.shardLog.add(span{
		Kind: spanDeliver, Start: r.lastHandleEnd, End: r.lastHandleEnd,
		Op: uint64(d.Msg.ID), Parent: r.lastHandle,
	})
	r.queue <- queued{d: d, marker: marker, release: r.lastHandleEnd}
}

// applyLoop is the engine side of the delivery queue, as kv's shard loop is
// of its subscription.
func (r *tracedReplica) applyLoop() {
	defer close(r.done)
	for q := range r.queue {
		t := r.applyLog.t
		start := t.now()
		op := uint64(q.d.Msg.ID)
		r.applyLog.add(span{Kind: spanResidence, Start: q.release, End: start, Op: op, Parent: q.marker})
		r.applying, r.applyMarker = r.applyLog.reserve(), q.marker
		r.eng.Apply(q.d)
		r.applyLog.add(span{Kind: spanApply, ID: r.applying, Start: start, End: t.now(), Op: op, Parent: q.marker})
	}
}

// lockedStore serialises the store between the shard loop and the engine
// goroutine, as the root package's lockedStorage does.
type lockedStore struct {
	mu    sync.Mutex
	inner wal.Storage
}

// storeView is the store as one goroutine sees it: calls are recorded in
// that goroutine's log under the span that caused them.
type storeView struct {
	s      *lockedStore
	log    *spanLog
	parent *uint64
}

func (v storeView) Load() (*wal.State, error) { return v.s.inner.Load() }
func (v storeView) Snapshot() error           { return v.s.inner.Snapshot() }
func (v storeView) Close() error              { return nil } // the stack closes the inner store once

func (v storeView) Append(entries ...wal.Entry) error {
	start := v.log.t.now()
	v.s.mu.Lock()
	err := v.s.inner.Append(entries...)
	v.s.mu.Unlock()
	v.log.add(span{Kind: spanWalAppend, Start: start, End: v.log.t.now(), Parent: *v.parent})
	return err
}

func (v storeView) Sync() error {
	start := v.log.t.now()
	v.s.mu.Lock()
	err := v.s.inner.Sync()
	v.s.mu.Unlock()
	v.log.add(span{Kind: spanWalSync, Start: start, End: v.log.t.now(), Parent: *v.parent})
	return err
}

// appPersister is what wbcast.Replica is to a durable kv engine: applied
// records go to the replica's WAL as app entries, synced before the engine
// answers.
type appPersister struct{ v storeView }

func (p appPersister) AppendAppState(recs ...[]byte) error {
	entries := make([]wal.Entry, len(recs))
	for i, rec := range recs {
		entries[i] = wal.Entry{Kind: wal.EntryApp, App: rec}
	}
	if err := p.v.Append(entries...); err != nil {
		return err
	}
	return p.v.Sync()
}

func (p appPersister) SaveAppSnapshot([]byte) error { return nil } // SnapshotEvery is 0

// tracedHub matches engine results to waiting calls, like kv's hub: the
// first result per addressed shard counts, and the call completes when
// every addressed shard has answered.
type tracedHub struct {
	t     *tracer
	mu    sync.Mutex
	calls map[mcast.MsgID]*tracedCall
}

type tracedCall struct {
	need   map[mcast.GroupID]bool
	done   chan struct{}
	doneAt int64  // when the last addressed shard's first result arrived
	marker uint64 // the core.deliver span of the delivery that produced it
}

func (h *tracedHub) register(id mcast.MsgID, dest mcast.GroupSet) *tracedCall {
	c := &tracedCall{need: make(map[mcast.GroupID]bool, len(dest)), done: make(chan struct{})}
	for _, g := range dest {
		c.need[g] = true
	}
	h.mu.Lock()
	h.calls[id] = c
	h.mu.Unlock()
	return c
}

func (h *tracedHub) cancel(id mcast.MsgID) {
	h.mu.Lock()
	delete(h.calls, id)
	h.mu.Unlock()
}

// dispatch routes one engine result; marker is the core.deliver span of the
// delivery it came from.
func (h *tracedHub) dispatch(r kvstore.Resp, marker uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c, ok := h.calls[r.ID]
	if !ok || !c.need[r.Group] {
		return
	}
	delete(c.need, r.Group)
	if len(c.need) == 0 {
		delete(h.calls, r.ID)
		c.doneAt, c.marker = h.t.now(), marker
		close(c.done)
	}
}

// tracedClient is one client process: a protocol client handler on its own
// TCP node plus the kv client's encode-route-wait logic.
type tracedClient struct {
	pid  mcast.ProcessID
	node *tcpnet.Node
	hub  *tracedHub
	seq  atomic.Uint32
	mu   sync.Mutex
	log  *spanLog // callers share it under mu
}

func (c *tracedClient) do(ctx context.Context, op kv.Op) error {
	part := kv.HashPartitioner{}
	var groups []mcast.GroupID
	for _, sub := range op.Flatten() {
		groups = append(groups, mcast.GroupID(part.Shard(sub.Key, numGroups)))
	}
	dest := mcast.NewGroupSet(groups...)
	id := mcast.MakeMsgID(c.pid, c.seq.Add(1))
	t := c.hub.t
	start := t.now()
	call := c.hub.register(id, dest)
	m := mcast.AppMsg{ID: id, Dest: dest, Payload: kvstore.EncodeOp(nil, op)}
	if err := c.node.Inject(node.Submit{Msg: m}); err != nil {
		c.hub.cancel(id)
		return err
	}
	select {
	case <-call.done:
	case <-ctx.Done():
		c.hub.cancel(id)
		return ctx.Err()
	}
	end := t.now()
	c.mu.Lock()
	// The root span of the operation; its ID is the MsgID every other span
	// of the operation carries. kv.reply is the hub's completion up to the
	// caller's return; what caused it is the delivery whose result
	// completed the call.
	c.log.add(span{Kind: spanOp, ID: uint64(id), Start: start, End: end, Op: uint64(id)})
	c.log.add(span{Kind: spanReply, Start: call.doneAt, End: end, Op: uint64(id), Parent: call.marker})
	c.mu.Unlock()
	return nil
}

// tracedStack is the assembled deployment.
type tracedStack struct {
	t        *tracer
	top      *mcast.Topology
	replicas []*tracedReplica
	clients  []*tracedClient
	walC     *walCounters
	dir      string
}

func setupTraced(spec kvSpec, dataDir string) (*tracedStack, error) {
	ts := &tracedStack{
		t:    &tracer{epoch: time.Now()},
		top:  mcast.UniformTopology(numGroups, numReplicas),
		walC: &walCounters{},
	}
	clock := func() time.Duration { return time.Since(ts.t.epoch) }
	hub := &tracedHub{t: ts.t, calls: make(map[mcast.MsgID]*tracedCall)}
	proto := liveProtocol()
	proto.AppGCHorizon = spec.durable
	part := kv.HashPartitioner{}
	var err error
	if spec.durable {
		if err = os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
		if ts.dir, err = os.MkdirTemp(dataDir, "wal-"); err != nil {
			return nil, err
		}
	}
	for pid := mcast.ProcessID(0); int(pid) < ts.top.NumReplicas(); pid++ {
		g := ts.top.GroupOf(pid)
		r := &tracedReplica{
			pid: pid, group: g,
			queue:    make(chan queued, 1024), // kv's default subscription buffer
			done:     make(chan struct{}),
			shardLog: ts.t.newLog(pid), applyLog: ts.t.newLog(pid),
		}
		go r.applyLoop() // r.eng is set before the first delivery can arrive
		ts.replicas = append(ts.replicas, r)
		reg := obs.NewRegistry(fmt.Sprintf(`proc="%d"`, pid))
		var rs *wal.State
		var shardStore wal.Storage
		var persist kvstore.Persister
		var onDurable func(mcast.Timestamp)
		if spec.durable {
			cs, err := openCostStore(ts.dir, pid, ts.walC)
			if err != nil {
				ts.close()
				return nil, err
			}
			cs.SetMetrics(obs.NewStore(reg))
			r.store = &lockedStore{inner: cs}
			if rs, err = cs.Load(); err != nil {
				ts.close()
				return nil, err
			}
			shardStore = storeView{s: r.store, log: r.shardLog, parent: &r.lastHandle}
			persist = appPersister{storeView{s: r.store, log: r.applyLog, parent: &r.applying}}
			onDurable = func(gts mcast.Timestamp) {
				_ = r.node.Inject(node.GCHorizon{TS: gts}) // advisory, as Replica.AdvanceGCHorizon
			}
		}
		if r.inner, err = proto.NewReplicaStored(pid, ts.top, obs.NewProto(reg, clock, nil, pid), rs); err != nil {
			ts.close()
			return nil, err
		}
		r.eng = kvstore.NewEngine(kvstore.EngineConfig{
			Group: g, PID: pid,
			Owns:              func(key []byte) bool { return part.Shard(key, numGroups) == int(g) },
			OnResult:          func(resp kvstore.Resp) { hub.dispatch(resp, r.applyMarker) },
			Persist:           persist,
			OnDurableFrontier: onDurable,
			Registry:          obs.NewRegistry(fmt.Sprintf(`proc="%d"`, pid)),
		})
		if r.node, err = tcpnet.Serve(tcpnet.Config{
			PID: pid, ListenAddr: "127.0.0.1:0",
			Handler: r, Storage: shardStore, OnDeliver: r.onDeliver,
			Metrics: obs.NewRuntime(reg),
		}); err != nil {
			ts.close()
			return nil, err
		}
	}
	for i := 0; i < numClients; i++ {
		pid := mcast.ProcessID(ts.top.NumReplicas() + i)
		reg := obs.NewRegistry(fmt.Sprintf(`proc="%d"`, pid))
		h := batch.NewHandler(client.Config{
			PID:           pid,
			Contacts:      func(g mcast.GroupID) []mcast.ProcessID { return []mcast.ProcessID{ts.top.InitialLeader(g)} },
			RetryContacts: func(g mcast.GroupID) []mcast.ProcessID { return ts.top.Members(g) },
			Retry:         50 * delta,
			Obs:           obs.NewClient(reg, clock, nil, pid),
		}, nil)
		n, err := tcpnet.Serve(tcpnet.Config{PID: pid, ListenAddr: "127.0.0.1:0", Handler: h, Metrics: obs.NewRuntime(reg)})
		if err != nil {
			ts.close()
			return nil, err
		}
		ts.clients = append(ts.clients, &tracedClient{pid: pid, node: n, hub: hub, log: ts.t.newLog(pid)})
	}
	// Every node bound an ephemeral port; share the address book before any
	// traffic flows (peers are dialled lazily).
	nodes := ts.nodes()
	for _, a := range nodes {
		for pid, b := range nodes {
			a.SetPeer(pid, b.Addr().String())
		}
	}
	return ts, nil
}

// nodes returns the TCP node of every process that has one.
func (ts *tracedStack) nodes() map[mcast.ProcessID]*tcpnet.Node {
	m := make(map[mcast.ProcessID]*tcpnet.Node)
	for _, r := range ts.replicas {
		if r.node != nil {
			m[r.pid] = r.node
		}
	}
	for _, c := range ts.clients {
		m[c.pid] = c.node
	}
	return m
}

func (ts *tracedStack) doers() []doer {
	ds := make([]doer, len(ts.clients))
	for i, c := range ts.clients {
		ds[i] = c
	}
	return ds
}

func (ts *tracedStack) close() {
	for _, n := range ts.nodes() {
		n.Close()
	}
	for _, r := range ts.replicas {
		close(r.queue)
		<-r.done
		if r.store != nil {
			r.store.inner.Close()
		}
	}
	ts.replicas, ts.clients = nil, nil
	if ts.dir != "" {
		os.RemoveAll(ts.dir)
	}
}

func (ts *tracedStack) gate() error {
	return gate(func() (map[int][]shardState, error) {
		byShard := make(map[int][]shardState)
		for _, r := range ts.replicas {
			if err := r.eng.Err(); err != nil {
				return nil, err
			}
			gts, sub := r.eng.Frontier()
			applied, _, _ := r.eng.Counters()
			g := int(r.group)
			byShard[g] = append(byShard[g], shardState{digest: r.eng.Digest(), gts: gts, sub: sub, applied: applied})
		}
		return byShard, nil
	})
}

// tracedResult is what the traced run derives from its spans.
type tracedResult struct {
	gateErr error
	opsPerS float64
	ops     int // operations answered in the window
	// budget: the four consecutive segments of every operation that has all
	// five timestamps, in µs. Their means sum to meanLatUs exactly.
	budgetOps int
	segMean   [4]float64
	segMedian [4]float64
	meanLatUs float64
	skipped   int // operations without a complete set of timestamps

	handleCalls, persistCalls int
	handleUsMean              float64
	handleBusyFrac            float64
	residenceUsMean           float64
	applyUsMean               float64
	spans                     int
}

// runTraced runs spec on the assembled stack for window (after a warm-up of
// a tenth of it), recording spans during the window only.
func runTraced(spec kvSpec, o runOpts, window time.Duration) (*tracedResult, error) {
	ts, err := setupTraced(spec, o.dataDir)
	if err != nil {
		return nil, err
	}
	defer ts.close()
	wl, err := newWorkload(spec)
	if err != nil {
		return nil, err
	}
	warm := window / 10
	l := startLoad(ts.doers(), wl, o.seed, warm+window)
	time.Sleep(time.Until(l.start.Add(warm)))
	from := ts.t.now()
	ts.t.recording.Store(true)
	time.Sleep(time.Until(l.start.Add(warm + window)))
	ts.t.recording.Store(false)
	to := ts.t.now()
	l.finish()
	tr := &tracedResult{}
	if l.failed > 0 {
		tr.gateErr = fmt.Errorf("%d of %d operations failed: %v", l.failed, l.attempted, l.firstErr)
		return tr, nil
	}
	if tr.gateErr = ts.gate(); tr.gateErr != nil {
		return tr, nil
	}
	tr.opsPerS = l.window(warm, warm+window).opsPerS
	// Stop the stack before reading the logs: every goroutine that wrote
	// them has exited.
	logs := ts.t.logs
	ts.close()
	var recorded [][]span
	for _, lg := range logs {
		recorded = append(recorded, lg.chunks...)
	}
	for _, chunk := range recorded {
		tr.spans += len(chunk)
	}
	derived := tr.derive(recorded, ts.top, from, to)
	tr.spans += len(derived)
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, append(recorded, derived)); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// derive computes the per-layer numbers from the recorded spans and returns
// the four budget spans of every complete operation.
func (tr *tracedResult) derive(logs [][]span, top *mcast.Topology, from, to int64) []span {
	type stamps struct{ t0, t1, t2, t3, t4 int64 }
	leader := make(map[int16]bool)
	for g := mcast.GroupID(0); int(g) < top.NumGroups(); g++ {
		leader[int16(top.InitialLeader(g))] = true
	}
	// The client side gives the first and the last two timestamps of an
	// operation, and names the delivery that completed it.
	ops := make(map[uint64]*stamps)
	for _, spans := range logs {
		for _, s := range spans {
			if s.Kind == spanOp {
				ops[s.Op] = &stamps{t0: s.Start, t4: s.End}
			}
		}
	}
	completedBy := make(map[uint64]*stamps, len(ops))
	for _, spans := range logs {
		for _, s := range spans {
			if st := ops[s.Op]; s.Kind == spanReply && st != nil && s.Parent != 0 {
				st.t3 = s.Start
				completedBy[s.Parent] = st
			}
		}
	}
	busy := make(map[int16]int64)
	var handleNs, residenceNs, applyNs int64
	var residences, applies int
	for _, spans := range logs {
		for _, s := range spans {
			switch s.Kind {
			case spanHandle, spanHandleMulticast:
				tr.handleCalls++
				handleNs += s.End - s.Start
				busy[s.Proc] += s.End - s.Start
				if s.Persists > 0 {
					tr.persistCalls++
				}
				// The second timestamp: the first MULTICAST of the
				// operation to reach a destination leader.
				if st := ops[s.Op]; st != nil && s.Kind == spanHandleMulticast && leader[s.Proc] {
					if st.t1 == 0 || s.Start < st.t1 {
						st.t1 = s.Start
					}
				}
			case spanDeliver:
				// The third: the Handle call that released the delivery
				// whose result completed the operation returned. Usually
				// that is at the last destination leader; when a leader's
				// mailbox is backed up (kv-durable) a follower delivers,
				// and answers, before its leader does.
				if st := completedBy[s.ID]; st != nil {
					st.t2 = s.End
				}
			case spanResidence:
				residences++
				residenceNs += s.End - s.Start
			case spanApply:
				applies++
				applyNs += s.End - s.Start
			}
		}
	}
	var segs [4][]float64
	var derived []span
	var latSum float64
	for id, st := range ops {
		tr.ops++
		if st.t1 == 0 || st.t2 == 0 || st.t3 == 0 ||
			!(st.t0 <= st.t1 && st.t1 <= st.t2 && st.t2 <= st.t3 && st.t3 <= st.t4) {
			tr.skipped++
			continue
		}
		tr.budgetOps++
		cuts := [5]int64{st.t0, st.t1, st.t2, st.t3, st.t4}
		for i := range segs {
			segs[i] = append(segs[i], float64(cuts[i+1]-cuts[i])/1e3)
			derived = append(derived, span{
				Kind: spanBudget + spanKind(i), Start: cuts[i], End: cuts[i+1],
				ID: uint64(i+1)<<60 | id, Parent: id, Op: id, Proc: -1,
			})
		}
		latSum += float64(st.t4-st.t0) / 1e3
	}
	if tr.budgetOps > 0 {
		tr.meanLatUs = latSum / float64(tr.budgetOps)
		for i := range segs {
			tr.segMean[i] = mean(segs[i])
			tr.segMedian[i] = median(segs[i])
		}
	}
	if tr.handleCalls > 0 {
		tr.handleUsMean = float64(handleNs) / float64(tr.handleCalls) / 1e3
	}
	var busiest int64
	for _, b := range busy {
		busiest = max(busiest, b)
	}
	tr.handleBusyFrac = float64(busiest) / float64(to-from)
	if residences > 0 {
		tr.residenceUsMean = float64(residenceNs) / float64(residences) / 1e3
	}
	if applies > 0 {
		tr.applyUsMean = float64(applyNs) / float64(applies) / 1e3
	}
	return derived
}

func (tr *tracedResult) report(res *result) {
	for i, name := range segNames {
		res.Metrics[name+"_us"] = tr.segMean[i]
		res.Info[name+"_us_median"] = tr.segMedian[i]
	}
	res.Info["traced_lat_mean_us"] = tr.meanLatUs
	res.Counts["budget_ops"] = tr.budgetOps
	res.Counts["budget_ops_skipped"] = tr.skipped
	res.Counts["spans"] = tr.spans
	if tr.ops > 0 {
		res.Metrics["core.handle_calls_per_op"] = float64(tr.handleCalls) / float64(tr.ops)
		res.Metrics["core.persists_per_op"] = float64(tr.persistCalls) / float64(tr.ops)
	}
	res.Metrics["core.handle_us_mean"] = tr.handleUsMean
	res.Metrics["core.handle_busy_frac"] = tr.handleBusyFrac
	res.Metrics["delivery.residence_us_mean"] = tr.residenceUsMean
	res.Metrics["kvstore.apply_us_mean"] = tr.applyUsMean
	res.Counts["handle_calls"] = tr.handleCalls
}

// writeSpans writes the trace as one JSON array, one span per line, in
// recording order within each goroutine's log (logs is their chunks).
func writeSpans(path string, logs [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	sep := "[\n"
	for _, spans := range logs {
		for _, s := range spans {
			fmt.Fprintf(w, `%s{"name":%q,"start_ns":%d,"end_ns":%d,"id":%d,"parent":%d,"op":%d,"proc":%d,"persists":%d}`,
				sep, spanNames[s.Kind], s.Start, s.End, s.ID, s.Parent, s.Op, s.Proc, s.Persists)
			sep = ",\n"
		}
	}
	if sep == "[\n" {
		sep = "["
	} else {
		sep = "\n"
	}
	fmt.Fprintln(w, sep+"]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
