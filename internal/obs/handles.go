package obs

import (
	"time"

	"wbcast/internal/mcast"
)

// Proto is a protocol replica's instrumentation handle: per-stage latency
// histograms plus recovery-path counters, with trace emission folded into
// the same calls. All methods are nil-safe — a nil *Proto is
// "observability off" and costs a single branch per call site: simulator
// runs without instrumentation and unit tests pass nil.
type Proto struct {
	proc   mcast.ProcessID
	clock  Clock
	tracer *Tracer

	propose, accept, commit, deliver *Histogram

	retransmits, stepDowns, elections, catchups *Counter

	genEarly, genBlocked *Counter
}

// NewProto builds a replica handle, registering its metrics in reg (nil
// reg = trace-only: metrics exist but are not scrapeable).
func NewProto(reg *Registry, clock Clock, tracer *Tracer, proc mcast.ProcessID) *Proto {
	p := &Proto{
		proc: proc, clock: clock, tracer: tracer,
		propose: &Histogram{}, accept: &Histogram{}, commit: &Histogram{}, deliver: &Histogram{},
		retransmits: &Counter{}, stepDowns: &Counter{}, elections: &Counter{}, catchups: &Counter{},
		genEarly: &Counter{}, genBlocked: &Counter{},
	}
	reg.RegisterHistogram(MetricStageLatency+`{stage="propose"}`, "time from first sight to local timestamp proposal", p.propose)
	reg.RegisterHistogram(MetricStageLatency+`{stage="accept"}`, "time from proposal to ACCEPTs from every destination group", p.accept)
	reg.RegisterHistogram(MetricStageLatency+`{stage="commit"}`, "time from accept to the global timestamp commit", p.commit)
	reg.RegisterHistogram(MetricStageLatency+`{stage="deliver"}`, "time from the previous stage to delivery at this replica", p.deliver)
	reg.RegisterCounter(MetricRetransmits, "leader-side MULTICAST re-sends", p.retransmits)
	reg.RegisterCounter(MetricStepDowns, "leadership losses (higher ballot observed)", p.stepDowns)
	reg.RegisterCounter(MetricElections, "candidacies started", p.elections)
	reg.RegisterCounter(MetricCatchups, "catch-up replays sent to stalled followers", p.catchups)
	reg.RegisterFunc(MetricCommits, "messages committed (GTS fixed)", KindCounter, p.commit.Count)
	reg.RegisterFunc(MetricDeliveries, "protocol-level deliveries", KindCounter, p.deliver.Count)
	reg.RegisterCounter(MetricGenEarlyReleases, "conflict-mode releases the total-order rule would have delayed", p.genEarly)
	reg.RegisterCounter(MetricGenReleaseBlocked, "conflict-mode release scans blocked behind a conflicting message", p.genBlocked)
	if tracer != nil {
		reg.RegisterCounter(MetricTraceDropped, "trace events discarded on buffer overflow", &tracer.Dropped)
	}
	return p
}

// Begin stamps a message's first sight at this replica into *at and traces
// the start stage.
func (p *Proto) Begin(id mcast.MsgID, at *time.Duration) {
	if p == nil {
		return
	}
	*at = p.clock.Now()
	if p.tracer.Sampled(id) {
		p.tracer.EventAt(*at, p.proc, id, StageStart, "")
	}
}

// Stage records a stage transition: the elapsed time since *at goes into
// the stage's histogram, *at advances to now, and the stage is traced if
// the message is sampled.
func (p *Proto) Stage(stage string, id mcast.MsgID, at *time.Duration) {
	if p == nil {
		return
	}
	now := p.clock.Now()
	var h *Histogram
	switch stage {
	case StagePropose:
		h = p.propose
	case StageAccept:
		h = p.accept
	case StageCommit:
		h = p.commit
	case StageDeliver:
		h = p.deliver
	}
	h.Observe(now - *at)
	*at = now
	if p.tracer.Sampled(id) {
		p.tracer.EventAt(now, p.proc, id, stage, "")
	}
}

// GenEarlyRelease records a conflict-mode release that the strict
// total-order rule would still have held back.
func (p *Proto) GenEarlyRelease() {
	if p == nil {
		return
	}
	p.genEarly.Inc()
}

// GenBlocked records a conflict-mode release-scan pass that left a
// committed message blocked behind an unreleased conflicting message.
func (p *Proto) GenBlocked() {
	if p == nil {
		return
	}
	p.genBlocked.Inc()
}

// MarkMsg records a per-message recovery event (retransmit): counter plus
// a sampled trace line.
func (p *Proto) MarkMsg(event string, id mcast.MsgID) {
	if p == nil {
		return
	}
	p.counterFor(event).Inc()
	p.tracer.Message(p.proc, id, event, "")
}

// Mark records a message-independent recovery event (step-down, election,
// catch-up): counter plus an unconditional trace line.
func (p *Proto) Mark(event, note string) {
	if p == nil {
		return
	}
	p.counterFor(event).Inc()
	p.tracer.System(p.proc, event, note)
}

func (p *Proto) counterFor(event string) *Counter {
	switch event {
	case EventRetransmit:
		return p.retransmits
	case EventStepDown:
		return p.stepDowns
	case EventElection:
		return p.elections
	case EventCatchup:
		return p.catchups
	}
	return nil
}

// Client is a client process's instrumentation handle: end-to-end latency
// and retries. Nil-safe like Proto.
type Client struct {
	proc   mcast.ProcessID
	clock  Clock
	tracer *Tracer

	e2e     *Histogram
	retries *Counter
}

// NewClient builds a client handle, registering its metrics in reg.
func NewClient(reg *Registry, clock Clock, tracer *Tracer, proc mcast.ProcessID) *Client {
	c := &Client{
		proc: proc, clock: clock, tracer: tracer,
		e2e: &Histogram{}, retries: &Counter{},
	}
	reg.RegisterHistogram(MetricClientE2E, "client submit-to-complete latency", c.e2e)
	reg.RegisterCounter(MetricClientRetries, "client-side MULTICAST re-sends", c.retries)
	return c
}

// OnSubmit stamps a submission time into *at and traces the submit stage.
func (c *Client) OnSubmit(id mcast.MsgID, at *time.Duration) {
	if c == nil {
		return
	}
	*at = c.clock.Now()
	if c.tracer.Sampled(id) {
		c.tracer.EventAt(*at, c.proc, id, StageSubmit, "")
	}
}

// OnComplete observes the end-to-end latency since at and traces the
// complete stage.
func (c *Client) OnComplete(id mcast.MsgID, at time.Duration) {
	if c == nil {
		return
	}
	now := c.clock.Now()
	c.e2e.Observe(now - at)
	if c.tracer.Sampled(id) {
		c.tracer.EventAt(now, c.proc, id, StageComplete, "")
	}
}

// OnRetry records a client-side re-send of an incomplete multicast.
func (c *Client) OnRetry(id mcast.MsgID) {
	if c == nil {
		return
	}
	c.retries.Inc()
	c.tracer.Message(c.proc, id, EventClientRetry, "")
}

// Store is a durable-storage instrumentation handle: WAL append/fsync
// latency, snapshot size/duration, and recovery replay counters for one
// process's store (internal/wal). Nil-safe like Proto, so an
// uninstrumented store costs one branch per event.
type Store struct {
	appendH, fsyncH, snapH         *Histogram
	walBytes, snapBytes            *Gauge
	snapshots, replayed, tornTails *Counter
}

// NewStore builds a storage handle, registering its metrics in reg.
func NewStore(reg *Registry) *Store {
	s := &Store{
		appendH: &Histogram{}, fsyncH: &Histogram{}, snapH: &Histogram{},
		walBytes: &Gauge{}, snapBytes: &Gauge{},
		snapshots: &Counter{}, replayed: &Counter{}, tornTails: &Counter{},
	}
	reg.RegisterHistogram(MetricWALAppend, "WAL append latency (frame, checksum and write one Handle call's entries)", s.appendH)
	reg.RegisterHistogram(MetricWALFsync, "WAL fsync latency", s.fsyncH)
	reg.RegisterGauge(MetricWALBytes, "current WAL length in bytes", s.walBytes)
	reg.RegisterCounter(MetricSnapshots, "snapshots written (each truncates the WAL)", s.snapshots)
	reg.RegisterHistogram(MetricSnapshotDuration, "snapshot encode+write+rename latency", s.snapH)
	reg.RegisterGauge(MetricSnapshotBytes, "size of the last snapshot written", s.snapBytes)
	reg.RegisterCounter(MetricReplayEntries, "WAL entries replayed at recovery", s.replayed)
	reg.RegisterCounter(MetricTornTails, "torn WAL tails detected and truncated at recovery", s.tornTails)
	return s
}

// OnAppend records one append batch: its latency and the resulting WAL
// length.
func (s *Store) OnAppend(d time.Duration, walLen int64) {
	if s == nil {
		return
	}
	s.appendH.Observe(d)
	s.walBytes.Set(walLen)
}

// OnFsync records one fsync.
func (s *Store) OnFsync(d time.Duration) {
	if s == nil {
		return
	}
	s.fsyncH.Observe(d)
}

// OnSnapshot records one snapshot write.
func (s *Store) OnSnapshot(d time.Duration, bytes int64) {
	if s == nil {
		return
	}
	s.snapshots.Inc()
	s.snapH.Observe(d)
	s.snapBytes.Set(bytes)
}

// OnReplay records a recovery replay: how many entries were folded and
// whether a torn tail was truncated.
func (s *Store) OnReplay(entries int, torn bool) {
	if s == nil {
		return
	}
	s.replayed.Add(uint64(entries))
	if torn {
		s.tornTails.Inc()
	}
}

// SetWALBytes updates the WAL-length gauge.
func (s *Store) SetWALBytes(n int64) {
	if s == nil {
		return
	}
	s.walBytes.Set(n)
}

// Runtime is a transport/runtime instrumentation handle: the I/O counters
// of one hosted process. tcpnet maintains these counters directly (its
// Stats() is a view over them), keeping one source of truth.
type Runtime struct {
	// Encoded counts distinct messages serialised to wire form.
	Encoded Counter
	// FramesSent counts frames appended to peer links.
	FramesSent Counter
	// FramesCoalesced counts frames beyond the first in one write.
	FramesCoalesced Counter
	// OutboundDrops counts frames dropped on the way out.
	OutboundDrops Counter
	// Reconnects counts outbound redials after connection failures.
	Reconnects Counter
	// FramesRead counts inbound frames successfully decoded.
	FramesRead Counter
	// SocketReads counts the Read calls on inbound connections: each takes
	// in every frame the kernel has queued, up to the read buffer's size.
	SocketReads Counter
	// SocketWrites counts the writes to outbound connections: the loop's
	// non-blocking write(2) of what one flush took, or the link writer's
	// blocking Write of what the loop's did not.
	SocketWrites Counter
	// CommitInputs is the inputs-per-commit distribution of the shard
	// loops' group commit (unitless count, recorded as 1 input = 1s).
	CommitInputs Histogram
}

// NewRuntime builds a runtime handle, registering its metrics in reg (a
// nil reg yields working, unscrapeable counters — the single-source
// counters still back ad-hoc stats snapshots).
func NewRuntime(reg *Registry) *Runtime {
	rt := &Runtime{}
	reg.RegisterCounter(MetricMessagesEncoded, "messages serialised to wire form (one per send)", &rt.Encoded)
	reg.RegisterCounter(MetricFramesSent, "per-recipient frames enqueued to peer writers", &rt.FramesSent)
	reg.RegisterCounter(MetricFramesCoalesced, "frames beyond the first in one write", &rt.FramesCoalesced)
	reg.RegisterCounter(MetricOutboundDrops, "outbound frames dropped", &rt.OutboundDrops)
	reg.RegisterCounter(MetricReconnects, "outbound redials after connection failure", &rt.Reconnects)
	reg.RegisterCounter(MetricFramesRead, "inbound frames decoded", &rt.FramesRead)
	reg.RegisterCounter(MetricSocketReads, "reads of inbound connections", &rt.SocketReads)
	reg.RegisterCounter(MetricSocketWrites, "writes to outbound connections", &rt.SocketWrites)
	reg.RegisterHistogram(MetricShardCommitInputs, "inputs whose effects one WAL sync released (count; 1 input = 1s)", &rt.CommitInputs)
	return rt
}
