// Package faults is the deterministic fault-injection engine for chaos
// runs on the discrete-event simulator (internal/sim).
//
// A Plan is a declarative schedule of fault actions, each fired by a
// trigger — an exact virtual-time instant or a count of protocol-message
// transmissions. The Engine compiles the plan onto a simulator: time
// triggers become sim control events, count triggers fire from inside the
// simulator's send filter, and the engine's mutable fault state (active
// partitions, per-link fault rates, per-process clock skew) is consulted by
// the filter on every transmission. Everything runs single-threaded inside
// the simulator's event loop and randomness comes from the simulator's
// seeded RNG, so a chaos schedule replays byte-identically from its seed.
//
// The supported faults go deliberately beyond the paper's crash-stop,
// reliable-FIFO model (§II): crash/restart (crash-recovery replaying the
// process's wal.Storage when one is configured, a long pause otherwise),
// symmetric and asymmetric network partitions with heal events,
// per-link probabilistic message drop/duplicate/delay/reorder, and
// clock-skewed timers. The safety checker (internal/check.Monitor)
// verifies that the protocols' safety properties survive all of them.
package faults

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/obs"
	"wbcast/internal/sim"
)

// LinkFault parametrises probabilistic per-link misbehaviour. Probabilities
// are in [0, 1]; the zero value is a faultless link.
type LinkFault struct {
	// DropProb loses each transmission with this probability.
	DropProb float64
	// DupProb schedules one extra copy with this probability.
	DupProb float64
	// Delay adds a fixed extra latency to every transmission.
	Delay time.Duration
	// Jitter adds a uniform random extra latency in [0, Jitter).
	Jitter time.Duration
	// ReorderProb exempts each transmission from FIFO ordering with this
	// probability, letting it overtake earlier messages on the link.
	ReorderProb float64
}

// IsZero reports whether the link is faultless.
func (f LinkFault) IsZero() bool { return f == LinkFault{} }

// Action is one fault-injection step. Implementations are the exported
// structs below; Engine fires them when their trigger matches.
type Action interface {
	fire(e *Engine)
	String() string
}

// Crash crash-stops process P (until a Restart).
type Crash struct{ P mcast.ProcessID }

// Restart brings a crashed P back: with a configured store its handler is
// rebuilt from durable state, without one its in-memory state survives
// intact (see sim.Restart for the exact semantics of both). Messages sent
// to P while it was down are lost.
type Restart struct{ P mcast.ProcessID }

// Partition installs a symmetric partition: messages between processes in
// different sides are dropped. Processes not listed in any side keep full
// connectivity. Replaces any previously installed partition.
type Partition struct{ Sides [][]mcast.ProcessID }

// Isolate cuts process P off from every other process, in both directions
// (its self-sends still work). Composes with an active Partition.
type Isolate struct{ P mcast.ProcessID }

// OneWay installs an asymmetric partition: messages from any process in
// From to any process in To are dropped; the reverse direction is intact.
type OneWay struct{ From, To []mcast.ProcessID }

// Heal removes every active partition (Partition, Isolate and OneWay).
type Heal struct{}

// SetLink installs a probabilistic LinkFault on the From→To link.
// mcast.NoProcess as From or To acts as a wildcard. A later SetLink for the
// same pair replaces the earlier one; a zero LinkFault clears the pair.
type SetLink struct {
	From, To mcast.ProcessID
	Fault    LinkFault
}

// ClearLinks removes every LinkFault installed by SetLink.
type ClearLinks struct{}

// ClockSkew rescales every timer duration armed by P by Factor (>1 slows
// P's clock: its timeouts fire late; <1 makes it trigger-happy). Factor 1
// (or 0) clears the skew.
type ClockSkew struct {
	P      mcast.ProcessID
	Factor float64
}

func (a Crash) String() string   { return fmt.Sprintf("crash p%d", a.P) }
func (a Restart) String() string { return fmt.Sprintf("restart p%d", a.P) }
func (a Partition) String() string {
	return fmt.Sprintf("partition %v", a.Sides)
}
func (a Isolate) String() string { return fmt.Sprintf("isolate p%d", a.P) }
func (a OneWay) String() string {
	return fmt.Sprintf("one-way partition %v -/-> %v", a.From, a.To)
}
func (Heal) String() string { return "heal all partitions" }
func (a SetLink) String() string {
	return fmt.Sprintf("link p%d->p%d %+v", a.From, a.To, a.Fault)
}
func (ClearLinks) String() string { return "clear link faults" }
func (a ClockSkew) String() string {
	return fmt.Sprintf("clock skew p%d ×%g", a.P, a.Factor)
}

// Trigger decides when an Event fires: at virtual time At, or — when
// AfterSends > 0 — once the total number of transmissions observed by the
// engine reaches AfterSends.
type Trigger struct {
	At         time.Duration
	AfterSends int
}

// Event pairs a trigger with an action.
type Event struct {
	Trigger Trigger
	Action  Action
}

// Plan is a declarative chaos schedule.
type Plan struct{ Events []Event }

// At appends a time-triggered action and returns the plan for chaining.
func (p *Plan) At(t time.Duration, a Action) *Plan {
	p.Events = append(p.Events, Event{Trigger: Trigger{At: t}, Action: a})
	return p
}

// AfterSends appends a count-triggered action: it fires once n protocol
// message transmissions have been observed (n below 1 counts as 1).
func (p *Plan) AfterSends(n int, a Action) *Plan {
	n = max(n, 1)
	p.Events = append(p.Events, Event{Trigger: Trigger{AfterSends: n}, Action: a})
	return p
}

// Config parametrises an Engine. Whether a process is down is the
// simulator's to say (sim.Sim.Crashed): the engine only fires Crash and
// Restart, and a restart whose store cannot be replayed leaves it down.
type Config struct {
	Plan Plan
	// Tracer, if non-nil, records every fired action as a fault event, so
	// a chaos timeline shows crashes, partitions and heals interleaved with
	// the protocol stages.
	Tracer *obs.Tracer
	// OnEvent, if non-nil, receives a narration line when an action fires,
	// after the Tracer has recorded it.
	OnEvent func(at time.Duration, desc string)
}

// Engine executes a Plan against a simulator. Create it with New, install
// Filter and ScaleTimer into the sim.Config, then Bind the simulator.
type Engine struct {
	cfg Config
	sim *sim.Sim

	// Active fault state, mutated by actions and read by Filter.
	sideOf   map[mcast.ProcessID]int // symmetric partition membership
	isolated map[mcast.ProcessID]bool
	oneWays  []OneWay
	links    map[linkKey]LinkFault
	skew     map[mcast.ProcessID]float64

	sends   int
	pending []Event // count-triggered events, sorted by threshold
	fired   int     // prefix of pending already fired
}

type linkKey struct{ from, to mcast.ProcessID }

// New builds an engine for the plan. Bind must be called before the
// simulator runs.
func New(cfg Config) *Engine {
	e := &Engine{
		cfg:      cfg,
		sideOf:   make(map[mcast.ProcessID]int),
		isolated: make(map[mcast.ProcessID]bool),
		links:    make(map[linkKey]LinkFault),
		skew:     make(map[mcast.ProcessID]float64),
	}
	for _, ev := range cfg.Plan.Events {
		if ev.Trigger.AfterSends > 0 {
			e.pending = append(e.pending, ev)
		}
	}
	sort.SliceStable(e.pending, func(i, j int) bool {
		return e.pending[i].Trigger.AfterSends < e.pending[j].Trigger.AfterSends
	})
	return e
}

// Bind attaches the engine to a simulator and schedules the plan's
// time-triggered events as control events.
func (e *Engine) Bind(s *sim.Sim) {
	e.sim = s
	for _, ev := range e.cfg.Plan.Events {
		if ev.Trigger.AfterSends > 0 {
			continue
		}
		a := ev.Action
		s.ControlAt(ev.Trigger.At, func() { e.fire(a) })
	}
}

func (e *Engine) fire(a Action) {
	desc := a.String()
	e.cfg.Tracer.Fault(e.sim.Now(), desc)
	if e.cfg.OnEvent != nil {
		e.cfg.OnEvent(e.sim.Now(), desc)
	}
	a.fire(e)
}

// Filter implements sim.Filter: it advances count triggers and applies the
// active partition and link-fault state to one transmission.
func (e *Engine) Filter(from, to mcast.ProcessID, m msgs.Message, now time.Duration, rng *rand.Rand) sim.Verdict {
	e.sends++
	for e.fired < len(e.pending) && e.pending[e.fired].Trigger.AfterSends <= e.sends {
		ev := e.pending[e.fired]
		e.fired++
		e.fire(ev.Action)
	}
	if e.blocked(from, to) {
		return sim.Verdict{Drop: true}
	}
	lf, ok := e.linkFor(from, to)
	if !ok {
		return sim.Verdict{}
	}
	var v sim.Verdict
	if lf.DropProb > 0 && rng.Float64() < lf.DropProb {
		v.Drop = true
		return v
	}
	if lf.DupProb > 0 && rng.Float64() < lf.DupProb {
		v.Duplicates = 1
	}
	v.Delay = lf.Delay
	if lf.Jitter > 0 {
		v.Delay += time.Duration(rng.Int63n(int64(lf.Jitter)))
	}
	if lf.ReorderProb > 0 && rng.Float64() < lf.ReorderProb {
		v.Reorder = true
	}
	return v
}

// ScaleTimer implements sim.Config.TimerScale.
func (e *Engine) ScaleTimer(p mcast.ProcessID, after time.Duration) time.Duration {
	if f, ok := e.skew[p]; ok && f > 0 {
		return time.Duration(float64(after) * f)
	}
	return after
}

// Sends returns the number of transmissions observed so far.
func (e *Engine) Sends() int { return e.sends }

func (e *Engine) blocked(from, to mcast.ProcessID) bool {
	if e.isolated[from] || e.isolated[to] {
		return true
	}
	if sf, ok := e.sideOf[from]; ok {
		if st, ok := e.sideOf[to]; ok && sf != st {
			return true
		}
	}
	for _, ow := range e.oneWays {
		if slices.Contains(ow.From, from) && slices.Contains(ow.To, to) {
			return true
		}
	}
	return false
}

// linkFor resolves the most specific LinkFault for a link: exact pair, then
// from-wildcard, then to-wildcard, then the all-links entry.
func (e *Engine) linkFor(from, to mcast.ProcessID) (LinkFault, bool) {
	if len(e.links) == 0 {
		return LinkFault{}, false
	}
	for _, k := range [4]linkKey{
		{from, to},
		{from, mcast.NoProcess},
		{mcast.NoProcess, to},
		{mcast.NoProcess, mcast.NoProcess},
	} {
		if lf, ok := e.links[k]; ok {
			return lf, true
		}
	}
	return LinkFault{}, false
}

func (a Crash) fire(e *Engine) { e.sim.Crash(a.P) }

func (a Restart) fire(e *Engine) { e.sim.Restart(a.P) }

func (a Partition) fire(e *Engine) {
	clear(e.sideOf)
	for i, side := range a.Sides {
		for _, p := range side {
			e.sideOf[p] = i
		}
	}
}

func (a Isolate) fire(e *Engine) { e.isolated[a.P] = true }

func (a OneWay) fire(e *Engine) { e.oneWays = append(e.oneWays, a) }

func (Heal) fire(e *Engine) {
	clear(e.sideOf)
	clear(e.isolated)
	e.oneWays = nil
}

func (a SetLink) fire(e *Engine) {
	k := linkKey{a.From, a.To}
	if a.Fault.IsZero() {
		delete(e.links, k)
		return
	}
	e.links[k] = a.Fault
}

func (ClearLinks) fire(e *Engine) { clear(e.links) }

func (a ClockSkew) fire(e *Engine) {
	if a.Factor == 1 || a.Factor == 0 {
		delete(e.skew, a.P)
		return
	}
	e.skew[a.P] = a.Factor
}
