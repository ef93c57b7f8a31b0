package wbcast

import (
	"fmt"
	"time"

	"wbcast/internal/faults"
	"wbcast/internal/mcast"
)

// AnyProcess is the wildcard for FaultStep.Link: a link fault whose From or
// To is AnyProcess applies to every process on that side.
const AnyProcess = mcast.NoProcess

// FaultPlan is a deterministic fault-injection schedule for the Simulated
// transport (SimulatedOptions.Faults). Build it declaratively — each At or
// AfterMessages call opens a trigger, and the chained step methods attach
// actions to it:
//
//	plan := wbcast.NewFaultPlan()
//	plan.At(500 * time.Millisecond).Isolate(0)      // partition group 0's leader
//	plan.At(700 * time.Millisecond).Crash(4)        // crash a replica...
//	plan.At(1500 * time.Millisecond).Restart(4)     // ...and bring it back
//	plan.At(2500 * time.Millisecond).Heal()
//	tr := wbcast.SimulatedWith(wbcast.SimulatedOptions{Seed: 1, Faults: plan})
//
// Setting a plan switches the transport into chaos mode: the protocols'
// background timers (retries, heartbeats, failure detection, GC) stay
// enabled — fault recovery is timer-driven — and virtual time advances
// continuously instead of pumping each submission to quiescence. Triggers
// fire at exact virtual instants and all randomness (link fault sampling,
// latency jitter) comes from the transport's seeded RNG, so the fault
// schedule itself is fully deterministic; byte-identical end-to-end replay
// additionally needs a workload scripted against virtual time, which is
// what the internal chaos harness provides (go test ./internal/harness
// -run TestChaos -seed=N). See docs/FAULTS.md for the full workflow.
//
// Times are virtual: they count from the moment the transport starts, on
// the simulator's clock, and are unrelated to wall-clock time.
type FaultPlan struct {
	plan faults.Plan
}

// NewFaultPlan returns an empty plan.
func NewFaultPlan() *FaultPlan { return &FaultPlan{} }

// At opens a trigger firing at virtual time t.
func (p *FaultPlan) At(t time.Duration) *FaultStep {
	return &FaultStep{p: p, trig: faults.Trigger{At: t}}
}

// AfterMessages opens a trigger firing once n protocol-message
// transmissions have been observed — a schedule anchored to protocol
// progress rather than time (n must be ≥ 1).
func (p *FaultPlan) AfterMessages(n int) *FaultStep {
	if n < 1 {
		n = 1
	}
	return &FaultStep{p: p, trig: faults.Trigger{AfterSends: n}}
}

// Events returns the number of scheduled actions.
func (p *FaultPlan) Events() int { return len(p.plan.Events) }

// compile hands the internal schedule to the transport.
func (p *FaultPlan) compile() faults.Plan { return p.plan }

// LinkFaults parametrises probabilistic misbehaviour of one link for
// FaultStep.Link: DropProb loses a message, DupProb delivers it twice,
// ReorderProb lets it overtake earlier traffic on the link (probabilities
// in [0, 1]); Delay adds a fixed extra latency to every message and Jitter
// a uniform random one in [0, Jitter).
type LinkFaults = faults.LinkFault

// FaultStep attaches actions to one trigger of a FaultPlan. Methods return
// the step so several actions can share a trigger:
//
//	plan.At(time.Second).Crash(0).ClockSkew(3, 1.5)
type FaultStep struct {
	p    *FaultPlan
	trig faults.Trigger
}

func (s *FaultStep) add(a faults.Action) *FaultStep {
	s.p.plan.Events = append(s.p.plan.Events, faults.Event{Trigger: s.trig, Action: a})
	return s
}

// Crash crash-stops process pid. Without a matching Restart this is the
// paper's crash-stop failure; each group tolerates (Replicas-1)/2
// simultaneous crashes.
func (s *FaultStep) Crash(pid ProcessID) *FaultStep {
	return s.add(faults.Crash{P: pid})
}

// Restart brings a crashed pid back. What it comes back with depends on
// Config.Storage: with a configured store the replica is rebuilt by
// replaying its durable state (real crash-recovery — transitions that were
// never synced are lost); without one it returns with its in-memory state
// intact, which models a long pause rather than a crash. Either way,
// messages sent to it while it was down are lost; the protocols' catch-up
// machinery replays them.
func (s *FaultStep) Restart(pid ProcessID) *FaultStep {
	return s.add(faults.Restart{P: pid})
}

// Partition installs a symmetric partition: messages between different
// sides are dropped; processes not listed keep full connectivity. It
// replaces any previous Partition and lasts until Heal.
func (s *FaultStep) Partition(sides ...[]ProcessID) *FaultStep {
	cp := make([][]mcast.ProcessID, len(sides))
	for i, side := range sides {
		cp[i] = append([]mcast.ProcessID(nil), side...)
	}
	return s.add(faults.Partition{Sides: cp})
}

// Isolate cuts pid off from every other process in both directions until
// Heal. Isolating a group leader forces a failover.
func (s *FaultStep) Isolate(pid ProcessID) *FaultStep {
	return s.add(faults.Isolate{P: pid})
}

// PartitionOneWay installs an asymmetric partition: messages from any
// process in from to any process in to are dropped until Heal; the reverse
// direction keeps working.
func (s *FaultStep) PartitionOneWay(from, to []ProcessID) *FaultStep {
	return s.add(faults.OneWay{
		From: append([]mcast.ProcessID(nil), from...),
		To:   append([]mcast.ProcessID(nil), to...),
	})
}

// Heal removes every active partition (Partition, Isolate,
// PartitionOneWay).
func (s *FaultStep) Heal() *FaultStep { return s.add(faults.Heal{}) }

// Link installs probabilistic faults on the from→to link (AnyProcess is a
// wildcard). A later Link for the same pair replaces the earlier one; a
// zero LinkFaults clears it.
func (s *FaultStep) Link(from, to ProcessID, f LinkFaults) *FaultStep {
	return s.add(faults.SetLink{From: from, To: to, Fault: f})
}

// ClearLinks removes every fault installed by Link.
func (s *FaultStep) ClearLinks() *FaultStep { return s.add(faults.ClearLinks{}) }

// ClockSkew rescales every timer armed by pid by factor: above 1 the
// process's timeouts fire late (a slow clock), below 1 early. Factor 1
// clears the skew.
func (s *FaultStep) ClockSkew(pid ProcessID, factor float64) *FaultStep {
	return s.add(faults.ClockSkew{P: pid, Factor: factor})
}

// validate rejects nonsense that would silently neuter a schedule:
// negative trigger times, probabilities outside [0, 1], negative link
// delays and negative clock-skew factors.
func (p *FaultPlan) validate() error {
	for _, ev := range p.plan.Events {
		if ev.Trigger.At < 0 {
			return fmt.Errorf("wbcast: FaultPlan trigger at negative time %v", ev.Trigger.At)
		}
		switch a := ev.Action.(type) {
		case faults.SetLink:
			for _, pr := range [...]struct {
				name string
				v    float64
			}{{"DropProb", a.Fault.DropProb}, {"DupProb", a.Fault.DupProb}, {"ReorderProb", a.Fault.ReorderProb}} {
				if pr.v < 0 || pr.v > 1 {
					return fmt.Errorf("wbcast: FaultPlan link %s %v outside [0, 1]", pr.name, pr.v)
				}
			}
			if a.Fault.Delay < 0 || a.Fault.Jitter < 0 {
				return fmt.Errorf("wbcast: FaultPlan link delay/jitter must be non-negative")
			}
		case faults.ClockSkew:
			if a.Factor < 0 {
				return fmt.Errorf("wbcast: FaultPlan clock-skew factor %v is negative (1 clears the skew)", a.Factor)
			}
		}
	}
	return nil
}
