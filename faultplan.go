package wbcast

import (
	"fmt"

	"wbcast/internal/faults"
	"wbcast/internal/mcast"
)

// AnyProcess is the wildcard for SetLink: a link fault whose From or To is
// AnyProcess applies to every process on that side.
const AnyProcess = mcast.NoProcess

// FaultPlan is a deterministic fault-injection schedule for the Simulated
// transport (SimulatedOptions.Faults): a list of actions, each fired by a
// trigger. At schedules an action at a virtual instant, AfterSends once n
// protocol-message transmissions have been observed (n below 1 counts as
// 1), and both return the plan for chaining:
//
//	plan := &wbcast.FaultPlan{}
//	plan.At(500*time.Millisecond, wbcast.Isolate{P: 0})  // partition group 0's leader
//	plan.At(700*time.Millisecond, wbcast.Crash{P: 4})    // crash a replica...
//	plan.At(1500*time.Millisecond, wbcast.Restart{P: 4}) // ...and bring it back
//	plan.At(2500*time.Millisecond, wbcast.Heal{})
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
// the simulator's clock, and are unrelated to wall-clock time. The plan is
// the chaos harness's own: actions keep the slices they are given, so a
// caller must not modify a Partition's sides or a OneWay's lists once
// scheduled, and the plan must be complete before the transport opens.
type FaultPlan = faults.Plan

// The fault actions a FaultPlan schedules.
type (
	// Crash crash-stops process P. Without a matching Restart this is the
	// paper's crash-stop failure; each group tolerates (Replicas-1)/2
	// simultaneous crashes.
	Crash = faults.Crash
	// Restart brings a crashed P back. What it comes back with depends on
	// Config.Storage: with a configured store the replica is rebuilt by
	// replaying its durable state (real crash-recovery — transitions that
	// were never synced are lost); without one it returns with its
	// in-memory state intact, which models a long pause rather than a
	// crash. Either way, messages sent to it while it was down are lost;
	// the protocols' catch-up machinery replays them.
	Restart = faults.Restart
	// Partition installs a symmetric partition: messages between different
	// Sides are dropped; processes not listed keep full connectivity. It
	// replaces any previous Partition and lasts until Heal.
	Partition = faults.Partition
	// Isolate cuts P off from every other process in both directions until
	// Heal. Isolating a group leader forces a failover.
	Isolate = faults.Isolate
	// OneWay installs an asymmetric partition: messages from any process
	// in From to any process in To are dropped until Heal; the reverse
	// direction keeps working.
	OneWay = faults.OneWay
	// Heal removes every active partition (Partition, Isolate, OneWay).
	Heal = faults.Heal
	// SetLink installs probabilistic faults (LinkFaults) on the From→To
	// link; AnyProcess is a wildcard. A later SetLink for the same pair
	// replaces the earlier one; a zero LinkFaults clears it.
	SetLink = faults.SetLink
	// ClearLinks removes every fault installed by SetLink.
	ClearLinks = faults.ClearLinks
	// ClockSkew rescales every timer armed by P by Factor: above 1 the
	// process's timeouts fire late (a slow clock), below 1 early. Factor 1
	// clears the skew.
	ClockSkew = faults.ClockSkew
)

// LinkFaults parametrises probabilistic misbehaviour of one link for
// SetLink: DropProb loses a message, DupProb delivers it twice,
// ReorderProb lets it overtake earlier traffic on the link (probabilities
// in [0, 1]); Delay adds a fixed extra latency to every message and Jitter
// a uniform random one in [0, Jitter).
type LinkFaults = faults.LinkFault

// validateFaults rejects an event without an action, which the engine
// could not fire, and nonsense that would silently neuter a schedule:
// negative trigger times or counts, probabilities outside [0, 1], negative
// link delays and negative clock-skew factors.
func validateFaults(p *FaultPlan) error {
	for _, ev := range p.Events {
		if ev.Action == nil || ev.Trigger.At < 0 || ev.Trigger.AfterSends < 0 {
			return fmt.Errorf("wbcast: FaultPlan event %+v lacks an action or has a negative trigger", ev)
		}
		switch a := ev.Action.(type) {
		case faults.SetLink:
			f := a.Fault
			if min(f.DropProb, f.DupProb, f.ReorderProb) < 0 || max(f.DropProb, f.DupProb, f.ReorderProb) > 1 || f.Delay < 0 || f.Jitter < 0 {
				return fmt.Errorf("wbcast: FaultPlan link fault %+v: probabilities must lie in [0, 1] and delays be non-negative", f)
			}
		case faults.ClockSkew:
			if a.Factor < 0 {
				return fmt.Errorf("wbcast: FaultPlan clock-skew factor %v is negative (1 clears the skew)", a.Factor)
			}
		}
	}
	return nil
}
