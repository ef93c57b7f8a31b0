package node

import "time"

// Suspicion is the failure detector's deadline, shared by every protocol
// with a per-group leader (core, paxos). Timers cannot be cancelled, so
// pushing the deadline back means arming a fresh TimerSuspect whose Data is a
// new epoch and ignoring the expiries of older ones: suspicion falls exactly
// After past the last Arm, never at the next tick of a free-running period.
// A zero After (no heartbeats configured) arms nothing.
//
// The deadline is armed in two legs, After−grace and grace. A host that
// stalls (a stopped process, a long GC or scheduling pause) delays the timer
// and the heartbeats that would have pushed it back alike, and hands them over
// together when it resumes; the timer alone would then depose a leader that
// never went silent. The first leg expiring late only starts the second, and
// the heartbeat queued behind it re-arms before that one runs out.
type Suspicion struct {
	// After is the suspicion timeout plus the rank stagger: lower-ranked
	// members of a group time out first, so after a leader failure the
	// lowest-ranked survivor campaigns alone and the others join its ballot
	// before their own deadlines. With exact deadlines the stagger only has
	// to outlast one recovery round, hence half a heartbeat interval per rank.
	After time.Duration
	grace time.Duration
	epoch uint64
	// inGrace: the first leg of the latest Arm has expired.
	inGrace bool
}

// NewSuspicion derives the deadline of the group member of the given rank; a
// zero timeout defaults to 4×heartbeat.
func NewSuspicion(heartbeat, timeout time.Duration, rank int) Suspicion {
	if heartbeat <= 0 {
		return Suspicion{}
	}
	if timeout == 0 {
		timeout = 4 * heartbeat
	}
	return Suspicion{After: timeout + time.Duration(rank)*heartbeat/2, grace: min(heartbeat, timeout) / 2}
}

// Arm restarts the deadline: the leader was heard from (or this process
// joined a ballot and owes its candidate a full timeout) just now.
func (s *Suspicion) Arm(fx *Effects) {
	if s.After > 0 {
		s.epoch++
		s.inGrace = false
		fx.SetTimer(s.After-s.grace, TimerSuspect, s.epoch)
	}
}

// Expired reports whether t ends the latest Arm's deadline — it passed with
// no sign of a leader — and if so re-arms, so a process that does not get a
// leader out of this expiry tries again a full timeout later.
func (s *Suspicion) Expired(t Timer, fx *Effects) bool {
	if s.After == 0 || t.Data != s.epoch {
		return false
	}
	if !s.inGrace {
		s.inGrace = true
		fx.SetTimer(s.grace, TimerSuspect, s.epoch)
		return false
	}
	s.Arm(fx)
	return true
}
