// Package rsm implements the deterministic "reliable Skeen process" of
// paper Fig. 1 as a replicated state machine: the group state that the
// black-box baselines (FT-Skeen, FastCast) replicate through their Paxos
// log, and that plain Skeen keeps in its one process per group. Each
// command — CmdAssign (lines 9–11) and CmdCommit (lines 14–16) — is
// applied through this machine, so every replica that applies the same
// commands holds identical group state.
//
// # Layering
//
// rsm sits above internal/ordering and below the protocols built on Fig. 1:
// internal/blackbox applies consensus-chosen commands through it, one
// Machine per replica, and internal/skeen applies them as its MULTICAST and
// PROPOSE messages arrive, with no consensus underneath. The white-box
// protocol (internal/core) does not use it — collapsing this layer into
// the timestamp exchange is the paper's point.
package rsm
