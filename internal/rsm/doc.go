// Package rsm implements the deterministic "reliable Skeen process" of
// paper Fig. 1 as a replicated state machine: the group state that the
// black-box baselines (FT-Skeen, FastCast) replicate through their Paxos
// log. Each consensus-chosen command — CmdAssign (lines 9–11) and CmdCommit
// (lines 14–16) — is applied through this machine at every replica,
// guaranteeing identical group state everywhere.
//
// # Layering
//
// rsm sits above internal/ordering and below the black-box baselines:
// internal/blackbox applies consensus-chosen commands through it, one
// Machine per replica. The white-box protocol (internal/core) does not use
// it — collapsing this layer into the timestamp exchange is the paper's
// point.
package rsm
