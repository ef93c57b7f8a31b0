package mcast

import "sync/atomic"

// ConflictRelation reports whether two application payloads conflict —
// whether their delivery order is observable by the application. Generic
// multicast (the genmcast protocol) totally orders only conflicting
// payloads; non-conflicting ("commuting") payloads may be delivered in
// different relative orders at different processes.
//
// Implementations must be symmetric (Conflicts(a,b) == Conflicts(b,a)),
// deterministic, and must not retain or mutate the slices. Reflexivity is
// not required by the protocol but any payload that does not commute with
// itself must conflict with itself. When in doubt, return true: any
// over-approximation of the true conflict relation is safe — it only
// forfeits reordering freedom — while an under-approximation breaks
// application consistency.
type ConflictRelation func(a, b []byte) bool

// MsgConflicts is a conflict relation lifted to whole protocol messages
// (internal/batch.Conflicts builds one from a ConflictRelation, expanding
// batch envelopes). Same contract: symmetric, deterministic, conservative.
type MsgConflicts func(a, b AppMsg) bool

// ConflictHolder is a late-bindable conflict relation shared between a
// replica's protocol state machine and the layers that configure it. The
// relation may be replaced while traffic flows (kv.NewService installs the
// key-based relation after the replica is constructed); because the default
// is the all-conflict relation and every legal replacement is a relation
// the application tolerates, tightening mid-stream is safe — messages
// ordered under the stricter relation were ordered under a superset of the
// constraints the new relation demands.
type ConflictHolder struct {
	v atomic.Value // holds conflictCell
}

type conflictCell struct{ rel MsgConflicts }

// NewConflictHolder builds a holder over rel; a nil rel is the
// all-conflict relation (total order — the safe default).
func NewConflictHolder(rel MsgConflicts) *ConflictHolder {
	h := &ConflictHolder{}
	h.Set(rel)
	return h
}

// Set replaces the relation. nil resets to all-conflict.
func (h *ConflictHolder) Set(rel MsgConflicts) { h.v.Store(conflictCell{rel}) }

// Conflicts applies the current relation. A nil holder or nil relation
// reports every pair as conflicting.
func (h *ConflictHolder) Conflicts(a, b AppMsg) bool {
	if h == nil {
		return true
	}
	cell, _ := h.v.Load().(conflictCell)
	if cell.rel == nil {
		return true
	}
	return cell.rel(a, b)
}
