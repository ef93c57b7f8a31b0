// Package check verifies the atomic multicast specification of paper §II
// over recorded histories: Validity, Integrity, Ordering (existence of a
// global total order consistent with every process's delivery sequence),
// Termination at quiescence, and — when the protocol exposes global
// timestamps — agreement and uniqueness of timestamps (Fig. 6 Invariants
// 3(b) and 4).
package check

import (
	"fmt"
	"sort"

	"wbcast/internal/mcast"
)

// History accumulates the observable behaviour of a run.
type History struct {
	submitted  map[mcast.MsgID]submitInfo
	deliveries map[mcast.ProcessID][]mcast.Delivery
	procs      []mcast.ProcessID
}

type submitInfo struct {
	sender mcast.ProcessID
	dest   mcast.GroupSet
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{
		submitted:  make(map[mcast.MsgID]submitInfo),
		deliveries: make(map[mcast.ProcessID][]mcast.Delivery),
	}
}

// AddSubmit records that sender multicast message m.
func (h *History) AddSubmit(sender mcast.ProcessID, m mcast.AppMsg) {
	h.submitted[m.ID] = submitInfo{sender: sender, dest: m.Dest.Clone()}
}

// AddDelivery records that process p delivered d (in p's local order; call in
// sequence).
func (h *History) AddDelivery(p mcast.ProcessID, d mcast.Delivery) {
	if _, seen := h.deliveries[p]; !seen {
		h.procs = append(h.procs, p)
	}
	h.deliveries[p] = append(h.deliveries[p], d)
}

// NumDeliveries returns the total number of recorded deliveries.
func (h *History) NumDeliveries() int {
	n := 0
	for _, ds := range h.deliveries {
		n += len(ds)
	}
	return n
}

// Config parametrises a check.
type Config struct {
	// Topology maps processes to groups.
	Topology *mcast.Topology
	// Crashed lists processes that were crashed during the run; Termination
	// is not required of them.
	Crashed map[mcast.ProcessID]bool
	// AtQuiescence enables the Termination check: every message delivered
	// anywhere must be delivered by all correct members of every destination
	// group, and every message multicast by a correct (non-crashed) client
	// must be delivered everywhere it is addressed.
	AtQuiescence bool
	// CheckGTS enables the timestamp checks: deliveries at each process are
	// in strictly increasing (GTS, Sub) order; all processes agree on each
	// message's (GTS, Sub); distinct messages have distinct (GTS, Sub).
	// The Sub component sub-sequences payloads that were ordered as one
	// protocol-level batch and therefore share a GTS (internal/batch);
	// unbatched histories have Sub ≡ 0, reducing these to the paper's pure
	// GTS invariants.
	CheckGTS bool
	// Conflicts, when non-nil, switches Ordering and the per-process GTS
	// sequence check to the partial-order contract of the conflict-aware
	// (genmcast) protocol: only *conflicting* pairs of deliveries must
	// agree in order across processes and be stamp-ordered within each
	// process; commuting pairs may interleave freely. Stamp agreement,
	// uniqueness, Validity, Integrity and Termination are unchanged.
	Conflicts func(a, b mcast.AppMsg) bool
}

// Check verifies the history and returns all violations found.
func (h *History) Check(cfg Config) []error {
	var errs []error
	top := cfg.Topology

	// Validity + Integrity.
	for _, p := range h.procs {
		seen := make(map[mcast.MsgID]bool)
		for _, d := range h.deliveries[p] {
			info, ok := h.submitted[d.Msg.ID]
			if !ok {
				errs = append(errs, fmt.Errorf("validity: %v delivered at p%d but never multicast", d.Msg.ID, p))
				continue
			}
			g := top.GroupOf(p)
			if g == mcast.NoGroup || !info.dest.Contains(g) {
				errs = append(errs, fmt.Errorf("validity: p%d (group %d) delivered %v addressed to %v", p, g, d.Msg.ID, info.dest))
			}
			if seen[d.Msg.ID] {
				errs = append(errs, fmt.Errorf("integrity: p%d delivered %v twice", p, d.Msg.ID))
			}
			seen[d.Msg.ID] = true
		}
	}

	// Ordering: the union of per-process delivery precedences (restricted
	// to conflicting pairs in partial-order mode) must be acyclic; then a
	// topological extension is a valid total order ≺.
	errs = append(errs, h.checkOrdering(cfg.Conflicts)...)

	if cfg.CheckGTS {
		errs = append(errs, h.checkGTS(cfg.Conflicts)...)
	}

	if cfg.AtQuiescence {
		errs = append(errs, h.checkTermination(cfg)...)
	}
	return errs
}

// checkOrdering builds the precedence graph (m1 precedes m2 when some
// process delivers m1 before m2) and reports cycles: each pair two
// processes deliver in opposite orders that the graph links directly (in
// total order, a pair adjacent at both), then how many messages lie on or
// behind a cycle.
//
// In total order the graph holds only each process's chain of consecutive
// deliveries, Σ nₚ edges rather than Σ nₚ²/2. A process's precedence is the
// transitive closure of its chain, so the union of the closures and the
// union of the chains reach the same messages from every message: one is
// acyclic exactly when the other is, and Kahn's algorithm leaves the same
// messages unvisited in both. With a conflict relation the graph omits
// commuting pairs — processes may disagree on their relative order without
// creating a cycle — and that relation is not transitive, so every
// conflicting pair keeps its edge.
func (h *History) checkOrdering(conflicts func(a, b mcast.AppMsg) bool) []error {
	var errs []error
	type edge struct{ a, b mcast.MsgID }
	edges := make(map[edge]mcast.ProcessID)
	adj := make(map[mcast.MsgID][]mcast.MsgID)
	indeg := make(map[mcast.MsgID]int) // a key for every delivered message

	for _, p := range h.procs {
		ds := h.deliveries[p]
		for i := range ds {
			indeg[ds[i].Msg.ID] += 0
			for j := i + 1; j < len(ds); j++ {
				if conflicts == nil && j > i+1 {
					break // the chain edge is enough (see above)
				}
				a, b := ds[i].Msg.ID, ds[j].Msg.ID
				if a == b {
					continue // integrity violation reported elsewhere
				}
				if conflicts != nil && !conflicts(ds[i].Msg, ds[j].Msg) {
					continue // commuting pair: order unconstrained
				}
				if q, rev := edges[edge{b, a}]; rev {
					errs = append(errs, fmt.Errorf(
						"ordering: p%d delivers %v before %v but p%d delivers them in the opposite order", p, a, b, q))
				}
				if _, dup := edges[edge{a, b}]; !dup {
					edges[edge{a, b}] = p
					adj[a] = append(adj[a], b)
					indeg[b]++
				}
			}
		}
	}
	// Kahn's algorithm: leftover nodes lie on a cycle or behind one.
	var queue []mcast.MsgID
	for n, d := range indeg {
		if d == 0 {
			queue = append(queue, n)
		}
	}
	visited := 0
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		visited++
		for _, m := range adj[n] {
			indeg[m]--
			if indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if visited != len(indeg) {
		errs = append(errs, fmt.Errorf("ordering: delivery precedence graph has a cycle (%d of %d messages in cycles)", len(indeg)-visited, len(indeg)))
	}
	return errs
}

// checkGTS verifies the timestamp-facing guarantees over the (GTS, Sub)
// pairs that order per-payload deliveries. With a conflict relation the
// per-process sequence check relaxes to conflicting pairs: every pair of
// conflicting deliveries at one process must appear in stamp order, while
// commuting deliveries may interleave out of stamp order.
func (h *History) checkGTS(conflicts func(a, b mcast.AppMsg) bool) []error {
	type stamp struct {
		gts mcast.Timestamp
		sub int
	}
	var errs []error
	gtsOf := make(map[mcast.MsgID]stamp)
	tsUsed := make(map[stamp]mcast.MsgID)
	for _, p := range h.procs {
		ds := h.deliveries[p]
		for i, d := range ds {
			if conflicts == nil {
				if i > 0 && !ds[i-1].Before(d) {
					errs = append(errs, fmt.Errorf("gts: p%d delivered %v with (GTS,sub) (%v,%d) not above previous (%v,%d)",
						p, d.Msg.ID, d.GTS, d.Sub, ds[i-1].GTS, ds[i-1].Sub))
				}
			} else {
				for j := 0; j < i; j++ {
					if d.Before(ds[j]) && conflicts(ds[j].Msg, d.Msg) {
						errs = append(errs, fmt.Errorf("gts: p%d delivered conflicting %v (GTS,sub) (%v,%d) after %v (%v,%d) — stamp order inverted",
							p, d.Msg.ID, d.GTS, d.Sub, ds[j].Msg.ID, ds[j].GTS, ds[j].Sub))
					}
				}
			}
			st := stamp{gts: d.GTS, sub: d.Sub}
			if want, ok := gtsOf[d.Msg.ID]; ok {
				if want != st {
					errs = append(errs, fmt.Errorf("gts: %v has (GTS,sub) (%v,%d) at p%d but (%v,%d) elsewhere (Invariant 3b)",
						d.Msg.ID, d.GTS, d.Sub, p, want.gts, want.sub))
				}
			} else {
				gtsOf[d.Msg.ID] = st
				if other, clash := tsUsed[st]; clash && other != d.Msg.ID {
					errs = append(errs, fmt.Errorf("gts: %v and %v share (GTS,sub) (%v,%d) (Invariant 4)", d.Msg.ID, other, d.GTS, d.Sub))
				}
				tsUsed[st] = d.Msg.ID
			}
		}
	}
	return errs
}

// checkTermination verifies the paper's Termination property at quiescence.
func (h *History) checkTermination(cfg Config) []error {
	var errs []error
	top := cfg.Topology
	deliveredBy := make(map[mcast.MsgID]map[mcast.ProcessID]bool)
	for _, p := range h.procs {
		for _, d := range h.deliveries[p] {
			set := deliveredBy[d.Msg.ID]
			if set == nil {
				set = make(map[mcast.ProcessID]bool)
				deliveredBy[d.Msg.ID] = set
			}
			set[p] = true
		}
	}
	// Required: delivered anywhere, or multicast by a correct client.
	required := make(map[mcast.MsgID]bool)
	for id := range deliveredBy {
		required[id] = true
	}
	for id, info := range h.submitted {
		if !cfg.Crashed[info.sender] {
			required[id] = true
		}
	}
	var ids []mcast.MsgID
	for id := range required {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		info, ok := h.submitted[id]
		if !ok {
			continue // validity violation reported elsewhere
		}
		for _, g := range info.dest {
			for _, p := range top.Members(g) {
				if cfg.Crashed[p] {
					continue
				}
				if !deliveredBy[id][p] {
					errs = append(errs, fmt.Errorf("termination: correct p%d (group %d) never delivered %v", p, g, id))
				}
			}
		}
	}
	return errs
}
