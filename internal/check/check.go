// Package check verifies the atomic multicast specification of paper §II
// over recorded histories: Validity, Integrity, Ordering (existence of a
// global total order consistent with every process's delivery sequence),
// Termination at quiescence, and — when the protocol exposes global
// timestamps — agreement and uniqueness of timestamps (Fig. 6 Invariants
// 3(b) and 4).
package check

import (
	"fmt"
	"slices"

	"wbcast/internal/mcast"
)

// History accumulates the observable behaviour of a run.
type History struct {
	submitted map[mcast.MsgID]submitInfo
	// deliveries[p] is process p's delivery sequence; procs lists the
	// processes with any, in the order of their first delivery, which is the
	// order the checks visit them in.
	deliveries [][]mcast.Delivery
	procs      []mcast.ProcessID
	n          int // deliveries in all
}

type submitInfo struct {
	sender mcast.ProcessID
	dest   mcast.GroupSet
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{submitted: make(map[mcast.MsgID]submitInfo)}
}

// AddSubmit records that sender multicast message m.
func (h *History) AddSubmit(sender mcast.ProcessID, m mcast.AppMsg) {
	h.submitted[m.ID] = submitInfo{sender: sender, dest: m.Dest.Clone()}
}

// AddDelivery records that process p delivered d (in p's local order; call in
// sequence).
func (h *History) AddDelivery(p mcast.ProcessID, d mcast.Delivery) {
	if int(p) >= len(h.deliveries) {
		h.deliveries = append(h.deliveries, make([][]mcast.Delivery, int(p)+1-len(h.deliveries))...)
	}
	if len(h.deliveries[p]) == 0 {
		h.procs = append(h.procs, p)
	}
	h.deliveries[p] = append(h.deliveries[p], d)
	h.n++
}

// NumDeliveries returns the total number of recorded deliveries.
func (h *History) NumDeliveries() int { return h.n }

// msgState is what a checker knows of one message.
type msgState struct {
	id        mcast.MsgID
	info      submitInfo
	submitted bool
	by        mcast.ProcSet // the processes that delivered it
	stamp     stampKey      // the stamp of its first delivery
	stamped   bool
}

// validity returns the violation, if any, of p delivering the message.
func (m *msgState) validity(top *mcast.Topology, p mcast.ProcessID) error {
	if !m.submitted {
		return fmt.Errorf("validity: %v delivered at p%d but never multicast", m.id, p)
	}
	if g := top.GroupOf(p); g == mcast.NoGroup || !m.info.dest.Contains(g) {
		return fmt.Errorf("validity: p%d (group %d) delivered %v addressed to %v", p, g, m.id, m.info.dest)
	}
	return nil
}

// stampAt records that p delivered the message with stamp st and returns
// the violation of Invariant 3b or 4 that shows, if any; used maps each
// stamp seen to its message.
func (m *msgState) stampAt(p mcast.ProcessID, st stampKey, used map[stampKey]mcast.MsgID) error {
	if m.stamped {
		if m.stamp != st {
			return fmt.Errorf("gts: %v has (GTS,sub) (%v,%d) at p%d but (%v,%d) elsewhere (Invariant 3b)",
				m.id, st.gts, st.sub, p, m.stamp.gts, m.stamp.sub)
		}
		return nil
	}
	m.stamp, m.stamped = st, true
	other, clash := used[st]
	used[st] = m.id
	if clash && other != m.id {
		return fmt.Errorf("gts: %v and %v share (GTS,sub) (%v,%d) (Invariant 4)", m.id, other, st.gts, st.sub)
	}
	return nil
}

// errList collects violations.
type errList []error

func (l *errList) add(err error) {
	if err != nil {
		*l = append(*l, err)
	}
}

// checker is one History.Check. It numbers the delivered messages 0, 1, …
// in the order the checks meet them, so that the checks keep their
// per-message state in a slice and look each message up in a map once.
type checker struct {
	*History
	Config
	num  map[mcast.MsgID]int32
	msgs []msgState // by number
	// seqs[i][k] is the number of deliveries[procs[i]][k].
	seqs [][]int32
	errs errList
}

func (h *History) checker(cfg Config) *checker {
	c := &checker{History: h, Config: cfg, num: make(map[mcast.MsgID]int32, len(h.submitted)),
		msgs: make([]msgState, 0, len(h.submitted)), seqs: make([][]int32, len(h.procs))}
	for i, p := range h.procs {
		c.seqs[i] = make([]int32, 0, len(h.deliveries[p]))
		for _, d := range h.deliveries[p] {
			n, ok := c.num[d.Msg.ID]
			if !ok {
				n = int32(len(c.msgs))
				c.num[d.Msg.ID] = n
				info, submitted := h.submitted[d.Msg.ID]
				c.msgs = append(c.msgs, msgState{id: d.Msg.ID, info: info, submitted: submitted})
			}
			c.seqs[i] = append(c.seqs[i], n)
		}
	}
	return c
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
	c := h.checker(cfg)

	// Validity + Integrity.
	for i, p := range h.procs {
		for _, n := range c.seqs[i] {
			m := &c.msgs[n]
			if c.errs.add(m.validity(cfg.Topology, p)); !m.submitted {
				continue
			}
			if m.by.Has(p) {
				c.errs.add(fmt.Errorf("integrity: p%d delivered %v twice", p, m.id))
			}
			m.by = m.by.Add(p)
		}
	}

	// Ordering: the union of per-process delivery precedences (restricted
	// to conflicting pairs in partial-order mode) must be acyclic; then a
	// topological extension is a valid total order ≺.
	c.checkOrdering()

	if cfg.CheckGTS {
		c.checkGTS()
	}

	if cfg.AtQuiescence {
		c.checkTermination()
	}
	return c.errs
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
func (c *checker) checkOrdering() {
	// edges maps the edge a → b, keyed a<<32 | b by message number, to the
	// first process that delivered a before b.
	edges := make(map[uint64]mcast.ProcessID, len(c.msgs))
	adj := make([][]int32, len(c.msgs))
	indeg := make([]int32, len(c.msgs)) // a node for every delivered message

	for pi, p := range c.procs {
		ds, seq := c.deliveries[p], c.seqs[pi]
		for i := range ds {
			for j := i + 1; j < len(ds); j++ {
				if c.Conflicts == nil && j > i+1 {
					break // the chain edge is enough (see above)
				}
				a, b := seq[i], seq[j]
				if a == b {
					continue // integrity violation reported elsewhere
				}
				if c.Conflicts != nil && !c.Conflicts(ds[i].Msg, ds[j].Msg) {
					continue // commuting pair: order unconstrained
				}
				if q, rev := edges[uint64(b)<<32|uint64(a)]; rev {
					c.errs.add(fmt.Errorf(
						"ordering: p%d delivers %v before %v but p%d delivers them in the opposite order", p, c.msgs[a].id, c.msgs[b].id, q))
				}
				if _, dup := edges[uint64(a)<<32|uint64(b)]; !dup {
					edges[uint64(a)<<32|uint64(b)] = p
					adj[a] = append(adj[a], b)
					indeg[b]++
				}
			}
		}
	}
	// Kahn's algorithm: leftover nodes lie on a cycle or behind one.
	var queue []int32
	for n, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(n))
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
		c.errs.add(fmt.Errorf("ordering: delivery precedence graph has a cycle (%d of %d messages in cycles)", len(indeg)-visited, len(indeg)))
	}
}

// checkGTS verifies the timestamp-facing guarantees over the (GTS, Sub)
// pairs that order per-payload deliveries. With a conflict relation the
// per-process sequence check relaxes to conflicting pairs: every pair of
// conflicting deliveries at one process must appear in stamp order, while
// commuting deliveries may interleave out of stamp order.
func (c *checker) checkGTS() {
	tsUsed := make(map[stampKey]mcast.MsgID, len(c.msgs))
	for pi, p := range c.procs {
		ds, seq := c.deliveries[p], c.seqs[pi]
		for i, d := range ds {
			if c.Conflicts == nil {
				if i > 0 && !ds[i-1].Before(d) {
					c.errs.add(fmt.Errorf("gts: p%d delivered %v with (GTS,sub) (%v,%d) not above previous (%v,%d)",
						p, d.Msg.ID, d.GTS, d.Sub, ds[i-1].GTS, ds[i-1].Sub))
				}
			} else {
				for j := 0; j < i; j++ {
					if d.Before(ds[j]) && c.Conflicts(ds[j].Msg, d.Msg) {
						c.errs.add(fmt.Errorf("gts: p%d delivered conflicting %v (GTS,sub) (%v,%d) after %v (%v,%d) — stamp order inverted",
							p, d.Msg.ID, d.GTS, d.Sub, ds[j].Msg.ID, ds[j].GTS, ds[j].Sub))
					}
				}
			}
			c.errs.add(c.msgs[seq[i]].stampAt(p, stampKey{gts: d.GTS, sub: d.Sub}, tsUsed))
		}
	}
}

// checkTermination verifies the paper's Termination property at quiescence.
// A message is required everywhere it is addressed once it was delivered
// anywhere or multicast by a correct client; one delivered but never
// multicast is a validity violation, reported elsewhere.
func (c *checker) checkTermination() {
	var ids []mcast.MsgID
	for id, info := range c.submitted {
		if _, delivered := c.num[id]; delivered || !c.Crashed[info.sender] {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		n, delivered := c.num[id]
		for _, g := range c.submitted[id].dest {
			for _, p := range c.Topology.Members(g) {
				if !c.Crashed[p] && !(delivered && c.msgs[n].by.Has(p)) {
					c.errs.add(fmt.Errorf("termination: correct p%d (group %d) never delivered %v", p, g, id))
				}
			}
		}
	}
}
