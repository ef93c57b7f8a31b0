package check_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wbcast/internal/check"
	"wbcast/internal/mcast"
)

func msg(seq uint32, dest ...mcast.GroupID) mcast.AppMsg {
	return mcast.AppMsg{ID: mcast.MakeMsgID(100, seq), Dest: mcast.NewGroupSet(dest...)}
}

func del(m mcast.AppMsg, t uint64, g mcast.GroupID) mcast.Delivery {
	return mcast.Delivery{Msg: m, GTS: mcast.Timestamp{Time: t, Group: g}}
}

func base(t *testing.T) (*check.History, *mcast.Topology, check.Config) {
	t.Helper()
	top := mcast.UniformTopology(2, 1) // processes 0 and 1
	h := check.NewHistory()
	return h, top, check.Config{Topology: top, AtQuiescence: true, CheckGTS: true}
}

func TestCleanHistoryPasses(t *testing.T) {
	h, _, cfg := base(t)
	a, b := msg(1, 0, 1), msg(2, 0)
	h.AddSubmit(100, a)
	h.AddSubmit(100, b)
	h.AddDelivery(0, del(a, 1, 0))
	h.AddDelivery(0, del(b, 2, 0))
	h.AddDelivery(1, del(a, 1, 0))
	if errs := h.Check(cfg); len(errs) != 0 {
		t.Fatalf("clean history flagged: %v", errs)
	}
	if h.NumDeliveries() != 3 {
		t.Errorf("NumDeliveries = %d", h.NumDeliveries())
	}
}

func TestValidityViolations(t *testing.T) {
	h, _, cfg := base(t)
	ghost := msg(9, 0)
	h.AddDelivery(0, del(ghost, 1, 0)) // never submitted
	wrongDest := msg(2, 1)
	h.AddSubmit(100, wrongDest)
	h.AddDelivery(0, del(wrongDest, 2, 0)) // delivered outside dest
	errs := h.Check(cfg)
	if len(errs) < 2 {
		t.Fatalf("expected ≥2 validity violations, got %v", errs)
	}
}

func TestIntegrityViolation(t *testing.T) {
	h, _, cfg := base(t)
	a := msg(1, 0)
	h.AddSubmit(100, a)
	h.AddDelivery(0, del(a, 1, 0))
	h.AddDelivery(0, del(a, 1, 0))
	found := false
	for _, err := range h.Check(cfg) {
		if containsStr(err.Error(), "integrity") {
			found = true
		}
	}
	if !found {
		t.Fatal("duplicate delivery not flagged")
	}
}

func TestOrderingDisagreementFlagged(t *testing.T) {
	h, _, cfg := base(t)
	cfg.CheckGTS = false // isolate the order check from GTS checks
	a, b := msg(1, 0, 1), msg(2, 0, 1)
	h.AddSubmit(100, a)
	h.AddSubmit(100, b)
	h.AddDelivery(0, del(a, 1, 0))
	h.AddDelivery(0, del(b, 2, 0))
	h.AddDelivery(1, del(b, 2, 0))
	h.AddDelivery(1, del(a, 1, 0)) // opposite order at p1
	found := false
	for _, err := range h.Check(cfg) {
		if containsStr(err.Error(), "ordering") {
			found = true
		}
	}
	if !found {
		t.Fatal("ordering disagreement not flagged")
	}
}

func TestGTSAgreementViolation(t *testing.T) {
	h, _, cfg := base(t)
	a := msg(1, 0, 1)
	h.AddSubmit(100, a)
	h.AddDelivery(0, del(a, 5, 0))
	h.AddDelivery(1, del(a, 6, 0)) // disagreeing GTS (Invariant 3b)
	found := false
	for _, err := range h.Check(cfg) {
		if containsStr(err.Error(), "3b") {
			found = true
		}
	}
	if !found {
		t.Fatal("GTS disagreement not flagged")
	}
}

func TestGTSUniquenessAndMonotonicityViolations(t *testing.T) {
	h, _, cfg := base(t)
	a, b := msg(1, 1), msg(2, 1)
	h.AddSubmit(100, a)
	h.AddSubmit(100, b)
	h.AddDelivery(1, del(a, 6, 0))
	h.AddDelivery(1, del(b, 6, 0)) // same GTS (Invariant 4) + non-increasing
	errs := h.Check(cfg)
	var hasUnique, hasMonotone bool
	for _, err := range errs {
		s := err.Error()
		if containsStr(s, "Invariant 4") {
			hasUnique = true
		}
		if containsStr(s, "not above previous") {
			hasMonotone = true
		}
	}
	if !hasUnique || !hasMonotone {
		t.Fatalf("missing GTS violations (unique=%v monotone=%v): %v", hasUnique, hasMonotone, errs)
	}
}

func TestTerminationViolation(t *testing.T) {
	h, _, cfg := base(t)
	a := msg(1, 0, 1)
	h.AddSubmit(100, a)
	h.AddDelivery(0, del(a, 1, 0)) // p1 (group 1) never delivers
	found := false
	for _, err := range h.Check(cfg) {
		if containsStr(err.Error(), "termination") {
			found = true
		}
	}
	if !found {
		t.Fatal("missing delivery not flagged at quiescence")
	}
}

func TestTerminationExcusesCrashed(t *testing.T) {
	h, _, cfg := base(t)
	cfg.Crashed = map[mcast.ProcessID]bool{1: true}
	a := msg(1, 0, 1)
	h.AddSubmit(100, a)
	h.AddDelivery(0, del(a, 1, 0))
	if errs := h.Check(cfg); len(errs) != 0 {
		t.Fatalf("crashed process's missing delivery flagged: %v", errs)
	}
}

func TestTerminationRequiresCorrectClientMessages(t *testing.T) {
	h, _, cfg := base(t)
	a := msg(1, 0)
	h.AddSubmit(100, a) // correct client, never delivered anywhere
	found := false
	for _, err := range h.Check(cfg) {
		if containsStr(err.Error(), "termination") {
			found = true
		}
	}
	if !found {
		t.Fatal("undelivered message from correct client not flagged")
	}
	// If the client crashed, the undelivered message is excused.
	h2 := check.NewHistory()
	h2.AddSubmit(100, a)
	cfg2 := cfg
	cfg2.Crashed = map[mcast.ProcessID]bool{100: true}
	if errs := h2.Check(cfg2); len(errs) != 0 {
		t.Fatalf("crashed client's message flagged: %v", errs)
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && searchStr(haystack, needle)
}

func searchStr(h, n string) bool {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return true
		}
	}
	return false
}

// pmsg is msg with a payload, for conflict-relation histories.
func pmsg(seq uint32, payload string, dest ...mcast.GroupID) mcast.AppMsg {
	m := msg(seq, dest...)
	m.Payload = []byte(payload)
	return m
}

// firstByteConflict: payloads conflict iff their first bytes match.
func firstByteConflict(a, b mcast.AppMsg) bool {
	return len(a.Payload) > 0 && len(b.Payload) > 0 && a.Payload[0] == b.Payload[0]
}

// TestPartialOrderAllowsCommutingDisagreement: with a conflict relation,
// two processes delivering a *commuting* pair in opposite orders (and out
// of stamp order locally) is legal — neither Ordering nor the per-process
// GTS check may flag it.
func TestPartialOrderAllowsCommutingDisagreement(t *testing.T) {
	h, _, cfg := base(t)
	cfg.Conflicts = firstByteConflict
	a, b := pmsg(1, "a-put", 0, 1), pmsg(2, "b-put", 0, 1)
	h.AddSubmit(100, a)
	h.AddSubmit(100, b)
	h.AddDelivery(0, del(a, 1, 0))
	h.AddDelivery(0, del(b, 2, 0))
	h.AddDelivery(1, del(b, 2, 0)) // opposite order at p1: commuting, fine
	h.AddDelivery(1, del(a, 1, 0))
	if errs := h.Check(cfg); len(errs) != 0 {
		t.Fatalf("commuting disagreement flagged: %v", errs)
	}
}

// TestPartialOrderFlagsConflictingDisagreement: the same inverted pair with
// payloads that conflict must be flagged by both the Ordering graph and the
// per-process stamp check.
func TestPartialOrderFlagsConflictingDisagreement(t *testing.T) {
	h, _, cfg := base(t)
	cfg.Conflicts = firstByteConflict
	a, b := pmsg(1, "a-put", 0, 1), pmsg(2, "a-del", 0, 1)
	h.AddSubmit(100, a)
	h.AddSubmit(100, b)
	h.AddDelivery(0, del(a, 1, 0))
	h.AddDelivery(0, del(b, 2, 0))
	h.AddDelivery(1, del(b, 2, 0))
	h.AddDelivery(1, del(a, 1, 0))
	var hasOrdering, hasStamp bool
	for _, err := range h.Check(cfg) {
		if containsStr(err.Error(), "ordering") {
			hasOrdering = true
		}
		if containsStr(err.Error(), "stamp order inverted") {
			hasStamp = true
		}
	}
	if !hasOrdering || !hasStamp {
		t.Fatalf("conflicting disagreement missed (ordering=%v stamp=%v)", hasOrdering, hasStamp)
	}
}

// TestPartialOrderKeepsStampInvariants: stamp agreement and uniqueness are
// unchanged by the relaxation.
func TestPartialOrderKeepsStampInvariants(t *testing.T) {
	h, _, cfg := base(t)
	cfg.Conflicts = firstByteConflict
	a, b := pmsg(1, "a", 0, 1), pmsg(2, "b", 0, 1)
	h.AddSubmit(100, a)
	h.AddSubmit(100, b)
	h.AddDelivery(0, del(a, 5, 0))
	h.AddDelivery(1, del(a, 6, 0)) // Invariant 3b
	h.AddDelivery(0, del(b, 5, 0)) // Invariant 4 (same stamp as a at p0)
	var has3b, has4 bool
	for _, err := range h.Check(cfg) {
		if containsStr(err.Error(), "3b") {
			has3b = true
		}
		if containsStr(err.Error(), "Invariant 4") {
			has4 = true
		}
	}
	if !has3b || !has4 {
		t.Fatalf("stamp invariants missed (3b=%v 4=%v)", has3b, has4)
	}
}

// orderingErrs runs the full check and keeps the Ordering violations.
func orderingErrs(h *check.History, cfg check.Config) []string {
	var out []string
	for _, err := range h.Check(cfg) {
		if strings.HasPrefix(err.Error(), "ordering:") {
			out = append(out, err.Error())
		}
	}
	return out
}

// TestOrderingCycleWithoutPairwiseDisagreement: no two processes deliver a
// pair in opposite orders, yet p0: a b, p1: b c, p2: c a admit no total
// order. Only the cycle search sees it.
func TestOrderingCycleWithoutPairwiseDisagreement(t *testing.T) {
	top := mcast.UniformTopology(1, 3)
	h := check.NewHistory()
	a, b, c := msg(1, 0), msg(2, 0), msg(3, 0)
	for _, m := range []mcast.AppMsg{a, b, c} {
		h.AddSubmit(100, m)
	}
	for p, pair := range [][2]mcast.AppMsg{{a, b}, {b, c}, {c, a}} {
		h.AddDelivery(mcast.ProcessID(p), del(pair[0], 1, 0))
		h.AddDelivery(mcast.ProcessID(p), del(pair[1], 2, 0))
	}
	errs := orderingErrs(h, check.Config{Topology: top})
	want := "ordering: delivery precedence graph has a cycle (3 of 3 messages in cycles)"
	if len(errs) != 1 || errs[0] != want {
		t.Fatalf("ordering errors = %q, want [%q]", errs, want)
	}
}

// allPairsOrdering is the Ordering check's graph before it kept only each
// process's chain of consecutive deliveries: an edge between every ordered
// pair of a process's deliveries, then Kahn's algorithm. It returns how many
// of the n messages lie on or behind a cycle, and whether some pair is
// delivered in both orders (by two processes, or around a duplicate).
func allPairsOrdering(seqs [][]mcast.MsgID) (inCycles, n int, pairwise bool) {
	type edge struct{ a, b mcast.MsgID }
	edges := make(map[edge]bool)
	adj := make(map[mcast.MsgID][]mcast.MsgID)
	indeg := make(map[mcast.MsgID]int)
	nodes := make(map[mcast.MsgID]bool)
	for _, ds := range seqs {
		for i := range ds {
			nodes[ds[i]] = true
			for j := i + 1; j < len(ds); j++ {
				a, b := ds[i], ds[j]
				if a == b {
					continue
				}
				if edges[edge{b, a}] {
					pairwise = true
				}
				if !edges[edge{a, b}] {
					edges[edge{a, b}] = true
					adj[a] = append(adj[a], b)
					indeg[b]++
				}
			}
		}
	}
	var queue []mcast.MsgID
	for m := range nodes {
		if indeg[m] == 0 {
			queue = append(queue, m)
		}
	}
	visited := 0
	for len(queue) > 0 {
		m := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		visited++
		for _, s := range adj[m] {
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	return len(nodes) - visited, len(nodes), pairwise
}

// randomHistory projects a total order of 5–24 messages onto 3–6
// processes, then perturbs up to three times: a swap of two deliveries at
// one process, a rotation of three fresh messages through three processes —
// x y at one, y z at the next, z x at the third, all at one cut of the
// order, so that no two processes disagree on a pair and the messages after
// the cut lie behind the cycle — or a duplicate delivery.
func randomHistory(rng *rand.Rand) [][]mcast.MsgID {
	procs, n := 3+rng.Intn(4), 5+rng.Intn(20)
	id := func(seq int) mcast.MsgID { return mcast.MakeMsgID(100, uint32(seq)) }
	seqs := make([][]mcast.MsgID, procs)
	for seq := 0; seq < n; seq++ {
		for p := range seqs {
			if rng.Intn(5) < 3 {
				seqs[p] = append(seqs[p], id(seq))
			}
		}
	}
	fresh := n
	for k := rng.Intn(4); k > 0; k-- {
		p := rng.Intn(procs)
		switch s := seqs[p]; rng.Intn(3) {
		case 0:
			if len(s) > 1 {
				i, j := rng.Intn(len(s)), rng.Intn(len(s))
				s[i], s[j] = s[j], s[i]
			}
		case 1:
			cut := id(rng.Intn(n + 1))
			x, y, z := id(fresh), id(fresh+1), id(fresh+2)
			fresh += 3
			for r, pair := range [][]mcast.MsgID{{x, y}, {y, z}, {z, x}} {
				q := (p + r) % procs
				at := slices.IndexFunc(seqs[q], func(m mcast.MsgID) bool { return m >= cut && m < id(n) })
				if at < 0 {
					at = len(seqs[q])
				}
				seqs[q] = slices.Insert(seqs[q], at, pair...)
			}
		case 2:
			if len(s) > 0 {
				seqs[p] = slices.Insert(s, rng.Intn(len(s)+1), s[rng.Intn(len(s))])
			}
		}
	}
	return seqs
}

// TestOrderingMatchesAllPairs: on 2 000 random histories the chain graph
// and the all-pairs oracle agree on the verdict and on how many messages
// lie on or behind a cycle. The histories must include acyclic ones, cycles
// with a pairwise disagreement, and cycles without one.
func TestOrderingMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var acyclic, withPair, withoutPair int
	for i := 0; i < 2000; i++ {
		seqs := randomHistory(rng)
		top := mcast.UniformTopology(len(seqs), 1)
		all := make([]mcast.GroupID, len(seqs))
		for g := range all {
			all[g] = mcast.GroupID(g)
		}
		h := check.NewHistory()
		submitted := make(map[mcast.MsgID]bool)
		for p, ds := range seqs {
			for _, id := range ds {
				m := mcast.AppMsg{ID: id, Dest: mcast.NewGroupSet(all...)}
				if !submitted[id] {
					submitted[id] = true
					h.AddSubmit(100, m)
				}
				h.AddDelivery(mcast.ProcessID(p), mcast.Delivery{Msg: m})
			}
		}
		inCycles, n, pairwise := allPairsOrdering(seqs)
		errs := orderingErrs(h, check.Config{Topology: top})
		switch {
		case inCycles == 0:
			acyclic++
			if len(errs) > 0 {
				t.Fatalf("history %d %v: the oracle finds no cycle, the check reports %q", i, seqs, errs)
			}
			continue
		case pairwise:
			withPair++
		default:
			withoutPair++
		}
		var k, of int
		last := ""
		if len(errs) > 0 {
			last = errs[len(errs)-1]
		}
		if _, err := fmt.Sscanf(last, "ordering: delivery precedence graph has a cycle (%d of %d messages in cycles)", &k, &of); err != nil || k != inCycles || of != n {
			t.Fatalf("history %d %v: the oracle finds %d of %d messages in cycles, the check reports %q", i, seqs, inCycles, n, errs)
		}
	}
	t.Logf("%d acyclic, %d cyclic with a pairwise disagreement, %d cyclic without", acyclic, withPair, withoutPair)
	if acyclic < 200 || withPair < 200 || withoutPair < 100 {
		t.Fatalf("the generator is lopsided: %d acyclic, %d with a pairwise disagreement, %d without", acyclic, withPair, withoutPair)
	}
}

// BenchmarkHistoryCheck is the end-of-run check of a 3×3 cluster's clean
// total-order history, at about 10³, 10⁴ and 10⁵ deliveries per process:
// random 1–2-group destinations, projected in one global order.
func BenchmarkHistoryCheck(b *testing.B) {
	for _, perProc := range []int{1e3, 1e4, 1e5} {
		b.Run(fmt.Sprintf("deliveries=%d", perProc), func(b *testing.B) {
			top := mcast.UniformTopology(3, 3)
			rng := rand.New(rand.NewSource(1))
			h := check.NewHistory()
			for seq := 1; seq <= 2*perProc; seq++ { // half the messages reach a group
				gs := rng.Perm(3)[:1+rng.Intn(2)]
				dest := make([]mcast.GroupID, len(gs))
				for i, g := range gs {
					dest[i] = mcast.GroupID(g)
				}
				m := mcast.AppMsg{ID: mcast.MakeMsgID(100, uint32(seq)), Dest: mcast.NewGroupSet(dest...)}
				h.AddSubmit(100, m)
				for _, g := range m.Dest {
					for _, p := range top.Members(g) {
						h.AddDelivery(p, mcast.Delivery{Msg: m, GTS: mcast.Timestamp{Time: uint64(seq)}})
					}
				}
			}
			cfg := check.Config{Topology: top, AtQuiescence: true, CheckGTS: true}
			if errs := h.Check(cfg); len(errs) > 0 {
				b.Fatalf("a clean history fails the check: %v", errs[0])
			}
			b.ReportAllocs()
			for b.Loop() {
				h.Check(cfg)
			}
		})
	}
}
