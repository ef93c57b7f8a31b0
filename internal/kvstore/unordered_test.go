package kvstore

import (
	"strings"
	"testing"

	"wbcast/internal/mcast"
)

func udel(seq uint32, ts uint64, op Op) mcast.Delivery {
	return mcast.Delivery{
		Msg: mcast.AppMsg{
			ID:      mcast.MakeMsgID(7, seq),
			Dest:    mcast.NewGroupSet(0),
			Payload: EncodeOp(nil, op),
		},
		GTS: mcast.Timestamp{Time: ts, Group: 0},
	}
}

// TestUnorderedAcceptsLowerStamps: the ordered engine's frontier would
// silently drop a delivery below the last applied stamp; the unordered
// engine must apply it (that's the whole delivery contract of genmcast) and
// keep the frontier at the running maximum.
func TestUnorderedAcceptsLowerStamps(t *testing.T) {
	e := NewEngine(EngineConfig{Group: 0, Unordered: true})
	e.Apply(udel(1, 10, Op{Kind: OpPut, Key: []byte("a"), Val: []byte("1")}))
	e.Apply(udel(2, 5, Op{Kind: OpPut, Key: []byte("b"), Val: []byte("2")})) // below the max
	if v, ok := e.Get([]byte("b")); !ok || string(v) != "2" {
		t.Fatalf("lower-stamped delivery not applied: %q %v", v, ok)
	}
	if gts, _ := e.Frontier(); gts.Time != 10 {
		t.Errorf("frontier = %v, want the maximum stamp 10", gts)
	}
	applied, _, dups := e.Counters()
	if applied != 2 || dups != 0 {
		t.Errorf("applied=%d dups=%d, want 2/0", applied, dups)
	}
}

// TestUnorderedDedupesByStamp: re-delivering an already-applied stamp (a
// new-leader re-release) must be a no-op even though it is not below any
// frontier in the ordered sense.
func TestUnorderedDedupesByStamp(t *testing.T) {
	e := NewEngine(EngineConfig{Group: 0, Unordered: true})
	d := udel(1, 10, Op{Kind: OpPut, Key: []byte("a"), Val: []byte("1")})
	e.Apply(d)
	e.Apply(udel(2, 5, Op{Kind: OpDelete, Key: []byte("a")}))
	e.Apply(d) // duplicate: must NOT resurrect the deleted key
	if _, ok := e.Get([]byte("a")); ok {
		t.Fatal("duplicate re-applied: deleted key resurrected")
	}
	if _, _, dups := e.Counters(); dups != 1 {
		t.Errorf("duplicates = %d, want 1", dups)
	}
}

// TestUnorderedSnapshotRoundTrip: the v2 snapshot must carry the applied-
// stamp set, so a recovered engine still dedupes a replay of an old stamp
// that is below the frontier of nothing (unordered has no frontier proof).
func TestUnorderedSnapshotRoundTrip(t *testing.T) {
	e := NewEngine(EngineConfig{Group: 0, Unordered: true})
	e.Apply(udel(1, 10, Op{Kind: OpPut, Key: []byte("a"), Val: []byte("1")}))
	e.Apply(udel(2, 5, Op{Kind: OpPut, Key: []byte("b"), Val: []byte("2")}))
	snap := e.Snapshot()

	r := NewEngine(EngineConfig{Group: 0, Unordered: true})
	if err := r.Recover(snap, nil, []mcast.Delivery{
		udel(2, 5, Op{Kind: OpDelete, Key: []byte("b")}), // same stamp, already in snap: must be skipped
		udel(3, 7, Op{Kind: OpPut, Key: []byte("c"), Val: []byte("3")}),
	}); err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Get([]byte("b")); !ok || string(v) != "2" {
		t.Fatalf("snapshot stamp-set lost: replayed stamp re-applied (b=%q %v)", v, ok)
	}
	if v, ok := r.Get([]byte("c")); !ok || string(v) != "3" {
		t.Fatalf("fresh replay delivery not applied (c=%q %v)", v, ok)
	}
}

// TestUnorderedSnapshotVersionMismatch: an ordered engine must refuse a v2
// snapshot and vice versa — silently dropping the stamp set would corrupt
// recovery.
func TestUnorderedSnapshotVersionMismatch(t *testing.T) {
	u := NewEngine(EngineConfig{Group: 0, Unordered: true})
	u.Apply(udel(1, 10, Op{Kind: OpPut, Key: []byte("a"), Val: []byte("1")}))
	o := NewEngine(EngineConfig{Group: 0})
	if err := o.Recover(u.Snapshot(), nil, nil); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("ordered engine accepted an unordered snapshot: %v", err)
	}
	o2 := NewEngine(EngineConfig{Group: 0})
	o2.Apply(udel(1, 10, Op{Kind: OpPut, Key: []byte("a"), Val: []byte("1")}))
	u2 := NewEngine(EngineConfig{Group: 0, Unordered: true})
	if err := u2.Recover(o2.Snapshot(), nil, nil); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("unordered engine accepted an ordered snapshot: %v", err)
	}
}

// --- Check of an unordered engine ---

func papp(seq uint32, ts uint64, op Op, dest ...mcast.GroupID) Applied {
	return Applied{
		ID:      mcast.MakeMsgID(7, seq),
		GTS:     mcast.Timestamp{Time: ts, Group: 0},
		Dest:    mcast.NewGroupSet(dest...),
		Payload: EncodeOp(nil, op),
	}
}

func TestCheckUnorderedAllowsCommutingInversion(t *testing.T) {
	getA := papp(1, 1, Op{Kind: OpGet, Key: []byte("a")}, 0)
	getB := papp(2, 2, Op{Kind: OpGet, Key: []byte("b")}, 0)
	hs := []History{
		{PID: 0, Group: 0, Log: []Applied{getA, getB}, Digest: 42},
		{PID: 1, Group: 0, Log: []Applied{getB, getA}, Digest: 42}, // inverted: commuting, fine
	}
	if err := Check(hs, true, Conflicts); err != nil {
		t.Fatalf("commuting inversion flagged: %v", err)
	}
	// The strict checker must reject the same histories: the relaxation is
	// real, not a no-op.
	if err := Check(hs, true, nil); err == nil {
		t.Fatal("strict checker accepted an out-of-order history")
	}
}

func TestCheckUnorderedFlagsConflictingInversion(t *testing.T) {
	put1 := papp(1, 1, Op{Kind: OpPut, Key: []byte("k"), Val: []byte("1")}, 0)
	put2 := papp(2, 2, Op{Kind: OpPut, Key: []byte("k"), Val: []byte("2")}, 0)
	hs := []History{
		{PID: 0, Group: 0, Log: []Applied{put2, put1}}, // conflicting pair inverted
	}
	err := Check(hs, false, Conflicts)
	if err == nil || !strings.Contains(err.Error(), "stamp order inverted") {
		t.Fatalf("conflicting inversion not flagged: %v", err)
	}
}

func TestCheckUnorderedDigestOnEqualSets(t *testing.T) {
	a := papp(1, 1, Op{Kind: OpGet, Key: []byte("a")}, 0)
	b := papp(2, 2, Op{Kind: OpGet, Key: []byte("b")}, 0)
	hs := []History{
		{PID: 0, Group: 0, Log: []Applied{a, b}, Digest: 1},
		{PID: 1, Group: 0, Log: []Applied{b, a}, Digest: 2}, // same set, different digest
	}
	err := Check(hs, false, Conflicts)
	if err == nil || !strings.Contains(err.Error(), "digests differ") {
		t.Fatalf("digest divergence on equal sets not flagged: %v", err)
	}
}

func TestCheckUnorderedAtomicity(t *testing.T) {
	multi := papp(1, 1, Op{Kind: OpTxn, Subs: []Op{{Kind: OpPut, Key: []byte("k"), Val: []byte("v")}}}, 0, 1)
	hs := []History{
		{PID: 0, Group: 0, Log: []Applied{multi}},
		{PID: 1, Group: 1, Log: nil}, // shard 1 never applied the txn
	}
	err := Check(hs, true, Conflicts)
	if err == nil || !strings.Contains(err.Error(), "not atomic") {
		t.Fatalf("missing multi-shard application not flagged: %v", err)
	}
	if err := Check(hs, false, Conflicts); err != nil {
		t.Fatalf("incomplete run flagged without complete: %v", err)
	}
}

func TestCheckUnorderedKeepsExactlyOnceAndStamps(t *testing.T) {
	a := papp(1, 1, Op{Kind: OpGet, Key: []byte("a")}, 0)
	dup := []History{{PID: 0, Group: 0, Log: []Applied{a, a}}}
	if err := Check(dup, false, Conflicts); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate application not flagged: %v", err)
	}
	b := a
	b.GTS = mcast.Timestamp{Time: 9, Group: 0}
	disagree := []History{
		{PID: 0, Group: 0, Log: []Applied{a}},
		{PID: 1, Group: 0, Log: []Applied{b}},
	}
	if err := Check(disagree, false, Conflicts); err == nil || !strings.Contains(err.Error(), "Invariant 3b") {
		t.Fatalf("stamp disagreement not flagged: %v", err)
	}
}
