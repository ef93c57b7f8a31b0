package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"wbcast/internal/mcast"
	"wbcast/internal/wal"
)

func TestOpCodecRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpGet, Key: []byte("k1")},
		{Kind: OpGet, Key: []byte{}}, // empty key is legal
		{Kind: OpPut, Key: []byte("k2"), Val: []byte("hello")},
		{Kind: OpPut, Key: []byte("k3"), Val: []byte{}},
		{Kind: OpDelete, Key: []byte("k4")},
		{Kind: OpTxn, Subs: []Op{
			{Kind: OpPut, Key: []byte("a"), Val: []byte("1")},
			{Kind: OpGet, Key: []byte("b")},
			{Kind: OpDelete, Key: []byte("c")},
		}},
	}
	for _, op := range ops {
		enc := EncodeOp(nil, op)
		got, err := DecodeOp(enc)
		if err != nil {
			t.Fatalf("DecodeOp(%v): %v", op.Kind, err)
		}
		if got.Kind != op.Kind || !bytes.Equal(got.Key, op.Key) || !bytes.Equal(got.Val, op.Val) || len(got.Subs) != len(op.Subs) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, op)
		}
		for i := range op.Subs {
			if got.Subs[i].Kind != op.Subs[i].Kind || !bytes.Equal(got.Subs[i].Key, op.Subs[i].Key) {
				t.Fatalf("sub %d mismatch: %+v vs %+v", i, got.Subs[i], op.Subs[i])
			}
		}
	}
}

func TestOpCodecRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty":       nil,
		"bad version": {99, byte(OpGet), 0},
		"bad kind":    {opCodecVersion, 77},
		"truncated":   EncodeOp(nil, Op{Kind: OpPut, Key: []byte("k"), Val: []byte("v")})[:3],
		"trailing":    append(EncodeOp(nil, Op{Kind: OpGet, Key: []byte("k")}), 0xff),
		"nested txn":  append(append([]byte{opCodecVersion, byte(OpTxn), 1}, byte(OpTxn)), 0),
	}
	for name, data := range cases {
		if _, err := DecodeOp(data); err == nil {
			t.Errorf("%s: DecodeOp accepted %x", name, data)
		}
	}
}

func TestAppliedCodecRoundTrip(t *testing.T) {
	d := mcast.Delivery{
		Msg: mcast.AppMsg{ID: mcast.MakeMsgID(7, 42), Payload: []byte("payload")},
		GTS: mcast.Timestamp{Time: 9, Group: 2},
		Sub: 3,
	}
	got, err := DecodeApplied(EncodeApplied(d))
	if err != nil {
		t.Fatal(err)
	}
	if got.GTS != d.GTS || got.Sub != d.Sub || !bytes.Equal(got.Msg.Payload, d.Msg.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, d)
	}
}

// deliver builds a delivery carrying op at position (time, sub).
func deliver(id uint32, op Op, time uint64, sub int, dest ...mcast.GroupID) mcast.Delivery {
	if len(dest) == 0 {
		dest = []mcast.GroupID{0}
	}
	return mcast.Delivery{
		Msg: mcast.AppMsg{ID: mcast.MakeMsgID(100, id), Dest: mcast.NewGroupSet(dest...), Payload: EncodeOp(nil, op)},
		GTS: mcast.Timestamp{Time: time, Group: 0},
		Sub: sub,
	}
}

func TestEngineApplyAndDedupe(t *testing.T) {
	var resps []Resp
	e := NewEngine(EngineConfig{Group: 0, OnResult: func(r Resp) { resps = append(resps, r) }, RecordApplied: true})

	put := deliver(1, Op{Kind: OpPut, Key: []byte("k"), Val: []byte("v1")}, 1, 0)
	get := deliver(2, Op{Kind: OpGet, Key: []byte("k")}, 2, 0)
	e.Apply(put)
	e.Apply(put) // duplicate: same position
	e.Apply(get)
	e.Apply(put) // stale: below frontier

	if len(resps) != 2 {
		t.Fatalf("got %d responses, want 2", len(resps))
	}
	if !resps[1].Results[0].Found || string(resps[1].Results[0].Val) != "v1" {
		t.Fatalf("get saw %+v", resps[1].Results[0])
	}
	if applied, _, dups := func() (uint64, uint64, uint64) { return e.Counters() }(); applied != 2 || dups != 2 {
		t.Fatalf("counters applied=%d dups=%d, want 2/2", applied, dups)
	}
	if gts, sub := e.Frontier(); gts.Time != 2 || sub != 0 {
		t.Fatalf("frontier (%v,%d)", gts, sub)
	}
}

func TestEngineSubOrderWithinBatch(t *testing.T) {
	e := NewEngine(EngineConfig{Group: 0})
	// Two payloads sharing a GTS, distinguished by Sub: both must apply.
	e.Apply(deliver(1, Op{Kind: OpPut, Key: []byte("a"), Val: []byte("1")}, 5, 0))
	e.Apply(deliver(2, Op{Kind: OpPut, Key: []byte("b"), Val: []byte("2")}, 5, 1))
	if e.Len() != 2 {
		t.Fatalf("Len = %d, want 2", e.Len())
	}
}

func TestEngineOwnership(t *testing.T) {
	var resp Resp
	e := NewEngine(EngineConfig{
		Group:    1,
		Owns:     func(key []byte) bool { return key[0] == 'b' },
		OnResult: func(r Resp) { resp = r },
	})
	txn := Op{Kind: OpTxn, Subs: []Op{
		{Kind: OpPut, Key: []byte("a1"), Val: []byte("x")},
		{Kind: OpPut, Key: []byte("b1"), Val: []byte("y")},
	}}
	e.Apply(deliver(1, txn, 1, 0, 0, 1))
	if resp.Results[0].Owned || !resp.Results[1].Owned {
		t.Fatalf("ownership flags %+v", resp.Results)
	}
	if e.Len() != 1 {
		t.Fatalf("engine stored %d keys, want only the owned one", e.Len())
	}
}

// memPersist collects app records like a WAL would.
type memPersist struct {
	snap []byte
	log  [][]byte
}

func (p *memPersist) AppendAppState(recs ...[]byte) error {
	for _, r := range recs {
		p.log = append(p.log, append([]byte(nil), r...))
	}
	return nil
}

func (p *memPersist) SaveAppSnapshot(snap []byte) error {
	p.snap = append([]byte(nil), snap...)
	p.log = nil
	return nil
}

func TestEngineSnapshotRecoverRoundTrip(t *testing.T) {
	p := &memPersist{}
	e := NewEngine(EngineConfig{Group: 0, Persist: p})
	for i := uint32(0); i < 8; i++ {
		op := Op{Kind: OpPut, Key: []byte(fmt.Sprintf("k%d", i)), Val: []byte(fmt.Sprintf("v%d", i))}
		e.Apply(deliver(i+1, op, uint64(i+1), 0))
	}
	// The log was compacted each time it reached the last snapshot's length,
	// the last time at op 7; op 8's record is what follows.
	if p.snap == nil || len(p.log) != 1 || recBytes(p.log) >= len(p.snap) {
		t.Fatalf("persist state: snap=%d bytes, log=%d records of %d bytes", len(p.snap), len(p.log), recBytes(p.log))
	}

	// A replica restart also replays committed-but-unlogged deliveries.
	replay := []mcast.Delivery{
		deliver(8, Op{Kind: OpPut, Key: []byte("k7"), Val: []byte("v7")}, 8, 0), // duplicate of logged tail
		deliver(9, Op{Kind: OpDelete, Key: []byte("k0")}, 9, 0),                 // beyond the log
	}
	r := NewEngine(EngineConfig{Group: 0, Persist: p})
	if err := r.Recover(p.snap, p.log, replay); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 7 { // 8 puts, one deleted
		t.Fatalf("recovered %d keys, want 7", r.Len())
	}
	if _, ok := r.Get([]byte("k0")); ok {
		t.Fatal("k0 survived its replayed delete")
	}
	if gts, _ := r.Frontier(); gts.Time != 9 {
		t.Fatalf("recovered frontier %v, want time 9", gts)
	}
	// The replayed-but-unlogged delete was re-logged for the next crash.
	if len(p.log) != 2 {
		t.Fatalf("replay re-logging left %d records, want 2", len(p.log))
	}

	if e2 := NewEngine(EngineConfig{Group: 0}); func() bool {
		if err := e2.Recover(p.snap, p.log, nil); err != nil {
			t.Fatal(err)
		}
		return e2.Digest() != r.Digest()
	}() {
		t.Fatal("digest mismatch after second recovery")
	}
}

// TestSnapshotCountsBoundedByInput: a snapshot's key count and stamp-set
// count are refused when they exceed the bytes left, before anything is
// allocated for them. Taken at its word, the 10-byte snapshot below would
// reserve a map of ≈ 6 GiB.
func TestSnapshotCountsBoundedByInput(t *testing.T) {
	claim := binary.AppendUvarint(nil, 1<<26)
	for _, unordered := range []bool{false, true} {
		// Version, frontier (0, 0) and sub 0, then the count: of keys
		// (ordered), of applied stamps (unordered).
		snap := append([]byte{snapshotVersion, 0, 0, 0}, claim...)
		if unordered {
			snap[0] = snapshotVersionUnordered
		}
		snap = append(snap, 0, 0) // one empty key, or a stamp's first bytes
		e := NewEngine(EngineConfig{Unordered: unordered})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := e.Recover(snap, nil, nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("unordered=%v: a %d-byte snapshot claiming 2^26 entries restored", unordered, len(snap))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("unordered=%v: refusing the snapshot allocated %d bytes", unordered, grew)
		}
	}
}

// statePersist folds what an engine hands over into a wal.State, as a
// replica's log does once it is read back.
type statePersist struct{ s *wal.State }

func (p statePersist) AppendAppState(recs ...[]byte) error {
	for _, rec := range recs {
		p.s.Apply(wal.Entry{Kind: wal.EntryApp, App: rec})
	}
	return nil
}

func (p statePersist) SaveAppSnapshot(snap []byte) error {
	p.s.Apply(wal.Entry{Kind: wal.EntryAppSnapshot, App: snap})
	return nil
}

// TestEngineAppLogBoundedByState holds the compaction rule under load: 10⁵
// Puts over 10³ keys, in batches of 1 to 64. After every batch the folded
// app log is no longer than the app snapshot plus that batch's records, and
// the folded state recovers the live engine's digest and frontier. Then a
// restart: an engine recovers from the same state and a replay of 200
// deliveries the log never received, and goes on logging into the state.
// It counts the log it recovered and the replay it re-logged, so its first
// batch, which leaves the log shorter than the snapshot, saves none, and the
// bound holds for 10⁴ Puts more.
func TestEngineAppLogBoundedByState(t *testing.T) {
	const puts, keys = 100_000, 1000
	st := wal.NewState()
	n, snapshots := 0, 0
	// run applies Puts up to n = to and checks the bound after every batch.
	next := func(ds []mcast.Delivery) (recs [][]byte) {
		for i := range ds {
			n++
			op := Op{Kind: OpPut, Key: []byte(fmt.Sprintf("key-%d", n*7919%keys)), Val: []byte(fmt.Sprintf("value-%d", n))}
			ds[i] = deliver(uint32(n), op, uint64(n), 0)
			recs = append(recs, EncodeApplied(ds[i]))
		}
		return recs
	}
	run := func(e *Engine, to int) {
		t.Helper()
		for n < to {
			batch := make([]mcast.Delivery, min(1+n%maxApplyBatch, to-n))
			recs := next(batch)
			prev := st.AppSnapshot
			e.apply(batch)
			if got, bound := recBytes(st.AppLog), len(st.AppSnapshot)+recBytes(recs); got > bound {
				t.Fatalf("after %d puts the app log holds %d bytes, more than the %d-byte snapshot plus the batch's %d", n, got, len(st.AppSnapshot), recBytes(recs))
			}
			if !bytes.Equal(st.AppSnapshot, prev) {
				snapshots++
			}
		}
		if e.Err() != nil {
			t.Fatal(e.Err())
		}
	}
	e := NewEngine(EngineConfig{Group: 0, Persist: statePersist{st}})
	run(e, puts)
	t.Logf("%d snapshots; at the end a %d-byte snapshot and a %d-record, %d-byte log", snapshots, len(st.AppSnapshot), len(st.AppLog), recBytes(st.AppLog))

	v := NewEngine(EngineConfig{Group: 0})
	if err := v.Recover(st.AppSnapshot, st.AppLog, nil); err != nil {
		t.Fatal(err)
	}
	if v.Digest() != e.Digest() || v.Len() != keys {
		t.Fatalf("recovered %d keys with another digest than the live engine's %d", v.Len(), e.Len())
	}
	wantGTS, wantSub := e.Frontier()
	if gts, sub := v.Frontier(); gts != wantGTS || sub != wantSub {
		t.Fatalf("recovered frontier (%v,%d), want (%v,%d)", gts, sub, wantGTS, wantSub)
	}

	r := NewEngine(EngineConfig{Group: 0, Persist: statePersist{st}})
	replay := make([]mcast.Delivery, 200)
	next(replay)
	if err := r.Recover(st.AppSnapshot, st.AppLog, replay); err != nil {
		t.Fatal(err)
	}
	before := snapshots
	run(r, n+1)
	if snapshots != before || recBytes(st.AppLog) >= len(st.AppSnapshot) {
		t.Fatalf("the first batch after recovery saved %d snapshots, with a %d-byte log and a %d-byte snapshot; want none", snapshots-before, recBytes(st.AppLog), len(st.AppSnapshot))
	}
	run(r, n+puts/10)
}

// TestEngineRecoverRepeatedLog: a crash between a WAL snapshot's rename and
// the WAL's truncation hands Recover the untruncated WAL's app records a
// second time (docs/DURABILITY.md). Recover over that log must end with the
// shard that crashed: the same digest and the same frontier.
func TestEngineRecoverRepeatedLog(t *testing.T) {
	for _, unordered := range []bool{false, true} {
		p := &memPersist{}
		e := NewEngine(EngineConfig{Group: 0, Persist: p, Unordered: unordered})
		for i := uint32(0); i < 9; i++ {
			op := Op{Kind: OpPut, Key: []byte(fmt.Sprintf("k%d", i%4)), Val: []byte(fmt.Sprintf("v%d", i))}
			if i == 5 {
				op = Op{Kind: OpDelete, Key: []byte("k2")}
			}
			e.Apply(deliver(i+1, op, uint64(i+1), 0))
		}
		if p.snap == nil || len(p.log) < 2 {
			t.Fatalf("persist state: snap=%v logs=%d, want a snapshot and at least 2 records", p.snap != nil, len(p.log))
		}
		repeated := append(slices.Clone(p.log), p.log[1:]...)
		r := NewEngine(EngineConfig{Group: 0, Unordered: unordered})
		if err := r.Recover(p.snap, repeated, nil); err != nil {
			t.Fatal(err)
		}
		if r.Digest() != e.Digest() {
			t.Fatalf("unordered=%v: digest after recovering a repeated log differs", unordered)
		}
		wantGTS, wantSub := e.Frontier()
		if gts, sub := r.Frontier(); gts != wantGTS || sub != wantSub {
			t.Fatalf("unordered=%v: frontier (%v,%d), want (%v,%d)", unordered, gts, sub, wantGTS, wantSub)
		}
	}
}

// TestEngineDurableFrontierHook pins the GC-horizon contract: the hook
// fires with the PREVIOUS global timestamp only when the applied GTS
// advances past it under a successful persist — never for further subs of
// the same batch, never for the first timestamp (no predecessor), and
// never on replayed recovery applies.
func TestEngineDurableFrontierHook(t *testing.T) {
	var horizons []mcast.Timestamp
	p := &memPersist{}
	e := NewEngine(EngineConfig{Group: 0, Persist: p,
		OnDurableFrontier: func(ts mcast.Timestamp) { horizons = append(horizons, ts) }})

	put := func(k string) Op { return Op{Kind: OpPut, Key: []byte(k), Val: []byte("v")} }
	e.Apply(deliver(1, put("a"), 1, 0)) // first GTS: no predecessor, no hook
	e.Apply(deliver(2, put("b"), 2, 0)) // GTS 1→2: horizon 1
	e.Apply(deliver(2, put("c"), 2, 1)) // same GTS, next sub: no hook
	e.Apply(deliver(3, put("d"), 5, 0)) // GTS 2→5: horizon 2 (all subs of 2 logged)
	want := []mcast.Timestamp{{Time: 1, Group: 0}, {Time: 2, Group: 0}}
	if len(horizons) != len(want) || horizons[0] != want[0] || horizons[1] != want[1] {
		t.Fatalf("horizons = %v, want %v", horizons, want)
	}

	// Recovery replays (persist=false up to the re-log batch) must not
	// raise the horizon: the records being replayed are the proof they
	// were still needed.
	horizons = nil
	r := NewEngine(EngineConfig{Group: 0, Persist: p,
		OnDurableFrontier: func(ts mcast.Timestamp) { horizons = append(horizons, ts) }})
	if err := r.Recover(p.snap, p.log, []mcast.Delivery{deliver(4, put("e"), 6, 0)}); err != nil {
		t.Fatal(err)
	}
	if len(horizons) != 0 {
		t.Fatalf("recovery raised horizons %v, want none", horizons)
	}
	// The first live apply after recovery advances past everything
	// recovered in one step.
	r.Apply(deliver(5, put("f"), 9, 0))
	if len(horizons) != 1 || horizons[0] != (mcast.Timestamp{Time: 6, Group: 0}) {
		t.Fatalf("post-recovery horizons = %v, want [{6 0}]", horizons)
	}
}

// TestEngineRunGroupCommit pins Run's batch contract: deliveries already
// queued on the channel are logged with one AppendAppState call, the durable
// frontier (the largest GTS strictly below the batch's last) is raised only
// after it, every delivery is answered after it, and a failing append
// answers none.
func TestEngineRunGroupCommit(t *testing.T) {
	put := func(k string) Op { return Op{Kind: OpPut, Key: []byte(k), Val: []byte("v")} }
	for _, fail := range []bool{false, true} {
		var events []string
		p := &hookPersist{append: func(recs [][]byte) error {
			events = append(events, fmt.Sprintf("append %d", len(recs)))
			if fail {
				return errors.New("injected append failure")
			}
			return nil
		}}
		e := NewEngine(EngineConfig{Group: 0, Persist: p,
			OnResult:          func(r Resp) { events = append(events, fmt.Sprintf("result %d", r.ID.Seq())) },
			OnDurableFrontier: func(ts mcast.Timestamp) { events = append(events, fmt.Sprintf("frontier %d", ts.Time)) },
		})
		ch := make(chan mcast.Delivery, 4)
		ch <- deliver(1, put("a"), 1, 0)
		ch <- deliver(2, put("b"), 2, 0)
		ch <- deliver(3, put("c"), 3, 0)
		ch <- deliver(3, put("d"), 3, 1) // same envelope: GTS 3 is not yet below the horizon
		close(ch)
		e.Run(ch)
		want := "[append 4 frontier 2 result 1 result 2 result 3 result 3]"
		if fail {
			want = "[append 4]"
		}
		if got := fmt.Sprint(events); got != want {
			t.Errorf("fail=%v: events %s, want %s", fail, got, want)
		}
		if (e.Err() != nil) != fail {
			t.Errorf("fail=%v: Err() = %v", fail, e.Err())
		}
	}
}

// hookPersist is a Persister whose append is the test's.
type hookPersist struct{ append func(recs [][]byte) error }

func (p *hookPersist) AppendAppState(recs ...[]byte) error { return p.append(recs) }
func (p *hookPersist) SaveAppSnapshot([]byte) error        { return nil }

// handed is one thing handed to a queuePersist, or a horizon raised next to
// it: a redo record (kept, not decoded), a snapshot, or the horizon.
type handed struct {
	rec      []byte
	snapshot bool
	horizon  uint64
}

// queuePersist is a Persister as wbcast.Replica is one: AppendAppState and
// SaveAppSnapshot only queue what they are given, in the caller's order, for
// a log writer that in these tests never runs — nothing is ever synced. It
// keeps the records' bytes past the call, as the replica's shard loop does.
type queuePersist struct{ q *[]handed }

func (p queuePersist) AppendAppState(recs ...[]byte) error {
	for _, rec := range recs {
		*p.q = append(*p.q, handed{rec: rec})
	}
	return nil
}

func (p queuePersist) SaveAppSnapshot([]byte) error {
	*p.q = append(*p.q, handed{snapshot: true})
	return nil
}

// TestEngineAnswersOnHandOff: with a persister that only queues, every
// operation is still answered — the engine waits for no sync — and in the
// one order the persister and the horizon hook are called in, each horizon
// follows every record at or below it: the replica's log receives them in
// that order, which is the whole argument for letting the horizon outrun
// the sync (docs/DURABILITY.md). The queued bytes stay what they were.
func TestEngineAnswersOnHandOff(t *testing.T) {
	var q []handed
	results := 0
	e := NewEngine(EngineConfig{Group: 0, Persist: queuePersist{&q},
		OnResult:          func(Resp) { results++ },
		OnDurableFrontier: func(ts mcast.Timestamp) { q = append(q, handed{horizon: ts.Time}) },
	})
	put := func(k string) Op { return Op{Kind: OpPut, Key: []byte(k), Val: []byte("v")} }
	ch := make(chan mcast.Delivery, 3)
	ch <- deliver(1, put("a"), 1, 0)
	ch <- deliver(2, put("b"), 2, 0)
	ch <- deliver(2, put("c"), 2, 1)
	go func() { // a second drain: each batch is queued before its horizon
		ch <- deliver(3, put("d"), 3, 0)
		ch <- deliver(4, put("e"), 4, 0)
		close(ch)
	}()
	e.Run(ch)
	if results != 5 || e.Err() != nil {
		t.Fatalf("%d results, Err %v; want 5 answered with nothing synced", results, e.Err())
	}
	var events []string
	for _, h := range q {
		switch {
		case h.rec != nil:
			d, err := DecodeApplied(h.rec)
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, fmt.Sprintf("record %d.%d", d.GTS.Time, d.Sub))
		case h.snapshot:
			events = append(events, "snapshot")
		default:
			for k := uint64(1); k <= h.horizon; k++ {
				if !slices.Contains(events, fmt.Sprintf("record %d.0", k)) {
					t.Errorf("horizon %d raised before record %d.0 was handed over; so far %v", h.horizon, k, events)
				}
			}
			events = append(events, fmt.Sprintf("horizon %d", h.horizon))
		}
	}
	records := slices.DeleteFunc(slices.Clone(events), func(ev string) bool { return !strings.HasPrefix(ev, "record") })
	if want := "[record 1.0 record 2.0 record 2.1 record 3.0 record 4.0]"; fmt.Sprint(records) != want {
		t.Errorf("records reached the persister as %v, want %s", records, want)
	}
	if !slices.Contains(events, "snapshot") || !slices.Contains(events, "horizon 3") {
		t.Errorf("events %v: want a snapshot and horizon 3", events)
	}
}

// TestEngineRecoverBothCrashShapes: a lazily logged tail can be cut at any
// entry, so a restarted engine finds either its app log shorter than the
// protocol's delivery frontier (the records of the last deliveries were not
// yet in the log: the protocol's replay covers them) or longer (the frontier
// entry that was synced is older than the app records riding a later sync:
// the replica re-delivers what the log already holds). Both converge to the
// digest of an uninterrupted run once the group's catch-up has re-delivered
// everything above the protocol frontier.
func TestEngineRecoverBothCrashShapes(t *testing.T) {
	var ds []mcast.Delivery
	var log [][]byte
	whole := NewEngine(EngineConfig{Group: 0})
	for i := uint32(1); i <= 8; i++ {
		op := Op{Kind: OpPut, Key: []byte(fmt.Sprintf("k%d", i%3)), Val: []byte(fmt.Sprintf("v%d", i))}
		if i == 5 {
			op = Op{Kind: OpDelete, Key: []byte("k1")}
		}
		ds = append(ds, deliver(i, op, uint64(i), 0))
		log = append(log, EncodeApplied(ds[i-1]))
		whole.Apply(ds[i-1])
	}
	for _, tc := range []struct {
		name              string
		logged, protocolF int // the app log holds ds[:logged], the frontier is ds[protocolF-1]
		relogged, dups    int
	}{
		{"app log shorter than the protocol frontier", 4, 6, 2, 0},
		{"app log longer than the protocol frontier", 6, 3, 0, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &memPersist{}
			e := NewEngine(EngineConfig{Group: 0, Persist: p})
			// Replay is every committed record at or below the frontier that
			// the horizon (below the app log's last record) kept from pruning.
			if err := e.Recover(nil, log[:tc.logged], ds[min(tc.logged, tc.protocolF)-1:tc.protocolF]); err != nil {
				t.Fatal(err)
			}
			if len(p.log) != tc.relogged {
				t.Errorf("recovery re-logged %d records, want %d", len(p.log), tc.relogged)
			}
			for _, d := range ds[tc.protocolF:] { // live catch-up, above the protocol frontier
				e.Apply(d)
			}
			if _, _, dups := e.Counters(); int(dups) != tc.dups {
				t.Errorf("%d duplicate deliveries skipped, want %d", dups, tc.dups)
			}
			if e.Digest() != whole.Digest() {
				t.Error("digest differs from the uninterrupted run's")
			}
		})
	}
}

func TestEngineDigestMatchesAcrossOrderEquivalentReplicas(t *testing.T) {
	ops := []mcast.Delivery{
		deliver(1, Op{Kind: OpPut, Key: []byte("x"), Val: []byte("1")}, 1, 0),
		deliver(2, Op{Kind: OpPut, Key: []byte("y"), Val: []byte("2")}, 2, 0),
		deliver(3, Op{Kind: OpDelete, Key: []byte("x")}, 3, 0),
	}
	a, b := NewEngine(EngineConfig{Group: 0}), NewEngine(EngineConfig{Group: 0})
	for _, d := range ops {
		a.Apply(d)
		b.Apply(d)
	}
	if a.Digest() != b.Digest() {
		t.Fatal("same history, different digests")
	}
	b.Apply(deliver(4, Op{Kind: OpPut, Key: []byte("z"), Val: []byte("3")}, 4, 0))
	if a.Digest() == b.Digest() {
		t.Fatal("different histories, same digest")
	}
}

func TestCheckerCatchesViolations(t *testing.T) {
	ap := func(id uint32, time uint64, dest ...mcast.GroupID) Applied {
		return Applied{ID: mcast.MakeMsgID(1, id), GTS: mcast.Timestamp{Time: time}, Dest: mcast.NewGroupSet(dest...)}
	}
	ok := []History{
		{PID: 0, Group: 0, Log: []Applied{ap(1, 1, 0), ap(3, 3, 0, 1)}},
		{PID: 1, Group: 0, Log: []Applied{ap(1, 1, 0), ap(3, 3, 0, 1)}},
		{PID: 2, Group: 1, Log: []Applied{ap(2, 2, 1), ap(3, 3, 0, 1)}},
	}
	if err := Check(ok, true, nil); err != nil {
		t.Fatalf("valid histories rejected: %v", err)
	}

	// Each case names the class of violation it must be reported as.
	cases := map[string][]History{
		"gts: p0 delivered m(1.1) with (GTS,sub) ((1,g0),0) not above previous": {
			{PID: 0, Group: 0, Log: []Applied{ap(3, 3, 0), ap(1, 1, 0)}},
		},
		"integrity: p0 delivered m(1.1) twice": {
			{PID: 0, Group: 0, Log: []Applied{ap(1, 1, 0), ap(1, 1, 0)}},
		},
		"(Invariant 3b)": {
			{PID: 0, Group: 0, Log: []Applied{ap(3, 3, 0, 1)}},
			{PID: 2, Group: 1, Log: []Applied{ap(3, 4, 0, 1)}},
		},
		"gap: p1 delivered m(1.4) at group position 1": {
			{PID: 0, Group: 0, Log: []Applied{ap(1, 1, 0), ap(2, 2, 0)}},
			{PID: 1, Group: 0, Log: []Applied{ap(1, 1, 0), ap(4, 4, 0)}},
		},
		"validity: p0 (group 0) delivered m(1.1) addressed to": {
			{PID: 0, Group: 0, Log: []Applied{ap(1, 1, 1)}},
		},
		"replicas 0 and 1 applied the same log but digests differ": {
			{PID: 0, Group: 0, Log: []Applied{ap(1, 1, 0)}, Digest: 7},
			{PID: 1, Group: 0, Log: []Applied{ap(1, 1, 0)}, Digest: 8},
		},
	}
	for want, hs := range cases {
		if err := Check(hs, false, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v, want %q", err, want)
		}
	}

	// A multi-shard op applied at only one of its shards is the atomicity
	// failure; only the complete check can flag it.
	partial := []History{
		{PID: 0, Group: 0, Log: []Applied{ap(3, 3, 0, 1)}},
		{PID: 2, Group: 1, Log: nil},
	}
	if err := Check(partial, false, nil); err != nil {
		t.Fatalf("in-flight txn flagged by incomplete check: %v", err)
	}
	if err := Check(partial, true, nil); err == nil {
		t.Error("non-atomic txn accepted by complete check")
	}
}

// TestCheckerReportsTheSameViolation: with a divergence in every shard, the
// checker names the lowest shard on every run, of an ordered engine and of
// an unordered one.
func TestCheckerReportsTheSameViolation(t *testing.T) {
	ap := func(id uint32, time uint64, g mcast.GroupID) Applied {
		return Applied{ID: mcast.MakeMsgID(1, id), GTS: mcast.Timestamp{Time: time}, Dest: mcast.NewGroupSet(g)}
	}
	// In every shard the second replica applied another operation at the
	// same stamp: the logs diverge, and the stamp sets are equal.
	var hs []History
	for g := mcast.GroupID(0); g < 8; g++ {
		id := 10 * uint32(g)
		hs = append(hs,
			History{PID: mcast.ProcessID(2 * g), Group: g, Log: []Applied{ap(id+1, 1, g), ap(id+2, 2, g)}, Digest: 1},
			History{PID: mcast.ProcessID(2*g + 1), Group: g, Log: []Applied{ap(id+1, 1, g), ap(id+3, 2, g)}, Digest: 2})
	}
	for _, c := range []struct {
		name  string
		check func() error
		want  string
	}{
		{"ordered", func() error { return Check(hs, false, nil) }, "kvstore: shard 0: gap: p1 delivered m(1.3) at group position 1 where m(1.2)"},
		{"unordered", func() error { return Check(hs, false, Conflicts) }, "kvstore: shard 0: replicas 0 and 1 applied the same set but digests differ"},
	} {
		for run := 0; run < 10; run++ {
			if err := c.check(); err == nil || !strings.HasPrefix(err.Error(), c.want) {
				t.Fatalf("%s, run %d: %v, want %q…", c.name, run, err, c.want)
			}
		}
	}
}
