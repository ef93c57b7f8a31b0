package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"wbcast/internal/kvstore"
	"wbcast/internal/mcast"
	"wbcast/internal/msgs"
	"wbcast/internal/ordering"
	"wbcast/internal/ring"
	"wbcast/internal/wal"
	"wbcast/internal/wire"
	"wbcast/kv"
)

// Direct-call probes: each calls one layer's exported functions in a loop,
// outside any deployment, and reports the cost of one call. They say what a
// layer costs in isolation; the traced run says what it costs in situ.

const probeIters = 200_000

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// fastPathMessages is one message of each kind the collision-free path of
// a single-group kv operation puts on the wire, with a kv-sized payload.
func fastPathMessages(payload []byte) []msgs.Message {
	id := mcast.MakeMsgID(9, 1)
	bal := mcast.Ballot{N: 1, Proc: 0}
	ts := mcast.Timestamp{Time: 1234567, Group: 0}
	app := mcast.AppMsg{ID: id, Dest: mcast.NewGroupSet(0), Payload: payload}
	return []msgs.Message{
		msgs.Multicast{M: app},
		msgs.Accept{M: app, Group: 0, Bal: bal, LTS: ts},
		msgs.AcceptAck{ID: id, Group: 0, Bals: []msgs.GroupBallot{{Group: 0, Bal: bal}}},
		msgs.Deliver{ID: id, Bal: bal, LTS: ts, GTS: ts, Prev: ts},
	}
}

func probeWire(res *result, payload []byte) error {
	ms := fastPathMessages(payload)
	frames := make([][]byte, len(ms))
	for i, m := range ms {
		f, err := wire.Encode(nil, m)
		if err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
		frames[i] = f
	}
	buf := make([]byte, 0, 1024)
	m0 := mallocs()
	t0 := time.Now()
	for i := 0; i < probeIters; i++ {
		var err error
		if buf, err = wire.Encode(buf[:0], ms[i%len(ms)]); err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
	}
	res.Metrics["wire.encode_ns_per_msg"] = float64(time.Since(t0)) / probeIters
	res.Metrics["wire.encode_allocs_per_msg"] = float64(mallocs()-m0) / probeIters
	t0 = time.Now()
	for i := 0; i < probeIters; i++ {
		if _, err := wire.DecodeBorrowed(frames[i%len(frames)]); err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
	}
	res.Metrics["wire.decode_ns_per_msg"] = float64(time.Since(t0)) / probeIters
	return nil
}

func probeRing(res *result) {
	q := ring.New[int](64) // tcpnet's default mailbox size
	t0 := time.Now()
	for i := 0; i < probeIters; i++ {
		q.Enqueue(i)
		q.Dequeue()
	}
	res.Metrics["ring.enqueue_dequeue_ns"] = float64(time.Since(t0)) / probeIters
}

// probeOrdering times one message's pass through the delivery queue —
// SetPending, Commit, PopDeliverable — with 16 other messages pending, the
// depth the 16 in-flight operations of a kv workload produce.
func probeOrdering(res *result) error {
	q := ordering.NewQueue()
	const depth = 16
	var clock uint64
	next := func() (mcast.MsgID, mcast.Timestamp) {
		clock++
		return mcast.MakeMsgID(9, uint32(clock)), mcast.Timestamp{Time: clock, Group: 0}
	}
	type pend struct {
		id mcast.MsgID
		ts mcast.Timestamp
	}
	var fifo []pend
	for i := 0; i < depth; i++ {
		id, ts := next()
		q.SetPending(id, ts)
		fifo = append(fifo, pend{id, ts})
	}
	t0 := time.Now()
	for i := 0; i < probeIters; i++ {
		id, ts := next()
		q.SetPending(id, ts)
		fifo = append(fifo, pend{id, ts})
		oldest := fifo[0]
		fifo = fifo[1:]
		q.Commit(oldest.id, oldest.ts)
		if got, _, ok := q.PopDeliverable(); !ok || got != oldest.id {
			return fmt.Errorf("ordering probe: popped %v ok=%v, want %v", got, ok, oldest.id)
		}
	}
	res.Metrics["ordering.commit_pop_ns"] = float64(time.Since(t0)) / probeIters
	return nil
}

// probeKVStore applies the workload's own op stream to a bare engine.
func probeKVStore(res *result, wl *kv.Workload, seed int64) error {
	part := kv.HashPartitioner{}
	eng := kvstore.NewEngine(kvstore.EngineConfig{
		Group: 0,
		Owns:  func(key []byte) bool { return part.Shard(key, numGroups) == 0 },
	})
	src := newOpSource(wl, seed, 0)
	ds := make([]mcast.Delivery, probeIters)
	for i := range ds {
		op := src.next()
		ds[i] = mcast.Delivery{
			Msg: mcast.AppMsg{ID: mcast.MakeMsgID(9, uint32(i+1)), Dest: mcast.NewGroupSet(0), Payload: kvstore.EncodeOp(nil, op)},
			GTS: mcast.Timestamp{Time: uint64(i + 1), Group: 0},
		}
	}
	m0 := mallocs()
	t0 := time.Now()
	for _, d := range ds {
		eng.Apply(d)
	}
	res.Metrics["kvstore.apply_allocs_per_op"] = float64(mallocs()-m0) / probeIters
	res.Info["kvstore.apply_direct_us_mean"] = float64(time.Since(t0)) / probeIters / 1e3
	if err := eng.Err(); err != nil {
		return fmt.Errorf("kvstore probe: %w", err)
	}
	if applied, _, _ := eng.Counters(); applied != probeIters {
		return fmt.Errorf("kvstore probe: applied %d of %d", applied, probeIters)
	}
	return nil
}

// probeFsync times 200 real Append+Sync calls on this host's disk under
// SyncAlways. Informational: it says what the injected sync cost stands in
// for here, and is never gated.
func probeFsync(res *result, dataDir string) error {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(dataDir, "fsync-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := wal.OpenDisk(dir, wal.DiskOptions{Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer d.Close()
	rec := make([]byte, 128)
	var us []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := d.Append(wal.Entry{Kind: wal.EntryApp, App: rec}); err != nil {
			return err
		}
		if err := d.Sync(); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	sort.Float64s(us)
	res.Metrics["wal.fsync_real_us_p50"] = quantile(us, 0.50)
	return nil
}

// runProbes fills in the direct-call per-layer metrics. A probe that fails
// its own check fails the run.
func runProbes(res *result, wl *kv.Workload, seed int64, dataDir string) {
	payload := kvstore.EncodeOp(nil, kv.Op{Kind: kv.OpPut, Key: kv.WorkloadKey(1, numKeys), Val: make([]byte, valueSize)})
	probeRing(res)
	for _, err := range []error{
		probeWire(res, payload),
		probeOrdering(res),
		probeKVStore(res, wl, seed),
		probeFsync(res, dataDir),
	} {
		if err != nil {
			res.fail(err)
		}
	}
}
