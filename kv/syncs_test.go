package kv_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"wbcast"
	"wbcast/kv"
)

// syncCounter counts the Sync calls of one replica's store.
type syncCounter struct {
	wbcast.Storage
	syncs *atomic.Int64
}

func (s syncCounter) Sync() error {
	s.syncs.Add(1)
	return s.Storage.Sync()
}

// TestSyncsPerPut guards the durable path's sync budget on the real stack:
// one shard of three replicas over TCP, in-memory stores, AppGCHorizon and
// a persisting kv engine — the configuration of wbcast-kv and of the
// benchmark's kv-durable — and 200 Puts, each submitted after the previous
// one was answered, so no two share a group commit. An operation needs one
// sync per acceptor: its ACCEPTED record, before the ACCEPT_ACK, the three
// in parallel. The leader's COMMITTED record, the delivery-time entries and
// the engine's redo records ride those syncs, and what is left is one
// frontier sync per follower per heartbeat interval in which it delivered;
// a follower still syncing when the next Put's ACCEPT arrives folds the two
// into one (2.0–2.5 measured). With every entry eager and the engine syncing
// its own appends this measured 10; with the leader's COMMITTED record
// eager, 3.3–3.7.
func TestSyncsPerPut(t *testing.T) {
	const ops, maxSyncsPerOp = 200, 3.6
	peers := make(map[wbcast.ProcessID]string)
	for pid := wbcast.ProcessID(0); pid <= 3; pid++ {
		peers[pid] = "127.0.0.1:0"
	}
	var syncs atomic.Int64
	cluster, err := wbcast.New(wbcast.Config{
		Groups: 1, Replicas: 3, Delta: 10 * time.Millisecond,
		Transport:    wbcast.TCP("", peers),
		AppGCHorizon: true,
		Storage: func(pid wbcast.ProcessID) (wbcast.Storage, error) {
			st, err := wbcast.MemoryStorage()(pid)
			return syncCounter{st, &syncs}, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	svc, err := kv.NewService(cluster, kv.Options{Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cl, err := svc.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := cl.Put(ctx, []byte("warm-up"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := syncs.Load()
	for i := 0; i < ops; i++ {
		if err := cl.Put(ctx, []byte(fmt.Sprintf("k%d", i%16)), []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	perOp := float64(syncs.Load()-before) / ops
	t.Logf("%.2f syncs per Put", perOp)
	if perOp > maxSyncsPerOp {
		t.Errorf("%.2f Sync calls per Put, want at most %v", perOp, maxSyncsPerOp)
	}
	if err := svc.Err(); err != nil {
		t.Error(err)
	}
}
