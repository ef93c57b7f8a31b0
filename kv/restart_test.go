package kv

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"wbcast"
	"wbcast/internal/obs"
	"wbcast/internal/wal"
)

// TestRestartCostFlat: what a restart reads does not grow with history. One
// durable replica (the disk WAL under SyncNone, AppGCHorizon, a persisting
// kv engine) takes N Puts of 4 KiB values over 64 keys, and then 9·N more;
// after each run a copy of its store is reopened as a fresh deployment. At
// N and at 10·N both the WAL entries the store replays and the app records
// the engine is handed back stay under constants of the state:
//   - the WAL is compacted once it outgrows max(4 MiB, its last snapshot),
//     and the snapshot (a 256 KiB app state, its app log and the records
//     the GC horizon keeps) stays below 4 MiB; every Put logs its value at
//     least once, in fewer than 4 entries, so a WAL past the floor by at
//     most one commit holds fewer than maxReplayed entries;
//   - the engine compacts its app log once it reaches the app snapshot, so
//     the log holds fewer records than the 64 keys' snapshot, plus one
//     apply batch of at most 64.
func TestRestartCostFlat(t *testing.T) {
	const (
		keys, n     = 64, 500
		maxReplayed = 4 * (4 << 20) / (4 << 10)
		maxAppLog   = keys + 64
	)
	dir := t.TempDir()
	opts := wbcast.StorageOptions{Policy: wbcast.SyncNone}
	var store countingStore
	cluster, err := wbcast.New(wbcast.Config{Groups: 1, Replicas: 1, Storage: store.wrap(wbcast.DirStorageWith(dir, opts)), AppGCHorizon: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	svc, err := NewService(cluster, Options{Persist: true})
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

	val := make([]byte, 4<<10)
	done := 0
	putAll := func(puts int) {
		t.Helper()
		const workers = 8
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := done + w; i < done+puts; i += workers {
					if err := cl.Put(ctx, []byte(fmt.Sprintf("k%d", i%keys)), val); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		done += puts
	}
	// reopen opens a copy of the store, so the deployment keeps running. It
	// waits for the record of every Put, which rides behind its answer, and
	// holds the store's calls while it copies.
	reopen := func() (replayed int64, appLog int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			recs, _, _, _ := store.counts()
			if recs >= done {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("the store holds the records of %d of %d Puts", recs, done)
			}
		}
		cp := t.TempDir()
		store.mu.Lock()
		err := os.CopyFS(cp, os.DirFS(dir))
		store.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		re, err := wbcast.New(wbcast.Config{Groups: 1, Replicas: 1, Storage: wbcast.DirStorageWith(cp, opts), AppGCHorizon: true})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		r := re.Replica(0)
		fi, err := os.Stat(filepath.Join(cp, "p0", "wal"))
		if err != nil {
			t.Fatal(err)
		}
		replayed, appLog = r.Metrics().Counters[obs.MetricReplayEntries], len(r.RecoveredAppState().Log)
		t.Logf("after %d Puts: %d WAL entries replayed (%d bytes), %d app records", done, replayed, fi.Size(), appLog)
		return replayed, appLog
	}

	for _, puts := range []int{n, 9 * n} {
		putAll(puts)
		if t.Failed() {
			return
		}
		if replayed, appLog := reopen(); replayed > maxReplayed || appLog > maxAppLog {
			t.Errorf("after %d Puts a restart replays %d WAL entries (bound %d) and %d app records (bound %d)",
				done, replayed, maxReplayed, appLog, maxAppLog)
		}
	}
}

// TestPutAfterReopen: a kv deployment closed and reopened on its data
// directory answers a fresh client's Puts. The fresh client must not get the
// process ID of the one before the restart: its first message would reuse
// that client's first message ID, whose record the replica still holds
// (under AppGCHorizon a record outlives its delivery until the app's durable
// horizon passes it) — the replica would take the Put for a retry of the old
// one, and the client would wait for an answer that never comes.
func TestPutAfterReopen(t *testing.T) {
	cfg := wbcast.Config{Groups: 1, Replicas: 1, Storage: wbcast.DirStorage(t.TempDir()), AppGCHorizon: true}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, val := range []string{"before", "after"} {
		cluster, err := wbcast.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(cluster, Options{Persist: true})
		if err != nil {
			cluster.Close()
			t.Fatal(err)
		}
		cl, err := svc.NewClient()
		if err == nil {
			err = cl.Put(ctx, []byte("k"), []byte(val))
		}
		svc.Close()
		cluster.Close()
		if err != nil {
			t.Fatalf("Put %q: %v", val, err)
		}
	}
}

// killedStore is an in-memory store whose Close does not sync: a deployment
// closed on it loses every entry its last sync did not cover, as a process
// killed by SIGKILL does.
type killedStore struct{ *wal.Memory }

func (killedStore) Close() error { return nil }

// TestKilledDeploymentKeepsAcknowledgedPuts: a whole durable kv deployment
// of 2 shards × 3 replicas, killed and reopened on its stores, still holds
// every Put it acknowledged. An engine's app record rides a later sync than
// the delivery it describes, so the record of the last Puts dies with the
// process; the replica's recovery must hand those deliveries back to the
// engine (RecoveredAppState.Replay). The Gets go through the ordering
// layer, so they read what every replica of the shard agrees on.
func TestKilledDeploymentKeepsAcknowledgedPuts(t *testing.T) {
	const puts = 50
	for _, proto := range []wbcast.Protocol{wbcast.WhiteBox, wbcast.Genmcast} {
		t.Run(proto.String(), func(t *testing.T) {
			var mu sync.Mutex
			stores := make(map[wbcast.ProcessID]*wal.Memory)
			cfg := wbcast.Config{Protocol: proto, Groups: 2, Replicas: 3, AppGCHorizon: true,
				Storage: func(pid wbcast.ProcessID) (wbcast.Storage, error) {
					mu.Lock()
					defer mu.Unlock()
					if stores[pid] == nil {
						stores[pid] = wal.NewMemory()
					}
					return killedStore{stores[pid]}, nil
				}}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			// run opens the deployment on the stores, hands its client to f and
			// kills the deployment.
			run := func(f func(*Client)) {
				t.Helper()
				cluster, err := wbcast.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer cluster.Close()
				svc, err := NewService(cluster, Options{Persist: true})
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close()
				cl, err := svc.NewClient()
				if err != nil {
					t.Fatal(err)
				}
				f(cl)
			}
			run(func(cl *Client) {
				for i := range puts {
					if err := cl.Put(ctx, []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
						t.Fatalf("Put k%d: %v", i, err)
					}
				}
			})
			run(func(cl *Client) {
				lost := 0
				for i := range puts {
					key := fmt.Sprintf("k%d", i)
					val, found, err := cl.Get(ctx, []byte(key))
					if err != nil {
						t.Fatalf("Get %s: %v", key, err)
					}
					if want := fmt.Sprintf("v%d", i); !found || string(val) != want {
						t.Errorf("Get %s = %q (found %v), want %q", key, val, found, want)
						lost++
					}
				}
				if lost > 0 {
					t.Errorf("%d of %d acknowledged Puts lost", lost, puts)
				}
			})
		})
	}
}
