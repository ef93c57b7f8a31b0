package wbcast_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wbcast"
)

// TestNewClientAfterReopen: a durable deployment closed and reopened on its
// stores numbers its new clients past every sender its replicas recovered
// records of. A new client with the old one's process ID would send m(k.1)
// again, and the replica, which has m(k.1) logged, would answer it as a
// retry of the old message: Multicast returns, and nothing is delivered.
func TestNewClientAfterReopen(t *testing.T) {
	cfg := wbcast.Config{Groups: 1, Replicas: 1, Storage: wbcast.DirStorage(t.TempDir())}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := wbcast.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	old, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	oldID, err := old.Multicast(ctx, []byte("old"), 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	re, err := wbcast.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sub := re.Replica(0).Deliveries()
	cl, err := re.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	id, err := cl.Multicast(ctx, []byte("new"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if id == oldID {
		t.Fatalf("the new client reused the old client's message ID %v", id)
	}
	select {
	case d := <-sub.C():
		if d.Msg.ID != id || string(d.Msg.Payload) != "new" {
			t.Fatalf("delivered %v %q, want %v %q", d.Msg.ID, d.Msg.Payload, id, "new")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the new client's message was never delivered")
	}
}

// loadCounter counts the Load calls of a store.
type loadCounter struct {
	wbcast.Storage
	loads *atomic.Int32
}

func (s loadCounter) Load() (*wbcast.DurableState, error) {
	s.loads.Add(1)
	return s.Storage.Load()
}

// TestClosedReplicaIsNotRebuilt: on the simulated transport a FaultPlan
// restart rebuilds a durable replica from its store — but not one closed
// through the API, whose store is closed with it.
func TestClosedReplicaIsNotRebuilt(t *testing.T) {
	plan := new(wbcast.FaultPlan).At(time.Second, wbcast.Restart{P: 1})
	restarted := make(chan struct{})
	tr := wbcast.SimulatedWith(wbcast.SimulatedOptions{Faults: plan, OnFault: func(_ time.Duration, desc string) {
		if strings.HasPrefix(desc, "restart") {
			close(restarted)
		}
	}})
	var loads atomic.Int32
	mem := wbcast.MemoryStorage()
	cluster, err := wbcast.New(wbcast.Config{Groups: 1, Transport: tr, Storage: func(pid wbcast.ProcessID) (wbcast.Storage, error) {
		st, err := mem(pid)
		if pid == 1 {
			st = loadCounter{st, &loads}
		}
		return st, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Replica(1).Close()
	select {
	case <-restarted:
	case <-time.After(10 * time.Second):
		t.Fatal("the restart never fired")
	}
	// The restart runs in the same slice of the simulation as its
	// narration; hosting a client waits for that slice to end.
	if _, err := cluster.NewClient(); err != nil {
		t.Fatal(err)
	}
	if n := loads.Load(); n != 1 {
		t.Errorf("the closed replica's store was loaded %d times, want once (at construction)", n)
	}
}

// TestShutdownLeavesNothingToReplay: Shutdown snapshots a replica's store
// before closing it and Close does not, so a deployment reopened on the
// stores of one replays no WAL entries and on those of the other some.
func TestShutdownLeavesNothingToReplay(t *testing.T) {
	for _, tc := range []struct {
		name     string
		stop     func(*wbcast.Replica) error
		replayed bool
	}{
		{"Shutdown", (*wbcast.Replica).Shutdown, false},
		{"Close", func(r *wbcast.Replica) error { r.Close(); return nil }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := wbcast.Config{Groups: 1, Replicas: 3, Storage: wbcast.DirStorage(t.TempDir())}
			c, err := wbcast.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for i := 0; i < 20; i++ {
				if _, err := cl.Multicast(ctx, []byte{byte(i)}, 0); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range c.Replicas() {
				if err := tc.stop(r); err != nil {
					t.Fatal(err)
				}
			}
			c.Close()

			re, err := wbcast.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			n := re.Metrics().Counters["wbcast_replay_entries_total"]
			t.Logf("reopened after %s: %d WAL entries replayed", tc.name, n)
			if (n > 0) != tc.replayed {
				t.Errorf("%d WAL entries replayed, want any: %v", n, tc.replayed)
			}
		})
	}
}
