package wbcast

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"wbcast/internal/node"
	"wbcast/internal/obs"
	"wbcast/internal/wal"
)

// TestClientsFollowTheLeader guards what a leader change costs on the real
// stack: one shard of three replicas and a client over TCP loopback, public
// API only. Once one operation has completed under the new leader, the next 50
// — each submitted after the previous answer — take under 20δ each and the
// client retries none of them: it learnt the leader from that reply's ballot.
// (A client that keeps sending first attempts to the initial leader pays its
// 50δ retry on every one of them.) The second case stops nobody and forces a
// candidacy on a follower instead, the spurious election a stalled host
// produces.
func TestClientsFollowTheLeader(t *testing.T) {
	const (
		delta = 2 * time.Millisecond
		ops   = 50
		bound = 20 * delta
	)
	cases := []struct {
		name string
		// disturb changes the leader; changed reports whether it has.
		disturb func(t *testing.T, c *Cluster)
		changed func(c *Cluster) bool
	}{
		{
			name:    "leader stopped",
			disturb: func(_ *testing.T, c *Cluster) { c.Replica(c.InitialLeader(0)).Close() },
			// The stopped leader completes nothing: whatever completes next did
			// so under its successor.
			changed: func(*Cluster) bool { return true },
		},
		{
			name: "spurious election",
			disturb: func(t *testing.T, c *Cluster) {
				if err := c.tr.inject(1, node.Timer{Kind: node.TimerCandidacy, Data: 1}); err != nil {
					t.Fatal(err)
				}
			},
			changed: func(c *Cluster) bool { return c.Replica(0).Metrics().Counters[obs.MetricStepDowns] > 0 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			peers := make(map[ProcessID]string)
			for pid := ProcessID(0); pid <= 3; pid++ {
				peers[pid] = "127.0.0.1:0"
			}
			c, err := New(Config{Groups: 1, Replicas: 3, Delta: delta, Transport: TCP("", peers)})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			cl, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			multicast := func() time.Duration {
				t0 := time.Now()
				if _, err := cl.Multicast(ctx, []byte("op"), 0); err != nil {
					t.Fatal(err)
				}
				return time.Since(t0)
			}
			for i := 0; i < 10; i++ {
				multicast()
			}
			tc.disturb(t, c)
			for done := false; !done; {
				done = tc.changed(c)
				multicast() // with done set: completed under the new leader
			}
			retries := cl.Metrics().Counters[obs.MetricClientRetries]
			var worst time.Duration
			for i := 0; i < ops; i++ {
				worst = max(worst, multicast())
			}
			t.Logf("slowest of %d operations after the change: %v (δ = %v)", ops, worst, delta)
			if worst >= bound {
				t.Errorf("an operation after the leader change took %v, want under 20δ = %v", worst, bound)
			}
			if got := cl.Metrics().Counters[obs.MetricClientRetries]; got != retries {
				t.Errorf("client retries grew from %d to %d after the leader change", retries, got)
			}
			if n := c.Metrics().Counters[obs.MetricElections]; n == 0 {
				t.Error("no election was counted: the leader never changed")
			}
		})
	}
}

// stallingStore parks one Sync — the first after arm is closed — until
// release is closed, and says so on parked.
type stallingStore struct {
	Storage
	arm, parked, release chan struct{}
	once                 sync.Once
}

func (s *stallingStore) Sync() error {
	select {
	case <-s.arm:
		s.once.Do(func() {
			close(s.parked)
			<-s.release
		})
	default:
	}
	return s.Storage.Sync()
}

// TestStalledDiskIsNotADeadLeader: a disk that stalls is not a process that
// died. One shard of three replicas over TCP, every replica on a store; the
// store of the leader, then of a follower, parks one Sync for three
// suspicion timeouts. The shard loop does not wait for the disk, so
// heartbeats and their acknowledgements keep flowing: nobody campaigns,
// nobody steps down, the operation caught behind the leader's sync completes
// when the sync returns (a follower's stall holds nothing up: the other two
// are a quorum), and operations go on afterwards. With the Sync inside the
// loop, a stalled leader is silent for three timeouts and is deposed, and a
// stalled follower wakes up to an expired suspicion timer and campaigns.
func TestStalledDiskIsNotADeadLeader(t *testing.T) {
	const delta = 5 * time.Millisecond
	const stall = 3 * 40 * delta // core.DefaultConfig: SuspectTimeout = 40δ
	for _, victim := range []ProcessID{0, 1} {
		t.Run(fmt.Sprintf("p%d", victim), func(t *testing.T) {
			st := &stallingStore{arm: make(chan struct{}), parked: make(chan struct{}), release: make(chan struct{})}
			peers := make(map[ProcessID]string)
			for pid := ProcessID(0); pid <= 3; pid++ {
				peers[pid] = "127.0.0.1:0"
			}
			c, err := New(Config{
				Groups: 1, Replicas: 3, Delta: delta, Transport: TCP("", peers), AppGCHorizon: true,
				Storage: func(pid ProcessID) (Storage, error) {
					if pid == victim {
						st.Storage = wal.NewMemory()
						return st, nil
					}
					return wal.NewMemory(), nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			cl, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			multicast := func() {
				if _, err := cl.Multicast(ctx, []byte("op"), 0); err != nil {
					t.Error(err)
				}
			}
			for i := 0; i < 10; i++ {
				multicast()
			}
			close(st.arm)
			caught := make(chan struct{})
			go func() {
				defer close(caught)
				multicast() // its ACCEPTED record is what the victim syncs next
			}()
			select {
			case <-st.parked:
			case <-time.After(10 * time.Second):
				t.Fatal("the victim's store never synced")
			}
			quiet := func(when string) {
				counters := c.Metrics().Counters
				if e, s := counters[obs.MetricElections], counters[obs.MetricStepDowns]; e != 0 || s != 0 {
					t.Errorf("%s a sync stalled for %v at p%d: %d elections and %d step-downs, want none", when, stall, victim, e, s)
				}
			}
			time.Sleep(stall)
			quiet("during")
			close(st.release)
			<-caught
			for i := 0; i < 10; i++ {
				multicast()
			}
			quiet("after")
		})
	}
}

// TestInProcessStorageFailureIsLogged: a store that fails a Sync crash-stops
// its process on every transport, and every transport reports it through
// Config.Logf — the in-process one used to keep it to itself. One group of
// three in-process, the leader's store fails its fifth Sync: Logf names the
// process, and the group goes on delivering under a successor.
func TestInProcessStorageFailureIsLogged(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	c, err := New(Config{
		Groups: 1, Replicas: 3, Delta: 5 * time.Millisecond, Transport: InProcess(),
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
		Storage: func(pid ProcessID) (Storage, error) {
			if pid == 0 {
				return &wal.Flaky{Inner: wal.NewMemory(), FailSyncEvery: 5}, nil
			}
			return wal.NewMemory(), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reported := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, l := range lines {
			if strings.Contains(l, "p0 crash-stopping on storage failure") {
				return true
			}
		}
		return false
	}
	after := 0 // multicasts completed once the failure was reported
	for i := 0; i < 100 && after < 10; i++ {
		if _, err := cl.Multicast(ctx, []byte("op"), 0); err != nil {
			t.Fatalf("multicast %d: %v", i, err)
		}
		if reported() {
			after++
		}
	}
	if after < 10 {
		t.Fatalf("the leader's store failed its fifth Sync and Logf never said so; it got %q", lines)
	}
}
