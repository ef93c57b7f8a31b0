package wbcast

import (
	"context"
	"testing"
	"time"

	"wbcast/internal/node"
	"wbcast/internal/obs"
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
			disturb: func(_ *testing.T, c *Cluster) { c.CrashReplica(c.InitialLeader(0)) },
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
