package wbcast_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"wbcast"
)

// simRun drives one deterministic deployment, every link delay drawn from
// [δ, δ+1ms) by an RNG seeded with seed, and returns replica 0's delivery
// sequence as "payload@GTS" strings, and the client's multicasts.
func simRun(t *testing.T, seed int64) ([]string, int64) {
	t.Helper()
	const delta = 5 * time.Millisecond
	// The simulator asks for delays from one goroutine, in its
	// deterministic event order, so a seeded RNG replays the same schedule.
	rng := rand.New(rand.NewSource(seed))
	cluster, err := wbcast.New(wbcast.Config{
		Groups: 2,
		Delta:  delta,
		Latency: func(_, _ wbcast.ProcessID) time.Duration {
			return delta + time.Duration(rng.Int63n(int64(time.Millisecond)))
		},
		Transport: wbcast.SimulatedWith(wbcast.SimulatedOptions{Seed: seed}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	sub := cluster.Replica(0).Deliveries()
	client, err := cluster.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 8
	for i := 0; i < n; i++ {
		dest := []wbcast.GroupID{0}
		if i%2 == 1 {
			dest = []wbcast.GroupID{0, 1}
		}
		if _, err := client.Multicast(ctx, []byte(fmt.Sprintf("m%d", i)), dest...); err != nil {
			t.Fatalf("multicast %d: %v", i, err)
		}
	}
	var got []string
	for len(got) < n {
		select {
		case d := <-sub.C():
			got = append(got, fmt.Sprintf("%s@%v.%d", d.Msg.Payload, d.GTS, d.Sub))
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out after %d deliveries: %v", len(got), got)
		}
	}
	return got, client.BatchesSent()
}

// TestSimulatedTransportDeterministic: identical seeds replay the identical
// schedule — payloads, global timestamps and sub-sequence numbers.
func TestSimulatedTransportDeterministic(t *testing.T) {
	a, _ := simRun(t, 42)
	b, _ := simRun(t, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestSimulatedTransportBatching: on the deterministic transport every
// submission is a simulator event, a drain of its own, so each leaves as
// itself — one multicast per payload, every Sub zero.
func TestSimulatedTransportBatching(t *testing.T) {
	got, sent := simRun(t, 7)
	if len(got) != 8 || sent != 8 {
		t.Fatalf("delivered %d payloads from %d multicasts, want 8 and 8", len(got), sent)
	}
	for _, d := range got {
		if !strings.HasSuffix(d, ".0") {
			t.Errorf("delivery %s is not a message of its own", d)
		}
	}
}
