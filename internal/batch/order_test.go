package batch_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"wbcast/internal/bench"
	"wbcast/internal/harness"
	"wbcast/internal/mcast"
	"wbcast/internal/sim"
)

// protocolsUnderTest are the five protocols, all of which unpack batch
// envelopes on their delivery paths, with the group size each runs on.
func protocolsUnderTest(t *testing.T) []struct {
	p    harness.Protocol
	size int
} {
	var out []struct {
		p    harness.Protocol
		size int
	}
	for _, name := range []string{"wbcast", "fastcast", "ftskeen", "skeen", "genmcast"} {
		p, err := bench.ProtocolByName(name)
		if err != nil {
			t.Fatal(err)
		}
		size := 3
		if name == "skeen" {
			size = 1 // Skeen's protocol assumes reliable singleton groups
		}
		out = append(out, struct {
			p    harness.Protocol
			size int
		}{p, size})
	}
	return out
}

// deliverySeq returns, per process, the payload IDs it delivered in order.
func deliverySeq(c *harness.Cluster) map[mcast.ProcessID][]mcast.MsgID {
	out := make(map[mcast.ProcessID][]mcast.MsgID)
	for _, rec := range c.Sim.Deliveries() {
		out[rec.Proc] = append(out[rec.Proc], rec.D.Msg.ID)
	}
	return out
}

// runSequentialWorkload submits n payloads from one client to groups
// {0, 1}, burst at a time — one drain each, 1ms apart — and runs to
// quiescence. A burst of one is a submission per event.
func runSequentialWorkload(t *testing.T, p harness.Protocol, size, burst, n int) *harness.Cluster {
	t.Helper()
	c, err := harness.NewCluster(p, harness.Options{
		Groups: 2, GroupSize: size, NumClients: 1,
		Latency: sim.Uniform(10 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	dest := mcast.NewGroupSet(0, 1)
	for i := 0; i < n; i += burst {
		var dests []mcast.GroupSet
		var payloads [][]byte
		for j := i; j < min(i+burst, n); j++ {
			dests = append(dests, dest)
			payloads = append(payloads, []byte(fmt.Sprintf("payload-%03d", j)))
		}
		c.SubmitBurst(time.Duration(i)*time.Millisecond, 0, dests, payloads)
	}
	c.Sim.Run(30 * time.Second)
	return c
}

// TestBatchedOrderMatchesUnbatched is the batching-transparency theorem in
// test form: for a deterministic workload, the run whose client drains
// bursts of eight delivers exactly the same per-payload sequence at every
// replica as the run with one submission per event, for every protocol.
func TestBatchedOrderMatchesUnbatched(t *testing.T) {
	const n = 60
	for _, pt := range protocolsUnderTest(t) {
		t.Run(pt.p.Name(), func(t *testing.T) {
			plain := runSequentialWorkload(t, pt.p, pt.size, 1, n)
			batched := runSequentialWorkload(t, pt.p, pt.size, 8, n)

			plainSeq := deliverySeq(plain)
			batchedSeq := deliverySeq(batched)
			if len(plainSeq) == 0 {
				t.Fatal("unbatched run delivered nothing")
			}
			for pid, want := range plainSeq {
				if len(want) != n {
					t.Fatalf("p%d delivered %d of %d payloads unbatched", pid, len(want), n)
				}
				if got := batchedSeq[pid]; !reflect.DeepEqual(got, want) {
					t.Errorf("p%d: batched order diverges from unbatched\nbatched:   %v\nunbatched: %v", pid, got, want)
				}
			}
			// Both runs must satisfy the full multicast specification.
			for _, errs := range map[string][]error{
				"plain": plain.Check(true), "batched": batched.Check(true),
			} {
				for _, err := range errs {
					t.Error(err)
				}
			}
			// The batched run must actually have batched: one envelope per
			// burst, and fewer protocol messages than the unbatched run.
			if got := batched.Clients[0].BatchesSent(); got != n/8+1 {
				t.Errorf("%d bursts left as %d multicasts", n/8+1, got)
			}
			if bs, ps := batched.Sim.TotalSent(), plain.Sim.TotalSent(); bs >= ps {
				t.Errorf("batched run sent %d protocol messages, unbatched %d — no amortisation", bs, ps)
			}
		})
	}
}

// TestBatchedRandomWorkload runs a concurrent multi-client random workload
// of bursts to {0}, {0,1} and {1,2} and verifies the full specification:
// Validity, Integrity, Ordering, Termination, the (GTS, Sub) invariants
// and the genuineness audit — which sees the envelopes originate at the
// clients.
func TestBatchedRandomWorkload(t *testing.T) {
	dests := []mcast.GroupSet{mcast.NewGroupSet(0), mcast.NewGroupSet(0, 1), mcast.NewGroupSet(1, 2)}
	for _, pt := range protocolsUnderTest(t) {
		t.Run(pt.p.Name(), func(t *testing.T) {
			c, err := harness.NewCluster(pt.p, harness.Options{
				Groups: 3, GroupSize: pt.size, NumClients: 4,
				Latency: sim.Uniform(5 * time.Millisecond),
				Seed:    42,
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			total := 0
			for b := 0; b < 30; b++ {
				var ds []mcast.GroupSet
				var payloads [][]byte
				for k := 1 + rng.Intn(5); k > 0; k-- {
					ds = append(ds, dests[rng.Intn(len(dests))])
					payloads = append(payloads, []byte(fmt.Sprintf("msg-%d", total)))
					total++
				}
				at := time.Duration(rng.Int63n(int64(150 * time.Millisecond)))
				c.SubmitBurst(at, rng.Intn(len(c.Clients)), ds, payloads)
			}
			c.Sim.Run(60 * time.Second)
			for _, err := range c.Check(true) {
				t.Error(err)
			}
			var sent int64
			for _, cl := range c.Clients {
				sent += cl.BatchesSent()
			}
			if sent >= int64(total) {
				t.Errorf("%d payloads left in %d multicasts: no envelope formed", total, sent)
			}
		})
	}
}

// TestBatchedCompletionSemantics verifies the client-facing contract under
// batching: every submitted payload's completion fires exactly once.
func TestBatchedCompletionSemantics(t *testing.T) {
	p, err := bench.ProtocolByName("wbcast")
	if err != nil {
		t.Fatal(err)
	}
	c, err := harness.NewCluster(p, harness.Options{
		Groups: 2, GroupSize: 3, NumClients: 2,
		Latency: sim.Uniform(5 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	completions := make(map[mcast.MsgID]int)
	c.OnComplete(func(id mcast.MsgID) { completions[id]++ })
	var ids []mcast.MsgID
	dests := []mcast.GroupSet{mcast.NewGroupSet(0, 1), mcast.NewGroupSet(0, 1), mcast.NewGroupSet(1), mcast.NewGroupSet(0, 1)}
	for i := 0; i < 10; i++ {
		payloads := [][]byte{{byte(i)}, {byte(i), 1}, {byte(i), 2}, {byte(i), 3}}
		ids = append(ids, c.SubmitBurst(time.Duration(i)*time.Millisecond, i%2, dests, payloads)...)
	}
	c.Sim.Run(30 * time.Second)
	for _, id := range ids {
		if completions[id] != 1 {
			t.Errorf("payload %v completed %d times, want 1", id, completions[id])
		}
	}
	if len(completions) != len(ids) {
		t.Errorf("%d completions for %d payloads", len(completions), len(ids))
	}
}
