package wbcast_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"wbcast"
)

// TestFaultPlanSimulated drives the public chaos surface for every
// protocol: a 2×3 cluster on the Simulated transport with a FaultPlan that
// partitions the leader of group 0 while a follower of group 1 crashes and
// restarts. Every multicast must still complete, and the deliveries
// observed through subscriptions must satisfy the public ordering
// contract: exactly-once per subscription, strictly increasing (GTS, Sub)
// per replica, identical sequences within a group, and globally agreed
// timestamps.
func TestFaultPlanSimulated(t *testing.T) {
	for _, proto := range []wbcast.Protocol{wbcast.WhiteBox, wbcast.FastCast, wbcast.FTSkeen} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			plan := wbcast.NewFaultPlan()
			plan.At(80 * time.Millisecond).Isolate(0) // leader of group 0
			plan.At(100 * time.Millisecond).Crash(4)  // follower in group 1
			plan.At(400 * time.Millisecond).Restart(4)
			plan.At(900 * time.Millisecond).Heal()

			var mu sync.Mutex
			var fired []string
			tr := wbcast.SimulatedWith(wbcast.SimulatedOptions{
				Seed:   42,
				Faults: plan,
				OnFault: func(at time.Duration, desc string) {
					mu.Lock()
					fired = append(fired, desc)
					mu.Unlock()
				},
			})
			cluster, err := wbcast.New(wbcast.Config{Groups: 2, Protocol: proto, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()

			const n = 20
			subs := make([]*wbcast.Subscription, 6)
			for pid := wbcast.ProcessID(0); pid < 6; pid++ {
				subs[pid] = cluster.Replica(pid).Deliveries()
			}
			client, err := cluster.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			sent := make(map[wbcast.MsgID]bool, n)
			for i := 0; i < n; i++ {
				id, err := client.Multicast(ctx, []byte{byte(i)}, 0, 1)
				if err != nil {
					t.Fatalf("multicast %d: %v", i, err)
				}
				sent[id] = true
			}

			// Termination: with every fault lifted, all six replicas
			// eventually observe all n deliveries.
			got := make([][]wbcast.Delivery, 6)
			deadline := time.After(60 * time.Second)
			for pid := 0; pid < 6; pid++ {
				for len(got[pid]) < n {
					select {
					case d, ok := <-subs[pid].C():
						if !ok {
							t.Fatalf("replica %d: subscription closed after %d deliveries", pid, len(got[pid]))
						}
						got[pid] = append(got[pid], d)
					case <-deadline:
						t.Fatalf("replica %d: only %d/%d deliveries (faults fired: %v)", pid, len(got[pid]), n, fired)
					}
				}
			}

			// Exactly-once, validity and per-replica (GTS, Sub) monotonicity.
			stamp := make(map[wbcast.MsgID]wbcast.Delivery)
			for pid := 0; pid < 6; pid++ {
				seen := make(map[wbcast.MsgID]bool)
				for i, d := range got[pid] {
					if !sent[d.Msg.ID] {
						t.Fatalf("replica %d delivered unknown message %v", pid, d.Msg.ID)
					}
					if seen[d.Msg.ID] {
						t.Fatalf("replica %d delivered %v twice", pid, d.Msg.ID)
					}
					seen[d.Msg.ID] = true
					if i > 0 && !got[pid][i-1].Before(d) {
						t.Fatalf("replica %d: delivery %d not in increasing (GTS,Sub) order", pid, i)
					}
					if prev, ok := stamp[d.Msg.ID]; ok {
						if prev.GTS != d.GTS || prev.Sub != d.Sub {
							t.Fatalf("replicas disagree on the timestamp of %v", d.Msg.ID)
						}
					} else {
						stamp[d.Msg.ID] = d
					}
				}
			}
			// Gap-freedom: members of a group deliver the same sequence.
			for _, group := range [][]int{{0, 1, 2}, {3, 4, 5}} {
				for _, pid := range group[1:] {
					for i := range got[group[0]] {
						if got[group[0]][i].Msg.ID != got[pid][i].Msg.ID {
							t.Fatalf("replicas %d and %d diverge at delivery %d", group[0], pid, i)
						}
					}
				}
			}
			mu.Lock()
			nf := len(fired)
			mu.Unlock()
			if nf == 0 {
				t.Fatal("no fault action fired — the schedule did not run")
			}
		})
	}
}

// TestFaultBuildersSimulated: the partition builders and the message-count
// trigger fire on the Simulated transport. Each row cuts a 2×3 cluster
// between its groups until a Heal: OnFault narrates the cut exactly once,
// at its trigger, and the trace shows that no message submitted during the
// cut is delivered on the cut's receiving side before the Heal — every
// multicast goes to both groups, so none can commit without crossing it.
func TestFaultBuildersSimulated(t *testing.T) {
	g0, g1 := []wbcast.ProcessID{0, 1, 2}, []wbcast.ProcessID{3, 4, 5}
	// The cut falls before the first cross-group send can leave (one δ
	// after the first submission); the heal lies far enough in virtual
	// time that the submissions, made in wall-clock time while the chaos
	// pump advances it, all fall inside the cut.
	const cutAt, healAt = time.Millisecond, 10 * time.Second
	for _, tc := range []struct {
		name string
		cut  func(*wbcast.FaultPlan)
		// desc prefixes the cut's narration; at is its virtual time, or
		// -1 for a message-count trigger (no later than the first submit).
		desc string
		at   time.Duration
		// receivers are the processes the cut keeps a message from.
		receivers []wbcast.ProcessID
	}{
		{"Partition", func(p *wbcast.FaultPlan) { p.At(cutAt).Partition(g0, g1) },
			"partition ", cutAt, append(g0, g1...)},
		{"PartitionOneWay", func(p *wbcast.FaultPlan) { p.At(cutAt).PartitionOneWay(g0, g1) },
			"one-way partition ", cutAt, g1},
		{"AfterMessages", func(p *wbcast.FaultPlan) { p.AfterMessages(1).Partition(g0, g1) },
			"partition ", -1, append(g0, g1...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := wbcast.NewFaultPlan()
			tc.cut(plan)
			plan.At(healAt).Heal()
			var mu sync.Mutex
			narrated := map[string][]time.Duration{}
			cluster, err := wbcast.New(wbcast.Config{
				Groups:      2,
				TraceSample: 1,
				Transport: wbcast.SimulatedWith(wbcast.SimulatedOptions{
					Seed:   1,
					Faults: plan,
					OnFault: func(at time.Duration, desc string) {
						mu.Lock()
						narrated[desc] = append(narrated[desc], at)
						mu.Unlock()
					},
				}),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			client, err := cluster.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			var dones []<-chan struct{}
			for i := 0; i < 3; i++ {
				_, done, err := client.MulticastAsync([]byte{byte(i)}, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				dones = append(dones, done)
			}
			for i, done := range dones {
				select {
				case <-done:
				case <-time.After(60 * time.Second):
					t.Fatalf("multicast %d never completed", i)
				}
			}

			mu.Lock()
			defer mu.Unlock()
			var cut []time.Duration
			for desc, ats := range narrated {
				switch {
				case desc == "heal all partitions":
					if len(ats) != 1 || ats[0] != healAt {
						t.Errorf("heal narrated at %v, want once at %v", ats, healAt)
					}
				case strings.HasPrefix(desc, tc.desc):
					cut = ats
				default:
					t.Errorf("unexpected narration %q at %v", desc, ats)
				}
			}
			if len(cut) != 1 {
				t.Fatalf("cut narrated %d times (%v), want once", len(cut), narrated)
			}

			var firstSubmit time.Duration = -1
			var crossed int
			blocked := map[wbcast.ProcessID]bool{}
			for _, p := range tc.receivers {
				blocked[p] = true
			}
			for _, e := range cluster.Trace() {
				switch {
				case e.Stage == "submit":
					if firstSubmit < 0 {
						firstSubmit = e.At
					}
					if e.At >= healAt {
						t.Fatalf("message %v submitted at %v, after the heal: the cut went untested", e.ID, e.At)
					}
				case e.Stage == "deliver" && blocked[e.Proc]:
					crossed++
					if e.At <= healAt {
						t.Errorf("p%d delivered %v at %v, before the heal at %v", e.Proc, e.ID, e.At, healAt)
					}
				}
			}
			if crossed == 0 {
				t.Error("the trace shows no delivery on the cut's receiving side")
			}
			switch {
			case tc.at >= 0 && cut[0] != tc.at:
				t.Errorf("cut narrated at %v, want %v", cut[0], tc.at)
			case tc.at < 0 && cut[0] > firstSubmit:
				t.Errorf("cut narrated at %v, after the first submission at %v", cut[0], firstSubmit)
			}
		})
	}
}
