package kv_test

import (
	"context"
	"flag"
	"fmt"
	"sync"
	"testing"
	"time"

	"wbcast"
	"wbcast/kv"
)

// chaosSeeds is how many seeded fault schedules TestKVChaos runs per
// protocol; CI runs -seeds=5.
var chaosSeeds = flag.Int("seeds", 2, "seeded chaos schedules per protocol")

// TestKVChaos is the kv acceptance check under faults: for every protocol
// and several seeds, a 3-shard cluster runs a mixed single-/multi-shard
// workload while replicas crash, restart and partition (fault-tolerant
// protocols) or links degrade (skeen, which assumes reliable processes).
// Every operation must complete, and afterwards the shard histories must
// pass the full checker: per-replica order, global stamps, intra-shard
// prefix agreement with digest equality, and multi-shard transaction
// atomicity.
func TestKVChaos(t *testing.T) {
	for _, proto := range []wbcast.Protocol{wbcast.WhiteBox, wbcast.FastCast, wbcast.FTSkeen, wbcast.Skeen, wbcast.Genmcast} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			for seed := int64(1); seed <= int64(*chaosSeeds); seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					runKVChaos(t, proto, seed)
				})
			}
		})
	}
}

func runKVChaos(t *testing.T, proto wbcast.Protocol, seed int64) {
	const shards = 3
	replicas := 3
	if proto == wbcast.Skeen {
		replicas = 1
	}

	// The plan must be complete before the transport opens (wbcast.New
	// compiles it). Groups are laid out pid-major: group g's members are
	// g*replicas .. g*replicas+replicas-1, initial leader first.
	plan := wbcast.NewFaultPlan()
	if proto == wbcast.Skeen {
		// Skeen tolerates only benign network conditions: slow, jittery,
		// occasionally reordered links, never process failures.
		plan.At(30*time.Millisecond).
			Link(0, 1, wbcast.LinkFaults{Delay: 2 * time.Millisecond, Jitter: 3 * time.Millisecond}).
			Link(2, 0, wbcast.LinkFaults{Jitter: 5 * time.Millisecond, ReorderProb: 0.2})
		plan.At(500 * time.Millisecond).ClearLinks()
	} else {
		// Crash a follower of shard 0, isolate the leader of shard 1
		// (forcing an election), then lift everything mid-workload.
		follower := wbcast.ProcessID(1)
		leader1 := wbcast.ProcessID(replicas)
		plan.At(40 * time.Millisecond).Crash(follower)
		plan.At(120 * time.Millisecond).Isolate(leader1)
		plan.At(300 * time.Millisecond).Restart(follower)
		plan.At(600 * time.Millisecond).Heal()
	}

	var mu sync.Mutex
	var fired []string
	tr := wbcast.SimulatedWith(wbcast.SimulatedOptions{
		Seed:   seed,
		Faults: plan,
		OnFault: func(at time.Duration, desc string) {
			mu.Lock()
			fired = append(fired, desc)
			mu.Unlock()
		},
	})
	// AppGCHorizon is what wbcast-kv, the kill test and the benchmark's
	// kv-durable run: delivery-time entries are lazy, and a restart that
	// loses them repeats deliveries the engines must ignore.
	cfg := wbcast.Config{Groups: shards, Replicas: replicas, Protocol: proto, Transport: tr, AppGCHorizon: true}
	if proto != wbcast.Skeen {
		cfg.Storage = wbcast.MemoryStorage()
	}
	cluster, err := wbcast.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if got := cluster.InitialLeader(1); got != wbcast.ProcessID(replicas) {
		t.Fatalf("pid layout assumption broken: leader of group 1 is %d", got)
	}

	svc, err := kv.NewService(cluster, kv.Options{Persist: proto != wbcast.Skeen, RecordApplied: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	part := svc.Partitioner()
	wl, err := kv.NewWorkload(kv.WorkloadConfig{
		Keys:       2000,
		Dist:       kv.Zipfian,
		MultiShard: 0.3,
		TxnSize:    2,
		Shards:     shards,
		Shard:      func(key []byte) int { return part.Shard(key, shards) },
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers, opsPerWorker = 3, 25
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		cl, err := svc.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		gen := wl.Generator(seed*100 + int64(w))
		go func() {
			for i := 0; i < opsPerWorker; i++ {
				op := gen.Next()
				var err error
				if op.Op.Kind == kv.OpTxn {
					_, err = cl.Txn(ctx, op.Op.Subs...)
				} else if op.Op.Kind == kv.OpGet {
					_, _, err = cl.Get(ctx, op.Op.Key)
				} else {
					err = cl.Put(ctx, op.Op.Key, op.Op.Val)
				}
				if err != nil {
					errs <- fmt.Errorf("op %d: %w", i, err)
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("worker failed: %v (faults fired: %v)", err, fired)
		}
	}

	// Quiesce: every replica of a shard catches up to the same applied
	// count (completion only guarantees the shard applied it somewhere).
	waitQuiesce(t, svc, shards, replicas)

	if err := svc.Verify(true); err != nil {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("checker: %v (faults fired: %v)", err, fired)
	}
}

// waitQuiesce polls until all replicas of each shard report the same
// applied count twice in a row.
func waitQuiesce(t *testing.T, svc *kv.Service, shards, replicas int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	stable := 0
	for time.Now().Before(deadline) {
		equal := true
		for g := 0; g < shards; g++ {
			var want uint64
			first := true
			for _, sh := range svc.Replicas() {
				if int(sh.Group()) != g {
					continue
				}
				applied, _, _ := sh.Counters()
				if first {
					want, first = applied, false
				} else if applied != want {
					equal = false
				}
			}
		}
		if equal {
			stable++
			if stable >= 2 {
				return
			}
		} else {
			stable = 0
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("shard replicas did not converge")
}
