// Quickstart: a minimal white-box atomic multicast cluster.
//
// Two groups of three replicas run on the default in-process transport. A
// client multicasts a few messages — some to one group, some to both — and
// the program consumes every replica's pull-based delivery subscription
// (Replica.Deliveries), demonstrating the core guarantee: both groups
// deliver the messages addressed to both in the same order, at every
// replica.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"wbcast"
)

func main() {
	cluster, err := wbcast.New(wbcast.Config{
		Groups:   2,
		Replicas: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Subscribe to every replica's delivery stream. Each subscription is
	// an independent, lossless 1024-delivery buffer: a full one makes its
	// replica wait.
	var mu sync.Mutex
	deliveries := make(map[wbcast.ProcessID][]wbcast.Delivery)
	var wg sync.WaitGroup
	for _, r := range cluster.Replicas() {
		sub := r.Deliveries()
		wg.Add(1)
		go func(p wbcast.ProcessID) {
			defer wg.Done()
			for d := range sub.C() {
				mu.Lock()
				deliveries[p] = append(deliveries[p], d)
				mu.Unlock()
			}
		}(r.ID())
	}

	client, err := cluster.NewClient()
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Multicast interleaves per-group and cross-group messages.
	sends := []struct {
		payload string
		dest    []wbcast.GroupID
	}{
		{"alpha → g0", []wbcast.GroupID{0}},
		{"bravo → g0,g1", []wbcast.GroupID{0, 1}},
		{"charlie → g1", []wbcast.GroupID{1}},
		{"delta → g0,g1", []wbcast.GroupID{0, 1}},
		{"echo → g0", []wbcast.GroupID{0}},
	}
	for _, s := range sends {
		if _, err := client.Multicast(ctx, []byte(s.payload), s.dest...); err != nil {
			log.Fatalf("multicast %q: %v", s.payload, err)
		}
		fmt.Printf("multicast complete: %s\n", s.payload)
	}

	// Synchronous Multicast guarantees the first delivery per group; give
	// followers a moment to apply the replicated DELIVER messages, then
	// close the cluster — that ends every subscription and joins the
	// consumers.
	time.Sleep(100 * time.Millisecond)
	cluster.Close()
	wg.Wait()

	var pids []wbcast.ProcessID
	for p := range deliveries {
		pids = append(pids, p)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	fmt.Println("\nper-replica delivery sequences (GTS order):")
	for _, p := range pids {
		fmt.Printf("  replica %d:", p)
		for _, d := range deliveries[p] {
			fmt.Printf("  [%v %q]", d.GTS, d.Msg.Payload)
		}
		fmt.Println()
	}
	fmt.Println("\nnote: replicas 0–2 (group 0) and 3–5 (group 1) agree on the")
	fmt.Println("relative order of 'bravo' and 'delta', the messages they share.")
}
