// sharedlog: a FuzzyLog-style partially ordered shared log built on atomic
// multicast — the paper's second motivating use case (log-based systems
// that scale by sharding the log, §I).
//
// The log is sharded into "colors", one per group. An append targets one or
// more colors; appends to disjoint colors are ordered independently (and in
// parallel — genuineness at work), while appends sharing a color are
// totally ordered. Each replica materialises its color's chain; the global
// timestamps stitch multi-color entries into a consistent partial order.
//
// Run with:
//
//	go run ./examples/sharedlog
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

const numColors = 3

type entry struct {
	gts     wbcast.Timestamp
	payload string
}

func main() {
	// chains[p] is the log materialised by replica p (its color's
	// projection of the global partial order).
	var mu sync.Mutex
	chains := make(map[wbcast.ProcessID][]entry)

	cluster, err := wbcast.New(wbcast.Config{
		Groups:   numColors,
		Replicas: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Each replica materialises its chain from its own pull-based delivery
	// subscription.
	for _, r := range cluster.Replicas() {
		sub := r.Deliveries()
		go func(p wbcast.ProcessID) {
			for d := range sub.C() {
				mu.Lock()
				chains[p] = append(chains[p], entry{gts: d.GTS, payload: string(d.Msg.Payload)})
				mu.Unlock()
			}
		}(r.ID())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Three writers append concurrently: writer i appends mostly to color
	// i, with occasional joint appends spanning two colors (the FuzzyLog
	// cross-links).
	var wg sync.WaitGroup
	for w := 0; w < numColors; w++ {
		client, err := cluster.NewClient()
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(w int, client *wbcast.Client) {
			defer wg.Done()
			color := wbcast.GroupID(w)
			other := wbcast.GroupID((w + 1) % numColors)
			for i := 0; i < 20; i++ {
				var dest []wbcast.GroupID
				var tag string
				if i%5 == 4 {
					dest = []wbcast.GroupID{color, other}
					tag = fmt.Sprintf("w%d/e%d → colors %d+%d", w, i, color, other)
				} else {
					dest = []wbcast.GroupID{color}
					tag = fmt.Sprintf("w%d/e%d → color %d", w, i, color)
				}
				if _, err := client.Multicast(ctx, []byte(tag), dest...); err != nil {
					log.Fatalf("append: %v", err)
				}
			}
		}(w, client)
	}
	wg.Wait()
	time.Sleep(200 * time.Millisecond) // let followers drain

	mu.Lock()
	defer mu.Unlock()

	// Print the head of each color's chain (replica 0 of each group).
	for c := wbcast.GroupID(0); c < numColors; c++ {
		head := cluster.GroupMembers(c)[0]
		fmt.Printf("color %d chain (%d entries), first 6:\n", c, len(chains[head]))
		for i, e := range chains[head] {
			if i >= 6 {
				break
			}
			fmt.Printf("  %v  %s\n", e.gts, e.payload)
		}
	}

	// Audit: (1) within a color, all replicas materialise the same chain;
	// (2) chains are GTS-sorted; (3) joint entries appear in every target
	// color at consistent positions of the global order. Any failed check
	// fails the run.
	failed := false
	fail := func(format string, args ...any) {
		fmt.Printf("AUDIT FAIL: "+format+"\n", args...)
		failed = true
	}
	for c := wbcast.GroupID(0); c < numColors; c++ {
		members := cluster.GroupMembers(c)
		ref := chains[members[0]]
		if !sort.SliceIsSorted(ref, func(i, j int) bool { return ref[i].gts.Less(ref[j].gts) }) {
			fail("color %d chain not GTS-sorted", c)
		}
		for _, p := range members[1:] {
			got := chains[p]
			if len(got) != len(ref) {
				fail("color %d replicas disagree on length", c)
				continue
			}
			for i := range ref {
				if got[i].payload != ref[i].payload {
					fail("color %d diverges at %d", c, i)
					break
				}
			}
		}
	}
	// Joint entries: same GTS wherever they appear.
	seen := map[string]wbcast.Timestamp{}
	for _, ch := range chains {
		for _, e := range ch {
			if prev, ok := seen[e.payload]; ok && prev != e.gts {
				fail("%q has two timestamps %v / %v", e.payload, prev, e.gts)
			} else {
				seen[e.payload] = e.gts
			}
		}
	}
	if failed {
		log.Fatal("audit failed")
	}
	fmt.Println("audit passed: chains identical per color, GTS-sorted, joint entries consistent")
}
