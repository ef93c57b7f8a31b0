// banking: cross-group money transfers with a global conservation invariant
// and a mid-run leader crash — demonstrating that the white-box protocol's
// ordering and fault tolerance carry application-level guarantees through
// failures.
//
// Accounts are partitioned across groups. A transfer between accounts in
// different partitions is multicast to both partitions; every replica of
// both applies the debit and credit at the same point in the global order,
// so no replica ever observes money created or destroyed by reordering.
// Partway through, the leader of group 0 is crashed; its group recovers via
// the protocol's two-stage leader change and the workload continues.
//
// Each replica's ledger is fed by one goroutine draining that replica's
// lossless delivery subscription (Replica.Deliveries), like
// examples/kvstore and examples/sharedlog.
//
// Run with:
//
//	go run ./examples/banking
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"wbcast"
)

const (
	numGroups      = 3
	accountsPerGrp = 4
	initialBalance = 1000
	transfers      = 150
	crashAfter     = 50
)

type transfer struct {
	From   int `json:"from"`
	To     int `json:"to"`
	Amount int `json:"amount"`
}

func groupOf(account int) wbcast.GroupID {
	return wbcast.GroupID(account / accountsPerGrp)
}

// ledger is one replica's view of the accounts its group owns.
type ledger struct {
	mu       sync.Mutex
	balances map[int]int
	applied  int
}

// apply consumes one replica's deliveries in order, applying only the
// side(s) of each transfer its group owns.
func (l *ledger) apply(sub *wbcast.Subscription, g wbcast.GroupID) {
	for d := range sub.C() {
		var t transfer
		if err := json.Unmarshal(d.Msg.Payload, &t); err != nil {
			log.Fatalf("group %d replica: %v", g, err)
		}
		l.mu.Lock()
		if groupOf(t.From) == g {
			l.balances[t.From] -= t.Amount
		}
		if groupOf(t.To) == g {
			l.balances[t.To] += t.Amount
		}
		l.applied++
		l.mu.Unlock()
	}
}

func main() {
	cluster, err := wbcast.New(wbcast.Config{
		Groups:   numGroups,
		Replicas: 3,
		Delta:    time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	ledgers := make(map[wbcast.ProcessID]*ledger)
	for _, r := range cluster.Replicas() {
		l := &ledger{balances: make(map[int]int)}
		for a := 0; a < numGroups*accountsPerGrp; a++ {
			if groupOf(a) == r.Group() {
				l.balances[a] = initialBalance
			}
		}
		ledgers[r.ID()] = l
		go l.apply(r.Deliveries(), r.Group())
	}

	client, err := cluster.NewClient()
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < transfers; i++ {
		if i == crashAfter {
			victim := cluster.InitialLeader(0)
			fmt.Printf("--- crashing leader of group 0 (replica %d) after %d transfers ---\n", victim, i)
			cluster.CrashReplica(victim)
		}
		from := rng.Intn(numGroups * accountsPerGrp)
		to := rng.Intn(numGroups * accountsPerGrp)
		if from == to {
			continue
		}
		t := transfer{From: from, To: to, Amount: 1 + rng.Intn(50)}
		payload, _ := json.Marshal(t)
		dest := wbcast.NewGroupSet(groupOf(from), groupOf(to))
		if _, err := client.Multicast(ctx, payload, dest...); err != nil {
			log.Fatalf("transfer %d: %v", i, err)
		}
	}
	fmt.Printf("completed %d transfers (including through the leader change)\n", transfers)

	time.Sleep(300 * time.Millisecond) // let followers drain

	// Audit: total money across one full copy of the system (one replica
	// per group, skipping the crashed one) equals the initial total.
	want := numGroups * accountsPerGrp * initialBalance
	total := 0
	for g := wbcast.GroupID(0); g < numGroups; g++ {
		var chosen *ledger
		for _, p := range cluster.GroupMembers(g) {
			if g == 0 && p == cluster.InitialLeader(0) {
				continue // crashed
			}
			chosen = ledgers[p]
			break
		}
		chosen.mu.Lock()
		for _, b := range chosen.balances {
			total += b
		}
		chosen.mu.Unlock()
	}
	fmt.Printf("conservation audit: total = %d, expected = %d\n", total, want)
	if total != want {
		log.Fatal("MONEY WAS CREATED OR DESTROYED — ordering violation")
	}
	fmt.Println("audit passed: balances conserved across partitions and a leader crash")
}
