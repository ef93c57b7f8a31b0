// Command wbcast-latency regenerates the message-delay latency table of the
// paper: the measured collision-free and failure-free delivery latencies of
// Skeen's protocol, FT-Skeen, FastCast and the white-box protocol, in units
// of the network delay δ, next to the paper's claimed values.
//
// Usage:
//
//	wbcast-latency [-probes N]
//
// The failure-free latency is found empirically: a sweep of adversarially
// timed conflicting messages (the convoy schedule of paper Fig. 2) probes
// the worst delivery delay; more probes give a finer sweep. The probes are
// independent simulations and run concurrently, one goroutine each; the
// table is the same at any GOMAXPROCS.
package main

import (
	"flag"
	"fmt"
	"os"

	"wbcast/internal/bench"
)

func main() {
	probes := flag.Int("probes", 64, "number of adversarial injection times probed per protocol")
	flag.Parse()

	rows, err := bench.LatencyTable(*probes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wbcast-latency:", err)
		os.Exit(1)
	}
	fmt.Println("Message-delay latencies (multiples of the one-way delay δ)")
	fmt.Println()
	fmt.Printf("%-10s  %18s  %18s  %14s\n", "protocol", "collision-free", "failure-free", "follower CF")
	fmt.Printf("%-10s  %9s %8s  %9s %8s  %14s\n", "", "measured", "paper", "measured", "paper", "measured")
	for _, r := range rows {
		fmt.Printf("%-10s  %8.2fδ %7.0fδ  %8.2fδ %7.0fδ  %13.2fδ\n",
			r.Protocol, r.CollisionFree, r.PaperCF, r.FailureFree, r.PaperFF, r.FollowerCF)
	}
	fmt.Println()
	fmt.Println("Failure-free values are empirical worst cases under a single")
	fmt.Println("adversarial conflicting message; the paper's values are upper bounds.")
}
