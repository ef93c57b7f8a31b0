// Command wbcast-bench regenerates the latency/throughput curves of the
// paper's Fig. 7 (LAN) and Fig. 8 (WAN): closed-loop clients multicast
// 20-byte messages to a fixed number of destination groups; the tool sweeps
// the number of clients and prints one series per protocol. It is built
// entirely on the public wbcast API — an in-process transport with the
// paper's injected latency profile, public Clusters and Clients — so it
// doubles as a workout of the surface applications program against.
//
// Usage:
//
//	wbcast-bench -net lan -groups 10 -size 3 \
//	    -protocols wbcast,fastcast,ftskeen \
//	    -clients 16,64,256,1024 -dest 1,2,4 \
//	    -warmup 500ms -measure 2s
//
// -outstanding sets each client's pipelining depth (workers per client). A
// client sends what one drain of its mailbox holds as one multicast per
// destination set, so deeper pipelines batch more. The tool prints both
// msgs/sec (application throughput) and batch/sec (protocol-level
// multicasts, Client.BatchesSent), whose ratio is the achieved mean batch
// size:
//
//	wbcast-bench -net lan -outstanding 64
//
// Each point also reports mbox_hw, the largest replica input-queue length
// observed (Replica.Stats): the saturation indicator of the elastic
// mailboxes. The skeen protocol requires singleton groups, so its points
// automatically run with one replica per group.
//
// The paper's testbeds (CloudLab; Google Cloud across Oregon, N. Virginia
// and England) are modelled by injected latency profiles on a single
// machine, so absolute throughput differs from the paper while the relative
// ordering of the protocols is preserved. The key-value workloads, the
// durability overhead (kv-durable against kv-local), the per-layer latency
// budget and the cost of instrumentation are measured on the real TCP stack
// by the canonical benchmark (benchmark/README.md); CPU profiles come from
// ServeMetrics' /debug/pprof/ or from go test -cpuprofile.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wbcast"
)

func main() {
	var (
		netProfile = flag.String("net", "lan", "latency profile: lan or wan")
		groups     = flag.Int("groups", 10, "number of groups (the paper uses 10)")
		size       = flag.Int("size", 3, "replicas per group (the paper uses 3)")
		protocols  = flag.String("protocols", "wbcast,fastcast,ftskeen", "comma-separated protocols")
		clients    = flag.String("clients", "16,64,256,1024", "comma-separated client counts")
		dests      = flag.String("dest", "1,2,4", "comma-separated destination-group counts ('all' = every group)")
		warmup     = flag.Duration("warmup", 500*time.Millisecond, "warm-up window per point")
		measure    = flag.Duration("measure", 2*time.Second, "measurement window per point")
		payload    = flag.Int("payload", 20, "payload size in bytes (the paper uses 20)")
		seed       = flag.Int64("seed", 1, "seed for destination-group choices")

		outstanding = flag.Int("outstanding", 1, "multicasts each client keeps in flight (pipelining depth)")
	)
	flag.Parse()
	var latency func(from, to wbcast.ProcessID) time.Duration
	switch *netProfile {
	case "lan":
		latency = wbcast.LAN()
	case "wan":
		latency = wbcast.WAN(*groups, *size)
	default:
		fmt.Fprintf(os.Stderr, "wbcast-bench: unknown -net %q (want lan or wan)\n", *netProfile)
		os.Exit(2)
	}

	var protos []wbcast.Protocol
	for _, name := range strings.Split(*protocols, ",") {
		p, err := wbcast.ParseProtocol(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "wbcast-bench:", err)
			os.Exit(2)
		}
		protos = append(protos, p)
	}
	clientCounts := parseInts(*clients)

	common := pointConfig{
		groups: *groups, size: *size, outstanding: *outstanding,
		payloadSize: *payload, latency: latency,
		warmup: *warmup, measure: *measure, seed: *seed,
	}
	runMulticastSweep(common, protos, clientCounts, parseDests(*dests, *groups), *netProfile)
}

// runMulticastSweep drives the paper's raw-payload closed-loop benchmark:
// one series per (destination count, protocol) over the client counts.
func runMulticastSweep(common pointConfig, protos []wbcast.Protocol, clientCounts, destCounts []int, netProfile string) {
	fmt.Printf("# figure: %s — %d groups × %d replicas, %d-byte payloads, closed-loop clients ×%d outstanding\n",
		map[string]string{"lan": "Fig. 7 (LAN profile)", "wan": "Fig. 8 (WAN profile)"}[netProfile],
		common.groups, common.size, common.payloadSize, common.outstanding)
	printSkeenLine(common, protos)
	fmt.Printf("%-10s %5s %8s %14s %14s %12s %12s %12s %9s\n",
		"protocol", "dest", "clients", "msgs/s", "batch/s", "mean_lat", "p50_lat", "p99_lat", "mbox_hw")
	for _, d := range destCounts {
		for _, p := range protos {
			size := protocolSize(p, common.size)
			for _, c := range clientCounts {
				cfg := common
				cfg.protocol, cfg.size, cfg.clients, cfg.destGroups = p, size, c, d
				res, err := runPoint(cfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, "wbcast-bench:", err)
					os.Exit(1)
				}
				fmt.Printf("%-10s %5d %8d %12.0f/s %12.0f/s %12s %12s %12s %9d\n",
					p, d, c, res.throughput, res.batches,
					round(res.mean), round(res.p50), round(res.p99), res.mailboxHW)
			}
		}
		fmt.Println()
	}
}

// protocolSize adapts the replica count to the protocol: skeen is the only
// one restricted to singleton groups.
func protocolSize(p wbcast.Protocol, size int) int {
	if p == wbcast.Skeen {
		return 1
	}
	return size
}

func printSkeenLine(cfg pointConfig, protos []wbcast.Protocol) {
	for _, p := range protos {
		if p == wbcast.Skeen && cfg.size != 1 {
			fmt.Printf("# skeen requires singleton groups: its points run %d groups × 1 replica\n", cfg.groups)
			return
		}
	}
}

type pointConfig struct {
	protocol    wbcast.Protocol
	groups      int
	size        int
	clients     int
	outstanding int
	destGroups  int
	payloadSize int
	latency     func(from, to wbcast.ProcessID) time.Duration
	warmup      time.Duration
	measure     time.Duration
	seed        int64
}

type pointResult struct {
	throughput     float64 // completed payloads per second
	batches        float64 // protocol-level multicasts per second (Client.BatchesSent)
	mean, p50, p99 time.Duration
	mailboxHW      int64 // max replica input-queue depth (Replica.Stats)
}

// runPoint builds a fresh cluster on an in-process transport and drives
// closed-loop clients against it: each client runs `outstanding` workers,
// each with one synchronous Multicast in flight — the evaluation
// methodology of the paper (§VI, following Coelho et al.), generalised
// with client pipelining.
func runPoint(cfg pointConfig) (pointResult, error) {
	cluster, err := wbcast.New(wbcast.Config{
		Protocol:  cfg.protocol,
		Groups:    cfg.groups,
		Replicas:  cfg.size,
		Transport: wbcast.InProcess(),
		Latency:   cfg.latency,
	})
	if err != nil {
		return pointResult{}, err
	}
	defer cluster.Close()

	cls := make([]*wbcast.Client, cfg.clients)
	for i := range cls {
		if cls[i], err = cluster.NewClient(); err != nil {
			return pointResult{}, err
		}
	}

	start := time.Now()
	measureFrom := start.Add(cfg.warmup)
	deadline := measureFrom.Add(cfg.measure)
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(30*time.Second))
	defer cancel()

	var completed atomic.Int64
	var mu sync.Mutex
	var samples []time.Duration

	var wg sync.WaitGroup
	for i, cl := range cls {
		for w := 0; w < cfg.outstanding; w++ {
			wg.Add(1)
			go func(cl *wbcast.Client, worker int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.seed + int64(worker)))
				payload := make([]byte, cfg.payloadSize)
				gs := make([]wbcast.GroupID, cfg.destGroups)
				var local []time.Duration
				for time.Now().Before(deadline) {
					for j, g := range rng.Perm(cfg.groups)[:cfg.destGroups] {
						gs[j] = wbcast.GroupID(g)
					}
					t0 := time.Now()
					if _, err := cl.Multicast(ctx, payload, gs...); err != nil {
						break
					}
					t1 := time.Now()
					if t1.After(measureFrom) && t1.Before(deadline) {
						completed.Add(1)
						local = append(local, t1.Sub(t0))
					}
				}
				mu.Lock()
				samples = append(samples, local...)
				mu.Unlock()
			}(cl, i*cfg.outstanding+w)
		}
	}

	batchCount := func() int64 {
		var n int64
		for _, cl := range cls {
			n += cl.BatchesSent()
		}
		return n
	}
	time.Sleep(time.Until(measureFrom))
	batchesAtWarmup := batchCount()
	time.Sleep(time.Until(deadline))
	batchesAtDeadline := batchCount()
	wg.Wait()

	res := pointResult{
		throughput: float64(completed.Load()) / cfg.measure.Seconds(),
		batches:    float64(batchesAtDeadline-batchesAtWarmup) / cfg.measure.Seconds(),
	}
	res.mean, res.p50, res.p99 = summarise(samples)
	for _, r := range cluster.Replicas() {
		if hw := r.Stats().MailboxHighWater; hw > res.mailboxHW {
			res.mailboxHW = hw
		}
	}
	return res, nil
}

// summarise computes the mean, median and 99th percentile of the latency
// samples (which it sorts).
func summarise(samples []time.Duration) (mean, p50, p99 time.Duration) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	quantile := func(q float64) time.Duration {
		return samples[int(q*float64(len(samples)-1))]
	}
	return sum / time.Duration(len(samples)), quantile(0.50), quantile(0.99)
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "wbcast-bench: bad count %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func parseDests(s string, groups int) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "all" {
			out = append(out, groups)
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 || n > groups {
			fmt.Fprintf(os.Stderr, "wbcast-bench: bad destination count %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
