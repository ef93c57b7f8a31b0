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
// Batching is enabled with -batch-msgs / -batch-bytes / -batch-delay;
// -outstanding sets each client's pipelining depth (workers per client) so
// the accumulator has payloads to aggregate. With batching on, the tool
// prints both msgs/sec (application throughput) and batch/sec
// (protocol-level multicasts), whose ratio is the achieved mean batch size:
//
//	wbcast-bench -net lan -batch-msgs 64 -batch-delay 1ms -outstanding 256
//
// Each point also reports mbox_hw, the largest replica input-queue length
// observed (Replica.Stats): the saturation indicator of the elastic
// mailboxes.
//
// -workload kv swaps the raw multicast load for the sharded key-value
// service (package kv): each group is one shard of the keyspace, single-key
// operations multicast to one shard, and multi-shard transactions multicast
// atomically to exactly the shards they touch. The generator draws keys
// from a -kv-keys keyspace with a uniform or YCSB-style scrambled-Zipfian
// popularity (-kv-dist, -kv-theta), mixes reads and writes (-kv-reads) and
// injects cross-shard transactions at each ratio in -kv-multi, sweeping one
// series per ratio:
//
//	wbcast-bench -workload kv -groups 3 -size 3 \
//	    -protocols wbcast,fastcast,ftskeen,skeen \
//	    -kv-keys 1000000 -kv-theta 0.99 -kv-multi 0,0.1,0.5
//
// Every point breaks client-observed latency down by destination-set size
// (dests=1 vs dests=k percentile lines), separating single-shard from
// cross-shard cost within the same mixed run. The skeen protocol requires
// singleton groups, so its points automatically run with one replica per
// shard. -json FILE additionally records the sweep machine-readably;
// BENCH_PR8.json in the repository root was produced that way (see
// EXPERIMENTS.md).
//
// Observability is on by default: after each point the tool prints the
// per-stage latency percentiles (propose/accept/commit/deliver, from the
// cluster's merged wbcast_stage_latency_seconds histograms) — the white-box
// view of where time went inside the pipeline. -obs=false disables the
// metrics layer entirely, which is how the instrumentation overhead itself
// is measured (see BENCH_PR6.json). -metrics-addr additionally serves the
// live /metrics, /debug/vars and /debug/pprof endpoints while the sweep
// runs, pointed at whichever point's cluster is currently active.
//
// Durability overhead is measured with -storage: "disk" gives every replica
// a real WAL (fsync policy via -sync always|none), "mem" the in-memory
// store, "none" (default) the undurable baseline. Disk points run in a
// fresh directory each (-storage-dir picks the filesystem); the
// sync-vs-none trade at the PR-2 configuration, before group commit, is
// recorded in BENCH_PR7.json. Under -workload kv a non-"none" mode also
// enables the shard engines' durable application state
// (kv.Options.Persist), so those points include the app-log append on the
// apply path. See docs/DURABILITY.md for the policies' semantics.
//
// The paper's testbeds (CloudLab; Google Cloud across Oregon, N. Virginia
// and England) are modelled by injected latency profiles on a single
// machine, so absolute throughput differs from the paper while the relative
// ordering of the protocols is preserved (see EXPERIMENTS.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wbcast"
	"wbcast/kv"
)

func main() {
	var (
		workload   = flag.String("workload", "multicast", "workload: multicast (raw payloads, Fig. 7/8) or kv (sharded key-value service)")
		netProfile = flag.String("net", "lan", "latency profile: lan or wan")
		groups     = flag.Int("groups", 10, "number of groups (the paper uses 10); under -workload kv, the number of shards")
		size       = flag.Int("size", 3, "replicas per group (the paper uses 3)")
		protocols  = flag.String("protocols", "wbcast,fastcast,ftskeen", "comma-separated protocols")
		clients    = flag.String("clients", "16,64,256,1024", "comma-separated client counts")
		dests      = flag.String("dest", "1,2,4", "comma-separated destination-group counts ('all' = every group; multicast workload only)")
		warmup     = flag.Duration("warmup", 500*time.Millisecond, "warm-up window per point")
		measure    = flag.Duration("measure", 2*time.Second, "measurement window per point")
		duration   = flag.Duration("duration", 0, "alias for -measure (CI smoke runs)")
		payload    = flag.Int("payload", 20, "payload size in bytes (the paper uses 20; multicast workload only)")
		seed       = flag.Int64("seed", 1, "seed for destination-group and workload choices")
		jsonOut    = flag.String("json", "", "also record the sweep's points as JSON in this file")

		outstanding = flag.Int("outstanding", 1, "multicasts each client keeps in flight (pipelining depth)")
		batchMsgs   = flag.Int("batch-msgs", 0, "flush a batch at this many payloads (0 disables batching unless -batch-bytes/-batch-delay set)")
		batchBytes  = flag.Int("batch-bytes", 0, "flush a batch at this many payload bytes")
		batchDelay  = flag.Duration("batch-delay", 0, "flush deadline for a non-empty batch")

		kvKeys  = flag.Int("kv-keys", 1_000_000, "kv: keyspace size")
		kvDist  = flag.String("kv-dist", "zipfian", "kv: key-popularity distribution (uniform or zipfian)")
		kvTheta = flag.Float64("kv-theta", 0.99, "kv: Zipfian skew parameter θ")
		kvReads = flag.Float64("kv-reads", 0.5, "kv: fraction of single-shard operations that are reads")
		kvMulti = flag.String("kv-multi", "0,0.1,0.5", "kv: comma-separated multi-shard transaction ratios")
		kvTxn   = flag.Int("kv-txn", 2, "kv: distinct shards spanned by a multi-shard transaction")
		kvValue = flag.Int("kv-value", 64, "kv: value size in bytes")

		obsOn       = flag.Bool("obs", true, "collect metrics and print per-stage latency percentiles (-obs=false measures the uninstrumented baseline)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address during the sweep")

		storageMode = flag.String("storage", "none", "durable storage per replica: none, mem or disk (measures durability overhead; see BENCH_PR7.json)")
		storageDir  = flag.String("storage-dir", "", "root for -storage disk (default: a fresh temp dir per point, removed afterwards)")
		syncPolicy  = flag.String("sync", "always", "disk fsync policy: always or none")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole sweep to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the sweep to this file")
	)
	flag.Parse()
	if *duration > 0 {
		*measure = *duration
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wbcast-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "wbcast-bench: cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("# wrote CPU profile %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wbcast-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "wbcast-bench: memprofile:", err)
				return
			}
			fmt.Printf("# wrote heap profile %s\n", *memProfile)
		}()
	}

	var batching *wbcast.Batching
	if *batchMsgs > 0 || *batchBytes > 0 || *batchDelay > 0 {
		batching = &wbcast.Batching{
			MaxBatchMsgs:  *batchMsgs,
			MaxBatchBytes: *batchBytes,
			MaxBatchDelay: *batchDelay,
		}
	}

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

	var observability *wbcast.Observability
	if !*obsOn {
		observability = &wbcast.Observability{Disabled: true}
	}
	switch *storageMode {
	case "none", "mem", "disk":
	default:
		fmt.Fprintf(os.Stderr, "wbcast-bench: unknown -storage %q (want none, mem or disk)\n", *storageMode)
		os.Exit(2)
	}
	var policy wbcast.SyncPolicy
	switch *syncPolicy {
	case "always":
		policy = wbcast.SyncAlways
	case "none":
		policy = wbcast.SyncNone
	default:
		fmt.Fprintf(os.Stderr, "wbcast-bench: unknown -sync %q (want always or none)\n", *syncPolicy)
		os.Exit(2)
	}
	var srv *wbcast.MetricsServer
	if *metricsAddr != "" {
		if !*obsOn {
			fmt.Fprintln(os.Stderr, "wbcast-bench: -metrics-addr needs -obs")
			os.Exit(2)
		}
		var err error
		if srv, err = wbcast.ServeMetrics(*metricsAddr); err != nil {
			fmt.Fprintln(os.Stderr, "wbcast-bench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("# metrics on http://%s/metrics\n", srv.Addr())
	}

	common := pointConfig{
		groups: *groups, size: *size, outstanding: *outstanding,
		payloadSize: *payload, batching: batching, latency: latency,
		warmup: *warmup, measure: *measure, seed: *seed,
		obs: observability, srv: srv,
		storageMode: *storageMode, storageDir: *storageDir,
		syncPolicy: policy,
	}
	doc := &jsonDoc{
		Workload: *workload, Net: *netProfile,
		Groups: *groups, Replicas: *size,
	}
	if *storageMode != "none" {
		doc.Storage = *storageMode
	}

	switch *workload {
	case "multicast":
		doc.Payload = *payload
		runMulticastSweep(common, protos, clientCounts, parseDests(*dests, *groups), *netProfile, doc)
	case "kv":
		dist, err := kv.ParseDist(*kvDist)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wbcast-bench:", err)
			os.Exit(2)
		}
		kvc := kvParams{
			keys: *kvKeys, dist: dist, theta: *kvTheta,
			reads: *kvReads, txnSize: *kvTxn, valueSize: *kvValue,
		}
		doc.KVKeys, doc.KVDist, doc.KVTheta = *kvKeys, dist.String(), *kvTheta
		doc.KVReads, doc.KVValue, doc.KVTxn = *kvReads, *kvValue, *kvTxn
		runKVSweep(common, protos, clientCounts, parseRatios(*kvMulti), kvc, doc)
	default:
		fmt.Fprintf(os.Stderr, "wbcast-bench: unknown -workload %q (want multicast or kv)\n", *workload)
		os.Exit(2)
	}

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "wbcast-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("# wrote %s (%d points)\n", *jsonOut, len(doc.Points))
	}
}

// runMulticastSweep drives the paper's raw-payload closed-loop benchmark:
// one series per (destination count, protocol) over the client counts.
func runMulticastSweep(common pointConfig, protos []wbcast.Protocol, clientCounts, destCounts []int, netProfile string, doc *jsonDoc) {
	fmt.Printf("# figure: %s — %d groups × %d replicas, %d-byte payloads, closed-loop clients ×%d outstanding\n",
		map[string]string{"lan": "Fig. 7 (LAN profile)", "wan": "Fig. 8 (WAN profile)"}[netProfile],
		common.groups, common.size, common.payloadSize, common.outstanding)
	if common.batching != nil {
		fmt.Printf("# batching: msgs=%d bytes=%d delay=%v\n",
			common.batching.MaxBatchMsgs, common.batching.MaxBatchBytes, common.batching.MaxBatchDelay)
	}
	printStorageLine(common)
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
				printStages(res)
				pt := newJSONPoint(p, size, c, res)
				pt.DestGroups = d
				if common.batching != nil {
					pt.BatchesPerSec = res.batches
				}
				doc.Points = append(doc.Points, pt)
			}
		}
		fmt.Println()
	}
}

// kvParams are the workload knobs shared by every kv point.
type kvParams struct {
	keys      int
	dist      kv.Dist
	theta     float64
	reads     float64
	txnSize   int
	valueSize int
}

// runKVSweep drives the sharded key-value service: one series per
// (multi-shard ratio, protocol) over the client counts, each point with a
// per destination-set-size latency breakdown separating single-shard
// operations from cross-shard transactions.
func runKVSweep(common pointConfig, protos []wbcast.Protocol, clientCounts []int, ratios []float64, kvc kvParams, doc *jsonDoc) {
	fmt.Printf("# workload: kv — %d shards × %d replicas, %d keys (%s", common.groups, common.size, kvc.keys, kvc.dist)
	if kvc.dist == kv.Zipfian {
		fmt.Printf(" θ=%g", kvc.theta)
	}
	fmt.Printf("), reads=%.2f, %d-byte values, txns span %d shards, clients ×%d outstanding\n",
		kvc.reads, kvc.valueSize, kvc.txnSize, common.outstanding)
	printStorageLine(common)
	printSkeenLine(common, protos)
	fmt.Printf("%-10s %6s %8s %14s %12s %12s %12s %9s\n",
		"protocol", "multi", "clients", "ops/s", "mean_lat", "p50_lat", "p99_lat", "mbox_hw")
	for _, ratio := range ratios {
		for _, p := range protos {
			size := protocolSize(p, common.size)
			for _, c := range clientCounts {
				cfg := common
				cfg.protocol, cfg.size, cfg.clients = p, size, c
				res, err := runKVPoint(cfg, ratio, kvc)
				if err != nil {
					fmt.Fprintln(os.Stderr, "wbcast-bench:", err)
					os.Exit(1)
				}
				fmt.Printf("%-10s %5.0f%% %8d %12.0f/s %12s %12s %12s %9d\n",
					p, ratio*100, c, res.throughput,
					round(res.mean), round(res.p50), round(res.p99), res.mailboxHW)
				for _, ds := range res.byDest {
					fmt.Printf("%-10s %28s  p50=%-9s p95=%-9s p99=%-9s n=%d\n",
						"", fmt.Sprintf("dests=%d", ds.size), round(ds.lat.p50),
						round(ds.lat.p95), round(ds.lat.p99), ds.lat.count)
				}
				printStages(res)
				pt := newJSONPoint(p, size, c, res)
				r := ratio
				pt.MultiShard = &r
				doc.Points = append(doc.Points, pt)
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

func printStorageLine(cfg pointConfig) {
	if cfg.storageMode == "none" {
		return
	}
	fmt.Printf("# storage: %s", cfg.storageMode)
	if cfg.storageMode == "disk" {
		name := map[wbcast.SyncPolicy]string{wbcast.SyncAlways: "always", wbcast.SyncNone: "none"}[cfg.syncPolicy]
		fmt.Printf(" sync=%s", name)
	}
	fmt.Println()
}

func printStages(res pointResult) {
	for _, st := range res.stages {
		fmt.Printf("%-10s %28s  p50=%-9s p95=%-9s p99=%-9s max=%-9s n=%d\n",
			"", "stage "+st.name, round(st.lat.P50), round(st.lat.P95),
			round(st.lat.P99), round(st.lat.Max), st.lat.Count)
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
	batching    *wbcast.Batching
	latency     func(from, to wbcast.ProcessID) time.Duration
	warmup      time.Duration
	measure     time.Duration
	seed        int64
	obs         *wbcast.Observability
	srv         *wbcast.MetricsServer
	storageMode string // "none", "mem" or "disk"
	storageDir  string // root for disk stores ("" = temp dir per point)
	syncPolicy  wbcast.SyncPolicy
}

// stageStat is one populated stage of the merged per-stage histogram.
type stageStat struct {
	name string
	lat  wbcast.LatencyStats
}

// latSummary are client-observed latency percentiles of one sample set.
type latSummary struct {
	mean, p50, p95, p99 time.Duration
	count               int
}

// destStat is the latency summary of the operations that addressed `size`
// destination groups (shards).
type destStat struct {
	size int
	lat  latSummary
}

type pointResult struct {
	throughput     float64 // completed payloads per second
	batches        float64 // protocol-level multicasts per second
	mean, p50, p99 time.Duration
	mailboxHW      int64       // max replica input-queue depth (Replica.Stats)
	stages         []stageStat // per-stage latency percentiles (merged across replicas)
	byDest         []destStat  // latency broken down by destination-set size
}

// newStorage builds the per-point replica storage for -storage mode, plus
// a cleanup function for disk mode, whose directory is fresh per point —
// even under -storage-dir, which only picks the filesystem being measured —
// so no point replays the WAL of the previous one.
func newStorage(cfg pointConfig) (func(wbcast.ProcessID) (wbcast.Storage, error), func(), error) {
	switch cfg.storageMode {
	case "mem":
		return wbcast.MemoryStorage(), nil, nil
	case "disk":
		dir, err := os.MkdirTemp(cfg.storageDir, "wbcast-bench-")
		if err != nil {
			return nil, nil, err
		}
		return wbcast.DirStorageWith(dir, wbcast.StorageOptions{Policy: cfg.syncPolicy}), func() { os.RemoveAll(dir) }, nil
	}
	return nil, nil, nil
}

// runPoint builds a fresh cluster on an in-process transport and drives
// closed-loop clients against it: each client runs `outstanding` workers,
// each with one synchronous Multicast in flight — the evaluation
// methodology of the paper (§VI, following Coelho et al.), generalised
// with client pipelining and optional batching.
func runPoint(cfg pointConfig) (pointResult, error) {
	// Durable mode: every replica appends and fsyncs its WAL on the hot
	// path, so these points measure the durability overhead against the
	// same workload (recorded in BENCH_PR7.json).
	storage, cleanup, err := newStorage(cfg)
	if err != nil {
		return pointResult{}, err
	}
	if cleanup != nil {
		defer cleanup()
	}
	cluster, err := wbcast.New(wbcast.Config{
		Protocol:      cfg.protocol,
		Groups:        cfg.groups,
		Replicas:      cfg.size,
		Transport:     wbcast.InProcess(),
		Latency:       cfg.latency,
		Batching:      cfg.batching,
		Observability: cfg.obs,
		Storage:       storage,
	})
	if err != nil {
		return pointResult{}, err
	}
	defer cluster.Close()
	if cfg.srv != nil {
		cfg.srv.SetSources(cluster) // expose the active point's cluster only
	}

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
	}
	if cfg.batching != nil {
		res.batches = float64(batchesAtDeadline-batchesAtWarmup) / cfg.measure.Seconds()
	} else {
		res.batches = res.throughput
	}
	full := summarise(samples)
	res.mean, res.p50, res.p99 = full.mean, full.p50, full.p99
	res.byDest = []destStat{{size: cfg.destGroups, lat: full}}
	finishPoint(&res, cluster, cfg.obs)
	return res, nil
}

// runKVPoint is runPoint for the kv workload: a kv.Service over a fresh
// cluster, closed-loop kv clients drawing operations from deterministic
// workload generators, latency recorded per destination-set size.
func runKVPoint(cfg pointConfig, multiRatio float64, kvc kvParams) (pointResult, error) {
	if cfg.protocol == wbcast.Skeen {
		// Skeen assumes reliable processes and keeps no durable state.
		cfg.storageMode = "none"
	}
	storage, cleanup, err := newStorage(cfg)
	if err != nil {
		return pointResult{}, err
	}
	if cleanup != nil {
		defer cleanup()
	}
	cluster, err := wbcast.New(wbcast.Config{
		Protocol:      cfg.protocol,
		Groups:        cfg.groups,
		Replicas:      cfg.size,
		Transport:     wbcast.InProcess(),
		Latency:       cfg.latency,
		Batching:      cfg.batching,
		Observability: cfg.obs,
		Storage:       storage,
	})
	if err != nil {
		return pointResult{}, err
	}
	defer cluster.Close()
	svc, err := kv.NewService(cluster, kv.Options{Persist: storage != nil})
	if err != nil {
		return pointResult{}, err
	}
	defer svc.Close()
	if cfg.srv != nil {
		cfg.srv.SetSources(cluster, svc.MetricsSource())
	}

	part := svc.Partitioner()
	wl, err := kv.NewWorkload(kv.WorkloadConfig{
		Keys:         kvc.keys,
		Dist:         kvc.dist,
		Theta:        kvc.theta,
		ReadFraction: kvc.reads,
		MultiShard:   multiRatio,
		TxnSize:      kvc.txnSize,
		ValueSize:    kvc.valueSize,
		Shards:       cfg.groups,
		Shard:        func(key []byte) int { return part.Shard(key, cfg.groups) },
	})
	if err != nil {
		return pointResult{}, err
	}

	cls := make([]*kv.Client, cfg.clients)
	for i := range cls {
		if cls[i], err = svc.NewClient(); err != nil {
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
	byDest := make(map[int][]time.Duration)

	var wg sync.WaitGroup
	for i, cl := range cls {
		for w := 0; w < cfg.outstanding; w++ {
			wg.Add(1)
			go func(cl *kv.Client, worker int) {
				defer wg.Done()
				gen := wl.Generator(cfg.seed + int64(worker))
				local := make(map[int][]time.Duration)
				for time.Now().Before(deadline) {
					op := gen.Next()
					t0 := time.Now()
					var err error
					switch op.Op.Kind {
					case kv.OpTxn:
						_, err = cl.Txn(ctx, op.Op.Subs...)
					case kv.OpGet:
						_, _, err = cl.Get(ctx, op.Op.Key)
					case kv.OpDelete:
						_, err = cl.Delete(ctx, op.Op.Key)
					default:
						err = cl.Put(ctx, op.Op.Key, op.Op.Val)
					}
					if err != nil {
						break
					}
					t1 := time.Now()
					if t1.After(measureFrom) && t1.Before(deadline) {
						completed.Add(1)
						d := len(op.Shards)
						local[d] = append(local[d], t1.Sub(t0))
					}
				}
				mu.Lock()
				for d, s := range local {
					byDest[d] = append(byDest[d], s...)
				}
				mu.Unlock()
			}(cl, i*cfg.outstanding+w)
		}
	}
	time.Sleep(time.Until(deadline))
	wg.Wait()

	if err := svc.Err(); err != nil {
		return pointResult{}, fmt.Errorf("kv engine: %w", err)
	}
	res := pointResult{
		throughput: float64(completed.Load()) / cfg.measure.Seconds(),
	}
	var all []time.Duration
	sizes := make([]int, 0, len(byDest))
	for d, s := range byDest {
		all = append(all, s...)
		sizes = append(sizes, d)
	}
	sort.Ints(sizes)
	full := summarise(all)
	res.mean, res.p50, res.p99 = full.mean, full.p50, full.p99
	for _, d := range sizes {
		res.byDest = append(res.byDest, destStat{size: d, lat: summarise(byDest[d])})
	}
	finishPoint(&res, cluster, cfg.obs)
	return res, nil
}

// finishPoint fills the cluster-side result fields: the mailbox high-water
// mark and the merged per-stage latency percentiles.
func finishPoint(res *pointResult, cluster *wbcast.Cluster, obs *wbcast.Observability) {
	for _, r := range cluster.Replicas() {
		if hw := r.Stats().MailboxHighWater; hw > res.mailboxHW {
			res.mailboxHW = hw
		}
	}
	if obs == nil || !obs.Disabled {
		snap := cluster.Metrics()
		for _, stage := range []string{"propose", "accept", "commit", "deliver"} {
			key := wbcast.MetricStageLatency + `{stage="` + stage + `"}`
			if ls, ok := snap.Latencies[key]; ok && ls.Count > 0 {
				res.stages = append(res.stages, stageStat{name: stage, lat: ls})
			}
		}
	}
}

// summarise computes mean and percentiles of the latency samples.
func summarise(samples []time.Duration) latSummary {
	if len(samples) == 0 {
		return latSummary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	quantile := func(q float64) time.Duration {
		i := int(q * float64(len(samples)-1))
		return samples[i]
	}
	return latSummary{
		mean:  sum / time.Duration(len(samples)),
		p50:   quantile(0.50),
		p95:   quantile(0.95),
		p99:   quantile(0.99),
		count: len(samples),
	}
}

// jsonDoc is the machine-readable record of one sweep (-json FILE);
// BENCH_PR8.json is one of these.
type jsonDoc struct {
	Workload string      `json:"workload"`
	Net      string      `json:"net"`
	Groups   int         `json:"groups"`
	Replicas int         `json:"replicas"`
	Storage  string      `json:"storage,omitempty"`
	Payload  int         `json:"payload_bytes,omitempty"`
	KVKeys   int         `json:"kv_keys,omitempty"`
	KVDist   string      `json:"kv_dist,omitempty"`
	KVTheta  float64     `json:"kv_theta,omitempty"`
	KVReads  float64     `json:"kv_read_fraction,omitempty"`
	KVValue  int         `json:"kv_value_bytes,omitempty"`
	KVTxn    int         `json:"kv_txn_shards,omitempty"`
	Points   []jsonPoint `json:"points"`
}

// jsonPoint is one measured point. DestGroups is set for the multicast
// workload, MultiShard for kv; Replicas can differ from the sweep's (skeen
// runs singleton groups).
type jsonPoint struct {
	Protocol      string                 `json:"protocol"`
	Replicas      int                    `json:"replicas"`
	Clients       int                    `json:"clients"`
	DestGroups    int                    `json:"dest_groups,omitempty"`
	MultiShard    *float64               `json:"multi_shard,omitempty"`
	OpsPerSec     float64                `json:"ops_per_sec"`
	BatchesPerSec float64                `json:"batches_per_sec,omitempty"`
	Latency       jsonLatency            `json:"latency"`
	ByDestSize    map[string]jsonLatency `json:"by_dest_size,omitempty"`
	MailboxHW     int64                  `json:"mailbox_hw"`
}

type jsonLatency struct {
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms,omitempty"`
	P99Ms  float64 `json:"p99_ms"`
	Count  int     `json:"count,omitempty"`
}

func newJSONPoint(p wbcast.Protocol, size, clients int, res pointResult) jsonPoint {
	pt := jsonPoint{
		Protocol:  p.String(),
		Replicas:  size,
		Clients:   clients,
		OpsPerSec: res.throughput,
		Latency: jsonLatency{
			MeanMs: ms(res.mean), P50Ms: ms(res.p50), P99Ms: ms(res.p99),
		},
		MailboxHW: res.mailboxHW,
	}
	if len(res.byDest) > 0 {
		pt.ByDestSize = make(map[string]jsonLatency, len(res.byDest))
		for _, ds := range res.byDest {
			pt.ByDestSize[strconv.Itoa(ds.size)] = jsonLatency{
				MeanMs: ms(ds.lat.mean), P50Ms: ms(ds.lat.p50),
				P95Ms: ms(ds.lat.p95), P99Ms: ms(ds.lat.p99),
				Count: ds.lat.count,
			}
		}
	}
	return pt
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

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

func parseRatios(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || r < 0 || r > 1 {
			fmt.Fprintf(os.Stderr, "wbcast-bench: bad multi-shard ratio %q (want 0..1)\n", part)
			os.Exit(2)
		}
		out = append(out, r)
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
