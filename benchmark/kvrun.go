package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// runOpts are the inputs of one run of one workload.
type runOpts struct {
	seed     int64
	window   time.Duration // the measure window (--seconds)
	trace    bool          // report per-layer metrics instead of end-to-end ones
	traceOut string        // where the traced run writes its spans ("" = nowhere)
	dataDir  string        // where kv-durable puts its WAL directories
	// recordApplied makes the engines keep their applied history and the
	// run end with the full kv history check. Self-test only: the history
	// grows without bound.
	recordApplied bool
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Counts are the sample counts behind the metrics, printed beside them.
	Counts map[string]int `json:"counts"`
	// Info are whole-window and median values printed beside the metrics
	// they qualify; they are not metrics.
	Info map[string]float64 `json:"info,omitempty"`
}

func newResult(workload string, seed int64) *result {
	return &result{
		Workload: workload, Seed: seed, Correct: true,
		Metrics: make(map[string]float64), Counts: make(map[string]int), Info: make(map[string]float64),
	}
}

// fail records a failed correctness gate: the run reports every attempted
// operation as failed and the command exits non-zero.
func (r *result) fail(err error) {
	fmt.Fprintf(errOut, "benchmark: %s: INCORRECT: %v\n", r.Workload, err)
	r.Correct = false
	if r.Attempted == 0 {
		r.Attempted = 1
	}
	r.Failed = r.Attempted
}

func (r *result) setReference(ref reference) {
	wb := ref.rows["wbcast"]
	r.Metrics["delays_solo"] = wb.solo
	r.Metrics["delays_convoy"] = wb.convoy
	r.Metrics["failover_delays"] = ref.failoverDelays
	r.Counts["failover_ops"] = ref.failoverAttempted
}

func (r *result) setReferenceLayers(ref reference) {
	for _, name := range []string{"fastcast", "ftskeen"} {
		r.Metrics[name+".delays_solo"] = ref.rows[name].solo
		r.Metrics[name+".delays_convoy"] = ref.rows[name].convoy
	}
	r.Metrics["skeen.delays_solo"] = ref.rows["skeen"].solo
	r.Metrics["genmcast.delays_solo"] = ref.rows["genmcast"].solo
	r.Metrics["core.msgs_per_multicast"] = ref.msgsPerMulticast
	r.Metrics["core.failover_elections"] = float64(ref.elections)
	r.Metrics["core.failover_elections_lost"] = float64(ref.electionsLost)
}

// procSnapshot is the whole-process cost so far, read at a window edge
// without stopping the world.
type procSnapshot struct {
	cpu        time.Duration // user + system, getrusage
	allocBytes uint64
	gcCPU      float64 // seconds the collector has used
	availCPU   float64 // seconds of CPU the process could have used (GOMAXPROCS × wall)
}

func readProc() procSnapshot {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	m := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(m)
	return procSnapshot{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: m[0].Value.Uint64(),
		gcCPU:      m[1].Value.Float64(),
		availCPU:   m[2].Value.Float64(),
	}
}

// heapLiveMB forces a collection and returns what survived it.
func heapLiveMB() float64 {
	runtime.GC()
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(m)
	return float64(m[0].Value.Uint64()) / (1 << 20)
}

// setRuntime reports the process cost between two snapshots that enclose
// ops operations.
func (r *result) setRuntime(before, after procSnapshot, ops int) {
	r.Metrics["runtime.cpu_s_per_kop"] = (after.cpu - before.cpu).Seconds() / float64(ops) * 1000
	r.Metrics["runtime.alloc_bytes_per_op"] = float64(after.allocBytes-before.allocBytes) / float64(ops)
	// The runtime refreshes its CPU classes at the end of each collection
	// cycle, so the fraction covers the cycles that ended inside the window.
	if avail := after.availCPU - before.availCPU; avail > 0 {
		r.Metrics["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / avail
	}
}

// runKV runs one kv workload. Untraced, the whole window is measured on the
// public stack and the end-to-end metrics are reported. Traced, the window
// is split: the first half runs the public stack again (its throughput is
// the untraced side of trace.overhead_frac, and the counters the public API
// exposes are read at its edges), the second half runs the same topology
// assembled in this package with timing wrappers around each layer.
func runKV(spec kvSpec, o runOpts) (*result, error) {
	res := newResult(spec.name, o.seed)
	// The WhiteBox part of the simulator reference runs first in every
	// workload (0.25 s): a change that perturbs the protocol shows in the
	// δ metrics of whichever workload is run.
	ref, err := runReference(o.trace)
	if err != nil {
		res.fail(err)
		return res, nil
	}
	res.setReference(ref)

	var st *publicStack
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if st != nil {
			st.close()
		}
		var d time.Duration
		if st, d, err = setupPublic(spec, o.dataDir, o.recordApplied); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
		}
		setups = append(setups, d.Seconds())
	}
	defer st.close()
	res.Metrics["setup_s"] = median(setups)
	res.Counts["setup_s"] = len(setups)

	window := o.window
	if o.trace {
		window /= 2
	}
	warm := window / 10
	l := startLoad(st.doers(), st.wl, o.seed, warm+window)
	time.Sleep(time.Until(l.start.Add(warm)))
	proc0, net0, wal0 := readProc(), st.netSnapshot(), st.walC.snapshot()
	time.Sleep(time.Until(l.start.Add(warm + window)))
	proc1, net1, wal1 := readProc(), st.netSnapshot(), st.walC.snapshot()
	l.finish()
	res.Attempted, res.Failed = l.attempted, l.failed
	if l.firstErr != nil {
		fmt.Fprintf(errOut, "benchmark: %s: first failed operation: %v\n", spec.name, l.firstErr)
	}
	if err := st.gate(); err != nil {
		res.fail(err)
		return res, nil
	}
	if o.recordApplied {
		if err := st.svc.Verify(true); err != nil {
			res.fail(fmt.Errorf("kv history check: %w", err))
			return res, nil
		}
	}
	ws := l.window(warm, warm+window)
	if ws.ops == 0 {
		res.fail(fmt.Errorf("no operation completed in the window"))
		return res, nil
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	res.Metrics["ops_per_s"] = ws.opsPerS
	res.Metrics["lat_p50_ms"] = ws.p50ms
	res.Metrics["lat_p99_ms"] = ws.p99ms
	res.Counts["ops"] = ws.ops
	res.Counts["retransmits"] = int(net1.retransmits - net0.retransmits)
	res.Info["lat_mean_ms"] = ws.mean
	res.Info["median_slice_ops_per_s"] = ws.medOpsPerS
	res.Info["median_slice_lat_p50_ms"] = ws.medP50ms
	res.Info["median_slice_lat_p99_ms"] = ws.medP99ms
	res.Info["best_slice_ops_per_s"] = ws.bestOpsPerS
	res.Info["best_slice_lat_p50_ms"] = ws.bestP50ms
	res.Info["best_slice_lat_p99_ms"] = ws.bestP99ms
	res.Info["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	if !o.trace {
		return res, nil
	}

	// Per-layer numbers the public API exposes, over the same window.
	res.setRuntime(proc0, proc1, ws.ops)
	l.samples = nil // the generator's own record is not the program's heap
	res.Metrics["runtime.heap_live_mb"] = heapLiveMB()
	ops := float64(ws.ops)
	res.Metrics["tcpnet.msgs_per_op"] = float64(net1.encoded-net0.encoded) / ops
	res.Metrics["tcpnet.frames_per_op"] = float64(net1.frames-net0.frames) / ops
	if n := net1.ackFlushes - net0.ackFlushes; n > 0 {
		res.Metrics["tcpnet.ack_batch_mean"] = (net1.ackSum - net0.ackSum).Seconds() / float64(n)
	}
	res.Metrics["ring.mailbox_high_water"] = float64(net1.mailboxHighWater)
	w := wal1.sub(wal0)
	res.Metrics["wal.append_calls_per_op"] = float64(w.appends) / ops
	res.Metrics["wal.sync_calls_per_op"] = float64(w.syncs) / ops
	res.Metrics["wal.bytes_per_op"] = float64(w.walBytes) / ops
	if w.appends > 0 {
		res.Metrics["wal.append_us_mean"] = float64(w.appendNs) / float64(w.appends) / 1e3
	}
	if w.syncs > 0 {
		res.Metrics["wal.sync_us_mean"] = float64(w.syncNs) / float64(w.syncs) / 1e3
	}
	// The busiest store cannot be told apart through the shared counters;
	// the mean store's share of the window is what the fraction reports.
	res.Metrics["wal.busy_frac"] = float64(w.appendNs+w.syncNs) / float64(numGroups*numReplicas) / float64(window)
	res.Counts["wal_syncs"] = int(w.syncs)
	res.setReferenceLayers(ref)

	st.close()
	tr, err := runTraced(spec, o, window)
	if err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", spec.name, err)
	}
	if tr.gateErr != nil {
		res.fail(fmt.Errorf("traced stack: %w", tr.gateErr))
		return res, nil
	}
	tr.report(res)
	res.Metrics["trace.overhead_frac"] = 1 - tr.opsPerS/ws.opsPerS
	res.Info["traced_ops_per_s"] = tr.opsPerS
	res.Info["untraced_ops_per_s"] = ws.opsPerS
	runProbes(res, st.wl, o.seed, o.dataDir)
	return res, nil
}
