package main

import (
	"fmt"
	"sort"
	"time"
)

// runSim runs sim-reference, which measures in virtual time only. Its set-up
// is the paper's latency table and the failover scenario on the
// deterministic simulator, repeated referenceRounds times and required to
// repeat exactly. Its measured part is episodesPerSecond × --seconds
// closed-loop episodes, whose virtual throughput and latencies give the
// workload the three metrics the kv workloads report in wall-clock time.
// Traced, a timer sits around every Handle call of the episodes.
func runSim(o runOpts) (*result, error) {
	res := newResult(simReference, o.seed)
	var ref reference
	var setups []float64
	for i := 0; i < referenceRounds; i++ {
		t0 := time.Now()
		r, err := runReference(true)
		if err != nil {
			res.fail(err)
			return res, nil
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i > 0 && !r.equal(ref) {
			res.fail(fmt.Errorf("the reference did not repeat: round %d gave %+v, round 0 gave %+v", i, r, ref))
			return res, nil
		}
		ref = r
	}
	res.setReference(ref)
	res.Metrics["setup_s"] = median(setups)
	res.Counts["setup_s"] = len(setups)
	res.Attempted, res.Failed = ref.failoverAttempted, ref.failoverFailed

	episodes := int(o.window.Seconds()) * episodesPerSecond
	var lats []float64
	var total episodeStats
	proc0 := readProc()
	for i := 0; i < episodes; i++ {
		st, err := runEpisode(o.seed*1000+int64(i), o.trace)
		res.Attempted += episodeOps
		if err != nil {
			res.fail(err)
			return res, nil
		}
		lats = append(lats, st.lats...)
		total.virtual += st.virtual
		total.wall += st.wall
		total.handleCalls += st.handleCalls
		total.handleBusy += st.handleBusy
		total.busiest += st.busiest
	}
	proc1 := readProc()
	if res.Failed > 0 {
		res.Correct = false
	}
	sort.Float64s(lats)
	res.Metrics["ops_per_s"] = float64(len(lats)) / total.virtual.Seconds()
	res.Metrics["lat_p50_ms"] = quantile(lats, 0.50)
	res.Metrics["lat_p99_ms"] = quantile(lats, 0.99)
	res.Counts["ops"] = len(lats)
	res.Counts["episodes"] = episodes
	res.Info["lat_mean_ms"] = mean(lats)
	res.Info["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	res.Info["wall_clock_ops_per_s"] = float64(len(lats)) / total.wall.Seconds()
	if !o.trace {
		return res, nil
	}

	res.setRuntime(proc0, proc1, len(lats))
	res.Metrics["runtime.heap_live_mb"] = heapLiveMB()
	res.setReferenceLayers(ref)
	res.Metrics["core.handle_calls_per_op"] = float64(total.handleCalls) / float64(len(lats))
	res.Metrics["core.handle_us_mean"] = float64(total.handleBusy) / float64(total.handleCalls) / 1e3
	res.Metrics["core.handle_busy_frac"] = float64(total.busiest) / float64(total.wall)
	res.Counts["handle_calls"] = int(total.handleCalls)
	wl, err := newWorkload(kvSpecs[0])
	if err != nil {
		return nil, err
	}
	runProbes(res, wl, o.seed, o.dataDir)
	return res, nil
}
