package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"wbcast/internal/bench"
)

// TestKVWorkloads runs every kv workload for a second with the engines
// recording their applied history, so the run ends with the full kv history
// check (Service.Verify) on top of the benchmark's own gate.
func TestKVWorkloads(t *testing.T) {
	for _, spec := range kvSpecs {
		t.Run(spec.name, func(t *testing.T) {
			res, err := runWorkload(spec.name, runOpts{seed: 1, window: time.Second, dataDir: t.TempDir(), recordApplied: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("%s = %v (present: %v); every end-to-end metric must be positive", d.Name, v, ok)
				}
			}
		})
	}
}

// TestSimReference pins the paper's numbers: the reference repeats exactly,
// the solo latencies are exactly 3 / 4 / 6 / 2 δ, the convoy latencies stay
// within the paper's bounds 5 / 8 / 12, and the rows equal the table of
// cmd/wbcast-latency.
func TestSimReference(t *testing.T) {
	a, err := runReference(true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runReference(true)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := fmt.Sprintf("%+v", a), fmt.Sprintf("%+v", b); fa != fb {
		t.Fatalf("the reference did not repeat:\n%s\n%s", fa, fb)
	}
	for name, want := range map[string]struct{ solo, convoyBound float64 }{
		"wbcast": {3, 5}, "fastcast": {4, 8}, "ftskeen": {6, 12}, "skeen": {2, 4},
	} {
		row := a.rows[name]
		if row.solo != want.solo {
			t.Errorf("%s: solo latency %vδ, want exactly %vδ", name, row.solo, want.solo)
		}
		if row.convoy <= 0 || row.convoy > want.convoyBound {
			t.Errorf("%s: convoy latency %vδ, want within (0, %v]", name, row.convoy, want.convoyBound)
		}
	}
	table, err := bench.LatencyTable(convoyProbes)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range table {
		if got := a.rows[r.Protocol]; got.solo != r.CollisionFree || got.convoy != r.FailureFree {
			t.Errorf("%s: %+v, but bench.LatencyTable gives %v / %v", r.Protocol, got, r.CollisionFree, r.FailureFree)
		}
	}
	if a.failoverFailed != 0 || a.failoverDelays <= 0 || a.elections < 1 {
		t.Errorf("failover scenario: %+v", a)
	}

	res, err := runWorkload(simReference, runOpts{seed: 1, window: time.Second, dataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	if res.Metrics["delays_solo"] != 3 || res.Metrics["delays_convoy"] != a.rows["wbcast"].convoy ||
		res.Metrics["failover_delays"] != a.failoverDelays {
		t.Errorf("sim-reference reports %v, the reference is %+v", res.Metrics, a)
	}
	again, err := runWorkload(simReference, runOpts{seed: 1, window: time.Second, dataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if res.Metrics[d.Name] <= 0 {
			t.Errorf("%s = %v; every end-to-end metric must be positive", d.Name, res.Metrics[d.Name])
		}
		// Everything but the wall-clock set-up time is virtual and repeats.
		if d.Name != "setup_s" && again.Metrics[d.Name] != res.Metrics[d.Name] {
			t.Errorf("%s = %v, then %v with the same seed", d.Name, res.Metrics[d.Name], again.Metrics[d.Name])
		}
	}
}

// TestTracedBudget runs kv-local traced: the four budget means must sum to
// the traced mean latency, every per-layer metric must be reported, and a
// volatile workload must not have touched the WAL.
func TestTracedBudget(t *testing.T) {
	res, err := runWorkload(kvSpecs[0].name, runOpts{seed: 1, window: 2 * time.Second, trace: true, dataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("traced kv-local run is incorrect")
	}
	var sum float64
	for _, name := range segNames {
		v := res.Metrics[name+"_us"]
		if v <= 0 {
			t.Errorf("%s_us = %v, want positive", name, v)
		}
		sum += v
	}
	lat := res.Info["traced_lat_mean_us"]
	if lat <= 0 || math.Abs(sum-lat) > 0.01*lat {
		t.Errorf("budget means sum to %.3fµs, traced mean latency is %.3fµs", sum, lat)
	}
	if res.Counts["budget_ops"] < 100 {
		t.Errorf("only %d operations had a complete budget", res.Counts["budget_ops"])
	}
	if got := res.Metrics["wal.sync_calls_per_op"]; got != 0 {
		t.Errorf("kv-local reports wal.sync_calls_per_op = %v, want 0", got)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("traced run does not report %s", d.Name)
		}
	}
	for _, name := range []string{"core.handle_calls_per_op", "tcpnet.msgs_per_op", "wire.encode_ns_per_msg", "runtime.cpu_s_per_kop"} {
		if res.Metrics[name] <= 0 {
			t.Errorf("%s = %v, want positive", name, res.Metrics[name])
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric catalog in
// spec.go and inside the limits of the PR driver's contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	want := workloadNames()
	if len(f.Workloads) != len(want) {
		t.Fatalf("%d workloads, want %d", len(f.Workloads), len(want))
	}
	for i, w := range f.Workloads {
		if w.Name != want[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v, want name %q and a why of 1..200 characters", i, w, want[i])
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, spec.go says %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v is outside the contract's limits", i, m)
		}
	}
	if len(f.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, want %d (at most 128)", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, spec.go says %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer[%d] = %+v is outside the contract's limits", i, m)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || median(v) != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, %v; want 2.75, 5.5, 8.25", q1, median(v), q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three values = %v, %v; want 1, 3", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	sum := func(med, q1, q3 float64) metricSummary { return metricSummary{Median: med, Q1: q1, Q3: q3, N: 5} }
	ops := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	solo := metricDef{Name: "delays_solo", Better: "lower", Bound: 0}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	for _, tc := range []struct {
		d    metricDef
		a, b metricSummary
		want string
	}{
		{ops, sum(1000, 990, 1010), sum(950, 940, 960), "ok"},
		{ops, sum(1000, 990, 1010), sum(890, 880, 900), "worse"},
		{ops, sum(1000, 900, 1100), sum(990, 980, 1000), "unresolved"},
		{solo, sum(3, 3, 3), sum(3, 3, 3), "ok"},
		{solo, sum(3, 3, 3), sum(4, 4, 4), "worse"},
		{setup, sum(0.010, 0.005, 0.015), sum(0.011, 0.005, 0.02), "ok"}, // setup_s: spread exempt
	} {
		if got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.d.Name, tc.a, tc.b, got, tc.want)
		}
	}
}
