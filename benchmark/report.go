package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func metricDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// fillMissing gives every metric of the reported set a value: a per-layer
// metric that a workload does not exercise (the WAL on a volatile workload,
// TCP on the simulator) reads 0.
func (r *result) fillMissing(trace bool) {
	for _, d := range metricDefs(trace) {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Metrics[d.Name] = 0
		}
	}
}

// driverLine is the result in the shape the PR driver reads from the last
// line of standard output.
func (r *result) driverLine(trace bool) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, d := range metricDefs(trace) {
		metrics[d.Name] = value{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printResult(w io.Writer, r *result, trace bool) {
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  %s  attempted=%d failed=%d\n", r.Workload, r.Seed, verdict, r.Attempted, r.Failed)
	for _, d := range metricDefs(trace) {
		fmt.Fprintf(w, "  %-32s %16.4f %-6s (%s is better)\n", d.Name, r.Metrics[d.Name], d.Unit, d.Better)
	}
	var parts []string
	for _, k := range sortedKeys(r.Counts) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, r.Counts[k]))
	}
	fmt.Fprintf(w, "  samples: %s\n", strings.Join(parts, " "))
	parts = parts[:0]
	for _, k := range sortedKeys(r.Info) {
		parts = append(parts, fmt.Sprintf("%s=%.4g", k, r.Info[k]))
	}
	fmt.Fprintf(w, "  beside:  %s\n", strings.Join(parts, " "))
}

// metricSummary is one metric of one workload over a set of runs.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// spread is the distance between the quartiles as a share of the median.
func (m metricSummary) spread() float64 {
	if m.Median == 0 {
		return 0
	}
	s := (m.Q3 - m.Q1) / m.Median
	if s < 0 {
		s = -s
	}
	return s
}

// resultFile is what -out writes and -compare reads: the medians and
// quartiles of a set of runs, per workload and metric.
type resultFile struct {
	Schema    string                              `json:"schema"`
	Host      map[string]any                      `json:"host"`
	Seed      int64                               `json:"seed"`
	Seconds   int                                 `json:"seconds"`
	Trace     bool                                `json:"trace"`
	Correct   bool                                `json:"correct"`
	Workloads map[string]map[string]metricSummary `json:"workloads"`
}

const resultSchema = "wbcast-benchmark/1"

func summarize(all []*result, trace bool) (map[string]map[string]metricSummary, bool) {
	out := make(map[string]map[string]metricSummary)
	correct := true
	for _, r := range all {
		correct = correct && r.Correct
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string]metricSummary)
		}
		for _, d := range metricDefs(trace) {
			s := out[r.Workload][d.Name]
			s.Unit = d.Unit
			s.Values = append(s.Values, r.Metrics[d.Name])
			out[r.Workload][d.Name] = s
		}
	}
	for _, ms := range out {
		for name, s := range ms {
			s.N = len(s.Values)
			s.Median = median(s.Values)
			s.Q1, s.Q3 = quartiles(s.Values)
			ms[name] = s
		}
	}
	return out, correct
}

func printSummary(w io.Writer, all []*result, trace bool) {
	sum, _ := summarize(all, trace)
	fmt.Fprintf(w, "\n== summary over runs: median [q1, q3] and the quartile distance as a share of the median\n")
	for _, wl := range workloadNames() {
		ms, ok := sum[wl]
		if !ok {
			continue
		}
		for _, d := range metricDefs(trace) {
			s := ms[d.Name]
			fmt.Fprintf(w, "  %-14s %-32s %14.4f [%14.4f, %14.4f] %-6s n=%d spread=%.2f%%\n",
				wl, d.Name, s.Median, s.Q1, s.Q3, d.Unit, s.N, 100*s.spread())
		}
	}
}

func writeResultFile(path string, all []*result, seed int64, seconds int, trace bool) error {
	sum, correct := summarize(all, trace)
	rf := resultFile{
		Schema: resultSchema,
		Host: map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH,
		},
		Seed: seed, Seconds: seconds, Trace: trace, Correct: correct, Workloads: sum,
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return &rf, nil
}

// verdict judges one end-to-end metric of one workload: B against the base
// A. worse means B's median is worse than A's by more than the bound;
// unresolved means it is not, but the runs of either side spread wider than
// the bound, so "no worse" cannot be claimed either. setup_s is exempt from
// the spread rule, as it is in the PR driver.
func verdict(d metricDef, a, b metricSummary) string {
	worse := b.Median > a.Median*(1+d.Bound)
	if d.Better == "higher" {
		worse = b.Median < a.Median*(1-d.Bound)
	}
	switch {
	case worse:
		return "worse"
	case d.Name != "setup_s" && (a.spread() > d.Bound || b.spread() > d.Bound):
		return "unresolved"
	default:
		return "ok"
	}
}

// compareFiles prints one row per (workload, end-to-end metric) present in
// both files and returns 1 if any is worse.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err == nil && a.Trace {
		err = fmt.Errorf("%s holds per-layer metrics; -compare judges end-to-end ones", pathA)
	}
	var b *resultFile
	if err == nil {
		b, err = readResultFile(pathB)
	}
	if err == nil && b.Trace {
		err = fmt.Errorf("%s holds per-layer metrics; -compare judges end-to-end ones", pathB)
	}
	if err != nil {
		fmt.Fprintln(errOut, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(w, "A = %s (base), B = %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %-6s %14s %7s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "unit", "B/A", "bound", "A spread", "B spread", "verdict")
	code := 0
	for _, wl := range workloadNames() {
		ma, mb := a.Workloads[wl], b.Workloads[wl]
		if ma == nil || mb == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := ma[d.Name], mb[d.Name]
			ratio := 0.0
			if sa.Median != 0 {
				ratio = sb.Median / sa.Median
			}
			v := verdict(d, sa, sb)
			if v == "worse" || !a.Correct || !b.Correct {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %-6s %10.4f of A %6.1f%% %7.2f%% %7.2f%%  %s\n",
				wl, d.Name, sa.Median, sb.Median, d.Unit, ratio, 100*d.Bound, 100*sa.spread(), 100*sb.spread(), v)
		}
	}
	if !a.Correct || !b.Correct {
		fmt.Fprintln(w, "a compared file records an incorrect run")
	}
	return code
}
