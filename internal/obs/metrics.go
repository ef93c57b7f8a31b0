package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; methods are nil-safe so a disabled handle costs one
// predictable branch.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current count.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value. The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Kind classifies a registered metric for exposition.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// entry is one registered metric: a histogram, or a view — a scalar read
// by fn at scrape time.
type entry struct {
	name string // full name including the label set, e.g. `m{stage="x"}`
	help string
	kind Kind
	fn   func() int64
	h    *Histogram
}

// Registry is a set of named metrics belonging to one process. Metrics are
// registered once at construction time and scraped under the registry
// lock; the instrumented hot paths touch only the pre-resolved metric
// pointers. A nil *Registry is valid and ignores registrations, so
// instrumentation handles can be built unregistered (e.g. trace-only
// harness runs).
type Registry struct {
	labels string // const labels rendered into every sample, e.g. `proc="3"`

	mu      sync.Mutex
	order   []string
	entries map[string]*entry
}

// NewRegistry creates a registry whose samples all carry the given
// constant label set (rendered as `key="value"` pairs, comma-separated;
// empty for none).
func NewRegistry(labels string) *Registry {
	return &Registry{labels: labels, entries: make(map[string]*entry)}
}

func (r *Registry) register(e *entry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.name]; dup {
		return
	}
	r.entries[e.name] = e
	r.order = append(r.order, e.name)
}

// RegisterCounter registers c under name, as a view of its count.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.RegisterFunc(name, help, KindCounter, func() int64 { return int64(c.Load()) })
}

// RegisterGauge registers g under name, as a view of its value.
func (r *Registry) RegisterGauge(name, help string, g *Gauge) {
	r.RegisterFunc(name, help, KindGauge, g.Load)
}

// RegisterFunc registers a read-only view of kind KindCounter or KindGauge:
// fn is evaluated at scrape time. Every scalar metric is a view — of a
// Counter or Gauge (RegisterCounter, RegisterGauge) or of a number its
// owner keeps anyway (live mailbox depth and high-water, kv key count) — so
// nothing is maintained twice.
func (r *Registry) RegisterFunc(name, help string, kind Kind, fn func() int64) {
	r.register(&entry{name: name, help: help, kind: kind, fn: fn})
}

// RegisterHistogram registers h under name.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.register(&entry{name: name, help: help, kind: KindHistogram, h: h})
}

// Snapshot is a point-in-time copy of a registry's metrics, keyed by the
// full metric name (including its label set).
type Snapshot struct {
	// Counters holds the counter-kind views.
	Counters map[string]int64
	// Gauges holds the gauge-kind views.
	Gauges map[string]int64
	// Latencies holds the histogram snapshots.
	Latencies map[string]LatencyStats
}

// Snapshot captures every registered metric. Safe to call concurrently
// with the instrumented hot paths.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:  make(map[string]int64),
		Gauges:    make(map[string]int64),
		Latencies: make(map[string]LatencyStats),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		e := r.entries[name]
		switch {
		case e.h != nil:
			s.Latencies[name] = e.h.Snapshot()
		case e.kind == KindGauge:
			s.Gauges[name] = e.fn()
		default:
			s.Counters[name] = e.fn()
		}
	}
	return s
}

// splitName separates a full metric name into its family and label part:
// `m{stage="x"}` → ("m", `stage="x"`).
func splitName(full string) (fam, labels string) {
	if i := strings.IndexByte(full, '{'); i >= 0 {
		return full[:i], strings.TrimSuffix(full[i+1:], "}")
	}
	return full, ""
}

// joinLabels renders a merged label block from the metric's own labels and
// the registry's constant labels.
func joinLabels(parts ...string) string {
	var kept []string
	for _, p := range parts {
		if p != "" {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 {
		return ""
	}
	return "{" + strings.Join(kept, ",") + "}"
}

// WritePrometheus writes every registry in Prometheus text exposition
// format, emitting each family's # HELP/# TYPE header once even when the
// family spans several registries (one per process). Histograms are
// exposed as summaries (quantile series plus _sum/_count/_max), with
// durations converted to seconds.
func WritePrometheus(w io.Writer, regs ...*Registry) {
	type sample struct{ line string }
	fams := make(map[string]*struct {
		help    string
		kind    Kind
		samples []sample
	})
	var famOrder []string
	for _, r := range regs {
		if r == nil {
			continue
		}
		r.mu.Lock()
		for _, name := range r.order {
			e := r.entries[name]
			fam, labels := splitName(name)
			f, ok := fams[fam]
			if !ok {
				f = &struct {
					help    string
					kind    Kind
					samples []sample
				}{help: e.help, kind: e.kind}
				fams[fam] = f
				famOrder = append(famOrder, fam)
			}
			switch {
			case e.h != nil:
				sn := e.h.Snapshot()
				lb := func(extra string) string { return joinLabels(labels, r.labels, extra) }
				f.samples = append(f.samples,
					sample{fmt.Sprintf("%s%s %g", fam, lb(`quantile="0.5"`), sn.P50.Seconds())},
					sample{fmt.Sprintf("%s%s %g", fam, lb(`quantile="0.95"`), sn.P95.Seconds())},
					sample{fmt.Sprintf("%s%s %g", fam, lb(`quantile="0.99"`), sn.P99.Seconds())},
					sample{fmt.Sprintf("%s_sum%s %g", fam, joinLabels(labels, r.labels), sn.Sum.Seconds())},
					sample{fmt.Sprintf("%s_count%s %d", fam, joinLabels(labels, r.labels), sn.Count)},
					sample{fmt.Sprintf("%s_max%s %g", fam, joinLabels(labels, r.labels), sn.Max.Seconds())},
				)
			default:
				f.samples = append(f.samples, sample{fmt.Sprintf("%s%s %d", fam, joinLabels(labels, r.labels), e.fn())})
			}
		}
		r.mu.Unlock()
	}
	for _, fam := range famOrder {
		f := fams[fam]
		typ := "counter"
		switch f.kind {
		case KindGauge:
			typ = "gauge"
		case KindHistogram:
			typ = "summary"
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam, f.help, fam, typ)
		for _, s := range f.samples {
			fmt.Fprintln(w, s.line)
		}
	}
}

// MergeSnapshots folds many per-process snapshots into one: counters and
// gauges sum (high-water gauges take the max would be wrong for depths, so
// summation is the documented semantics), histograms merge bucket-wise so
// the percentiles of the union are exact to bucket resolution.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Counters:  make(map[string]int64),
		Gauges:    make(map[string]int64),
		Latencies: make(map[string]LatencyStats),
	}
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] += v
		}
		for k, v := range s.Latencies {
			out.Latencies[k] = MergeLatency(out.Latencies[k], v)
		}
	}
	return out
}

// Clock supplies the observability timestamp: elapsed time since the
// deployment started. Runtimes inject it (wall time on live transports,
// virtual time on the simulator); protocol handlers never read real clocks
// directly (see the internal/node contract).
type Clock func() time.Duration

// Now returns the clock's reading, or 0 without a clock.
func (c Clock) Now() time.Duration {
	if c == nil {
		return 0
	}
	return c()
}
