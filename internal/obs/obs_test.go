package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"wbcast/internal/mcast"
)

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
		{time.Duration(1) << 62, numBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	// 100 observations: 90 at 1ms, 9 at 10ms, 1 at 100ms.
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(10 * time.Millisecond)
	}
	h.Observe(100 * time.Millisecond)

	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("Count = %d, want 100", s.Count)
	}
	wantSum := 90*time.Millisecond + 90*time.Millisecond + 100*time.Millisecond
	if s.Sum != wantSum {
		t.Errorf("Sum = %v, want %v", s.Sum, wantSum)
	}
	if s.Max != 100*time.Millisecond {
		t.Errorf("Max = %v, want 100ms", s.Max)
	}
	// Log2 buckets are exact to ≤ 2×: p50 must land in 1ms's bucket
	// (upper bound < 2ms), p95 in 10ms's bucket, p99 at the max.
	if s.P50 < time.Millisecond || s.P50 >= 2*time.Millisecond {
		t.Errorf("P50 = %v, want within [1ms, 2ms)", s.P50)
	}
	if s.P95 < 10*time.Millisecond || s.P95 >= 20*time.Millisecond {
		t.Errorf("P95 = %v, want within [10ms, 20ms)", s.P95)
	}
	if s.P99 < 100*time.Millisecond || s.P99 > 100*time.Millisecond {
		t.Errorf("P99 = %v, want 100ms (capped at Max)", s.P99)
	}
	if got := s.Mean(); got != wantSum/100 {
		t.Errorf("Mean = %v, want %v", got, wantSum/100)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	var s LatencyStats
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	var h *Histogram
	h.Observe(time.Second) // nil-safe
	if sn := h.Snapshot(); sn.Count != 0 {
		t.Errorf("nil histogram snapshot Count = %d", sn.Count)
	}
}

func TestMergeLatency(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 50; i++ {
		a.Observe(time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		b.Observe(8 * time.Millisecond)
	}
	m := MergeLatency(a.Snapshot(), b.Snapshot())
	if m.Count != 100 {
		t.Fatalf("merged Count = %d, want 100", m.Count)
	}
	if m.Max != 8*time.Millisecond {
		t.Errorf("merged Max = %v, want 8ms", m.Max)
	}
	// Median of the union is at the 1ms/8ms boundary: rank 50 falls in
	// the 8ms bucket.
	if m.P50 < 8*time.Millisecond || m.P50 > 16*time.Millisecond {
		t.Errorf("merged P50 = %v, want within [8ms, 16ms]", m.P50)
	}
	// Merging with a zero snapshot is the identity.
	id := MergeLatency(m, LatencyStats{})
	if id.Count != m.Count || id.P99 != m.P99 {
		t.Errorf("merge with zero changed snapshot: %+v vs %+v", id, m)
	}
}

func TestConcurrentIncrements(t *testing.T) {
	reg := NewRegistry(`proc="0"`)
	var c Counter
	var g Gauge
	var h Histogram
	reg.RegisterCounter("wbcast_test_total", "test", &c)
	reg.RegisterGauge("wbcast_test_gauge", "test", &g)
	reg.RegisterHistogram("wbcast_test_latency_seconds", "test", &h)

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(int64(w*per + i))
				h.Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					reg.Snapshot() // scrape concurrently with updates
				}
			}
		}(w)
	}
	wg.Wait()

	s := reg.Snapshot()
	if got := s.Counters["wbcast_test_total"]; got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := s.Gauges["wbcast_test_gauge"]; got%per != per-1 {
		t.Errorf("gauge = %d, want some worker's last value (%d mod %d)", got, per-1, per)
	}
	if got := s.Latencies["wbcast_test_latency_seconds"].Count; got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	var c Counter
	r.RegisterCounter("wbcast_test_total", "test", &c) // must not panic
	c.Inc()
	if c.Load() != 1 {
		t.Errorf("unregistered counter lost its increment")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Errorf("nil registry snapshot not empty")
	}
}

func TestWritePrometheus(t *testing.T) {
	r0 := NewRegistry(`proc="0"`)
	r1 := NewRegistry(`proc="1"`)
	var c0, c1 Counter
	c0.Add(3)
	c1.Add(4)
	r0.RegisterCounter("wbcast_commits_total", "commits", &c0)
	r1.RegisterCounter("wbcast_commits_total", "commits", &c1)
	var h Histogram
	h.Observe(2 * time.Second)
	r0.RegisterHistogram(`wbcast_stage_latency_seconds{stage="commit"}`, "stage latency", &h)

	var b strings.Builder
	WritePrometheus(&b, r0, r1)
	out := b.String()

	if n := strings.Count(out, "# HELP wbcast_commits_total"); n != 1 {
		t.Errorf("HELP emitted %d times, want once:\n%s", n, out)
	}
	for _, want := range []string{
		`wbcast_commits_total{proc="0"} 3`,
		`wbcast_commits_total{proc="1"} 4`,
		"# TYPE wbcast_stage_latency_seconds summary",
		`wbcast_stage_latency_seconds{stage="commit",proc="0",quantile="0.99"}`,
		`wbcast_stage_latency_seconds_count{stage="commit",proc="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTracerSampling(t *testing.T) {
	mkID := func(seq uint32) mcast.MsgID { return mcast.MakeMsgID(7, seq) }

	tr := NewTracer(4, nil)
	for seq := uint32(0); seq < 10; seq++ {
		tr.Message(1, mkID(seq), StageStart, "")
	}
	evs := tr.Events()
	if len(evs) != 3 { // seq 0, 4, 8
		t.Fatalf("sampled %d events, want 3", len(evs))
	}
	for _, ev := range evs {
		if ev.ID.Seq()%4 != 0 {
			t.Errorf("unsampled message traced: %v", ev.ID)
		}
	}

	// System events ignore sampling; a nil tracer ignores everything.
	tr.System(2, EventStepDown, "bal=3")
	if got := len(tr.Events()); got != 4 {
		t.Errorf("system event not recorded: %d events", got)
	}
	var off *Tracer
	off.System(1, EventStepDown, "")
	off.Fault(0, "crash p1")
	if off.Sampled(mkID(0)) {
		t.Errorf("nil tracer claims to sample")
	}
	if NewTracer(0, nil) != nil {
		t.Errorf("sample=0 should disable tracing")
	}
}

func TestTracerBounded(t *testing.T) {
	tr := NewTracer(1, nil)
	tr.limit = 4
	for i := 0; i < 10; i++ {
		tr.System(1, EventElection, "")
	}
	if got := len(tr.Events()); got != 4 {
		t.Errorf("buffer held %d events, want 4", got)
	}
	if got := tr.Dropped.Load(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
}

func TestFormatTimelineDeterministic(t *testing.T) {
	build := func() string {
		tr := NewTracer(1, nil)
		id := mcast.MakeMsgID(3, 0)
		tr.EventAt(0, 5, id, StageSubmit, "")
		tr.EventAt(2*time.Millisecond, 0, id, StageStart, "")
		tr.EventAt(3*time.Millisecond, 0, id, StagePropose, "")
		tr.Fault(4*time.Millisecond, "crash p1")
		tr.EventAt(9*time.Millisecond, 0, id, StageDeliver, "")
		return FormatTimeline(tr.Events()) + "\n" + FormatMessageTimelines(tr.Events())
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("identical event sequences rendered differently:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{"fault", "crash p1", StageDeliver, "system events:"} {
		if !strings.Contains(a, want) {
			t.Errorf("timeline missing %q:\n%s", want, a)
		}
	}
}

func TestProtoHandleNil(t *testing.T) {
	var p *Proto
	var at time.Duration
	id := mcast.MakeMsgID(1, 0)
	p.Begin(id, &at)
	p.Stage(StagePropose, id, &at)
	p.Mark(EventStepDown, "")
	p.MarkMsg(EventRetransmit, id)
	if Clock(nil).Now() != 0 {
		t.Errorf("nil clock nonzero")
	}
	var c *Client
	c.OnSubmit(id, &at)
	c.OnComplete(id, at)
	c.OnRetry(id)
}

func TestProtoHandleStages(t *testing.T) {
	var now time.Duration
	clock := func() time.Duration { return now }
	reg := NewRegistry("")
	tr := NewTracer(1, clock)
	p := NewProto(reg, clock, tr, 0)

	id := mcast.MakeMsgID(2, 0)
	var at time.Duration
	p.Begin(id, &at)
	now = 2 * time.Millisecond
	p.Stage(StagePropose, id, &at)
	now = 5 * time.Millisecond
	p.Stage(StageAccept, id, &at)
	now = 6 * time.Millisecond
	p.Stage(StageCommit, id, &at)
	now = 7 * time.Millisecond
	p.Stage(StageDeliver, id, &at)
	p.Mark(EventElection, "bal=1")
	p.MarkMsg(EventRetransmit, id)

	s := reg.Snapshot()
	if got := s.Counters[MetricCommits]; got != 1 {
		t.Errorf("commits = %d, want 1", got)
	}
	if got := s.Counters[MetricDeliveries]; got != 1 {
		t.Errorf("deliveries = %d, want 1", got)
	}
	if got := s.Counters[MetricElections]; got != 1 {
		t.Errorf("elections = %d, want 1", got)
	}
	if got := s.Counters[MetricRetransmits]; got != 1 {
		t.Errorf("retransmits = %d, want 1", got)
	}
	accept := s.Latencies[MetricStageLatency+`{stage="accept"}`]
	if accept.Count != 1 || accept.Sum != 3*time.Millisecond {
		t.Errorf("accept stage = %+v, want one 3ms observation", accept)
	}
	// begin + 4 stages + election + retransmit = 7 trace events
	if got := len(tr.Events()); got != 7 {
		t.Errorf("traced %d events, want 7", got)
	}
}

func TestMergeSnapshots(t *testing.T) {
	a := Snapshot{
		Counters:  map[string]int64{"c": 1},
		Gauges:    map[string]int64{"g": 2},
		Latencies: map[string]LatencyStats{},
	}
	b := Snapshot{
		Counters:  map[string]int64{"c": 3},
		Gauges:    map[string]int64{"g": 5},
		Latencies: map[string]LatencyStats{},
	}
	m := MergeSnapshots(a, b)
	if m.Counters["c"] != 4 || m.Gauges["g"] != 7 {
		t.Errorf("merge = %+v", m)
	}
}

// TestRegistryRendersEveryKind pins what a scrape reads of each way to hold
// a metric: a counter, a gauge, a view of each kind and a histogram, read at
// scrape time (not at registration) by Snapshot and WritePrometheus alike.
func TestRegistryRendersEveryKind(t *testing.T) {
	r := NewRegistry(`proc="2"`)
	var c Counter
	var g Gauge
	var h Histogram
	depth := int64(0)
	r.RegisterCounter("wbcast_c_total", "a counter", &c)
	r.RegisterGauge("wbcast_g", "a gauge", &g)
	r.RegisterFunc("wbcast_v_total", "a counter view", KindCounter, func() int64 { return depth * 10 })
	r.RegisterFunc("wbcast_d", "a gauge view", KindGauge, func() int64 { return depth })
	r.RegisterHistogram(`wbcast_h_seconds{stage="x"}`, "a histogram", &h)
	c.Add(5)
	g.Set(-3)
	depth = 7
	h.Observe(time.Second)
	h.Observe(3 * time.Second)

	s := r.Snapshot()
	wantCounters := map[string]int64{"wbcast_c_total": 5, "wbcast_v_total": 70}
	wantGauges := map[string]int64{"wbcast_g": -3, "wbcast_d": 7}
	if len(s.Counters) != len(wantCounters) || len(s.Gauges) != len(wantGauges) || len(s.Latencies) != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	for k, v := range wantCounters {
		if s.Counters[k] != v {
			t.Errorf("Counters[%s] = %d, want %d", k, s.Counters[k], v)
		}
	}
	for k, v := range wantGauges {
		if s.Gauges[k] != v {
			t.Errorf("Gauges[%s] = %d, want %d", k, s.Gauges[k], v)
		}
	}
	if l := s.Latencies[`wbcast_h_seconds{stage="x"}`]; l.Count != 2 || l.Sum != 4*time.Second || l.Max != 3*time.Second {
		t.Errorf("histogram = %+v", l)
	}

	var b strings.Builder
	WritePrometheus(&b, r)
	want := `# HELP wbcast_c_total a counter
# TYPE wbcast_c_total counter
wbcast_c_total{proc="2"} 5
# HELP wbcast_g a gauge
# TYPE wbcast_g gauge
wbcast_g{proc="2"} -3
# HELP wbcast_v_total a counter view
# TYPE wbcast_v_total counter
wbcast_v_total{proc="2"} 70
# HELP wbcast_d a gauge view
# TYPE wbcast_d gauge
wbcast_d{proc="2"} 7
# HELP wbcast_h_seconds a histogram
# TYPE wbcast_h_seconds summary
wbcast_h_seconds{stage="x",proc="2",quantile="0.5"} 3
wbcast_h_seconds{stage="x",proc="2",quantile="0.95"} 3
wbcast_h_seconds{stage="x",proc="2",quantile="0.99"} 3
wbcast_h_seconds_sum{stage="x",proc="2"} 4
wbcast_h_seconds_count{stage="x",proc="2"} 2
wbcast_h_seconds_max{stage="x",proc="2"} 3
`
	if got := b.String(); got != want {
		t.Errorf("WritePrometheus:\n%s\nwant:\n%s", got, want)
	}
}
