package wbcast_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"wbcast"
)

// obsRun drives a small deterministic deployment with tracing on and
// returns the cluster's merged metrics plus the canonical trace timeline.
func obsRun(t *testing.T, seed int64, traceSample int) (wbcast.MetricsSnapshot, string) {
	t.Helper()
	cluster, err := wbcast.New(wbcast.Config{
		Groups:      2,
		Delta:       5 * time.Millisecond,
		Transport:   wbcast.SimulatedWith(wbcast.SimulatedOptions{Seed: seed}),
		TraceSample: traceSample,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 6; i++ {
		dest := []wbcast.GroupID{wbcast.GroupID(i % 2)}
		if i%3 == 0 {
			dest = []wbcast.GroupID{0, 1}
		}
		if _, err := client.Multicast(ctx, []byte(fmt.Sprintf("m%d", i)), dest...); err != nil {
			t.Fatalf("multicast %d: %v", i, err)
		}
	}
	return cluster.Metrics(), wbcast.FormatTimeline(cluster.Trace())
}

// TestMetricsSnapshot: the always-on metrics count every
// delivery and populate the per-stage histograms.
func TestMetricsSnapshot(t *testing.T) {
	snap, _ := obsRun(t, 1, 0)
	// 6 messages; the 2 multi-group ones deliver at both groups' replicas.
	// Each group has 3 replicas, so deliveries ≥ 6×3.
	if n := snap.Counters[wbcast.MetricDeliveries]; n < 18 {
		t.Errorf("deliveries = %d, want ≥ 18", n)
	}
	var stages int
	for name, ls := range snap.Latencies {
		if strings.HasPrefix(name, wbcast.MetricStageLatency) && ls.Count > 0 {
			stages++
		}
	}
	if stages != 4 {
		t.Errorf("populated stage histograms = %d, want 4 (propose/accept/commit/deliver)", stages)
	}
}

// TestTraceDeterministicPublic: on the simulated transport, two runs of
// the same seed produce byte-identical trace timelines — virtual-time
// stamps and sequence-number sampling leave nothing scheduler-dependent.
func TestTraceDeterministicPublic(t *testing.T) {
	_, a := obsRun(t, 42, 1)
	_, b := obsRun(t, 42, 1)
	if a == "" {
		t.Fatal("empty trace")
	}
	if a != b {
		t.Fatalf("traces differ between same-seed runs:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
	for _, stage := range []string{"submit", "start", "propose", "accept", "commit", "deliver", "complete"} {
		if !strings.Contains(a, stage) {
			t.Errorf("trace lacks stage %q", stage)
		}
	}
}

// TestServeMetrics: the HTTP endpoint exposes Prometheus text with the
// documented metric names, expvar and pprof.
func TestServeMetrics(t *testing.T) {
	cluster, err := wbcast.New(wbcast.Config{Groups: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := client.Multicast(ctx, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}

	srv, err := wbcast.ServeMetrics("127.0.0.1:0", cluster, client)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE wbcast_stage_latency_seconds summary",
		"wbcast_deliveries_total",
		"wbcast_client_e2e_latency_seconds",
		`proc="0"`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Errorf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Errorf("/debug/vars lacks memstats")
	}
	if _, ok := vars["wbcast"]; ok {
		t.Errorf("/debug/vars publishes a wbcast document; /metrics is the one exposition")
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("/debug/pprof/ lacks profile index")
	}
}

// TestStatsIsAViewOfTheMetrics: Replica.Stats and the transport counters in
// Replica.Metrics read the same counters. Heartbeats keep them moving, so
// each metric must lie between two Stats readings taken around it. On the
// simulated transport Stats is all zeros.
func TestStatsIsAViewOfTheMetrics(t *testing.T) {
	tcpPeers := make(map[wbcast.ProcessID]string)
	for pid := wbcast.ProcessID(0); pid <= 3; pid++ {
		tcpPeers[pid] = "127.0.0.1:0"
	}
	for _, tc := range []struct {
		name string
		tr   wbcast.Transport
	}{
		{"TCP", wbcast.TCP("", tcpPeers)},
		{"InProcess", wbcast.InProcess()},
		{"Simulated", wbcast.Simulated()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := wbcast.New(wbcast.Config{Groups: 1, Delta: time.Millisecond, Transport: tc.tr})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			cl, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for i := 0; i < 5; i++ {
				if _, err := cl.Multicast(ctx, []byte("m"), 0); err != nil {
					t.Fatal(err)
				}
			}
			// A multicast returns once a quorum has acknowledged it, so a
			// follower may not have sent (or even read) a frame yet: wait
			// until every replica has, under a deadline.
			settled := func(s wbcast.TransportStats) bool {
				return tc.name == "Simulated" || s.MailboxHighWater > 0 && (tc.name != "TCP" || s.FramesSent > 0 && s.FramesRead > 0)
			}
			deadline := time.Now().Add(10 * time.Second)
			for _, r := range c.Replicas() {
				for !settled(r.Stats()) {
					if time.Now().After(deadline) {
						t.Fatalf("replica %d: no traffic in 10 s: %+v", r.ID(), r.Stats())
					}
					time.Sleep(time.Millisecond)
				}
			}
			for _, r := range c.Replicas() {
				before, snap, after := r.Stats(), r.Metrics(), r.Stats()
				if tc.name == "Simulated" {
					if before != (wbcast.TransportStats{}) {
						t.Errorf("replica %d: simulated Stats = %+v, want zeros", r.ID(), before)
					}
					continue
				}
				for _, m := range []struct {
					name   string
					lo, hi int64
				}{
					{"wbcast_messages_encoded_total", before.MessagesEncoded, after.MessagesEncoded},
					{"wbcast_frames_sent_total", before.FramesSent, after.FramesSent},
					{"wbcast_frames_coalesced_total", before.FramesCoalesced, after.FramesCoalesced},
					{"wbcast_outbound_drops_total", before.OutboundDrops, after.OutboundDrops},
					{"wbcast_reconnects_total", before.Reconnects, after.Reconnects},
					{"wbcast_frames_read_total", before.FramesRead, after.FramesRead},
					{"wbcast_mailbox_high_water", before.MailboxHighWater, after.MailboxHighWater},
				} {
					got, ok := snap.Counters[m.name]
					if g, gauge := snap.Gauges[m.name]; gauge {
						got, ok = g, true
					}
					if !ok || got < m.lo || got > m.hi {
						t.Errorf("replica %d: %s = %d (present %v), outside its Stats readings [%d, %d]", r.ID(), m.name, got, ok, m.lo, m.hi)
					}
				}
				// In memory nothing is encoded, framed or redialled.
				if tc.name == "InProcess" && before.MessagesEncoded+before.FramesSent+before.FramesCoalesced+before.FramesRead+before.Reconnects != 0 {
					t.Errorf("replica %d: in-process Stats count frames: %+v", r.ID(), before)
				}
				if tc.name == "TCP" && (before.FramesSent == 0 || before.FramesRead == 0) {
					t.Errorf("replica %d: no frames counted over TCP: %+v", r.ID(), before)
				}
				if before.MailboxHighWater == 0 {
					t.Errorf("replica %d: no mailbox high-water after traffic: %+v", r.ID(), before)
				}
			}
		})
	}
}
