package kv_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"wbcast"
	"wbcast/internal/kvstore"
	"wbcast/kv"
)

func TestHashPartitionerEdgeCases(t *testing.T) {
	p := kv.HashPartitioner{}

	// The empty key is a valid key and must map consistently.
	if s := p.Shard(nil, 4); s != p.Shard([]byte{}, 4) {
		t.Errorf("nil and empty key map differently: %d", s)
	}
	// A single shard owns everything.
	for _, key := range [][]byte{nil, []byte("a"), []byte("zzzz")} {
		if s := p.Shard(key, 1); s != 0 {
			t.Errorf("Shard(%q, 1) = %d", key, s)
		}
	}
	// Non-power-of-two shard counts: in range and reasonably balanced.
	for _, shards := range []int{3, 5, 7} {
		counts := make([]int, shards)
		const n = 30_000
		for i := 0; i < n; i++ {
			s := p.Shard([]byte(fmt.Sprintf("key-%d", i)), shards)
			if s < 0 || s >= shards {
				t.Fatalf("Shard out of range: %d of %d", s, shards)
			}
			counts[s]++
		}
		// Skew bound: no shard beyond ±25% of the uniform share.
		for s, c := range counts {
			share := float64(c) * float64(shards) / n
			if share < 0.75 || share > 1.25 {
				t.Errorf("%d shards: shard %d has share %.3f of uniform", shards, s, share)
			}
		}
	}
}

// service spins up an in-process cluster plus a kv service over it.
func service(t *testing.T, groups, replicas int, opts kv.Options) (*wbcast.Cluster, *kv.Service) {
	t.Helper()
	c, err := wbcast.New(wbcast.Config{Groups: groups, Replicas: replicas, Transport: wbcast.InProcess()})
	if err != nil {
		t.Fatal(err)
	}
	opts.RecordApplied = true
	svc, err := kv.NewService(c, opts)
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close(); c.Close() })
	return c, svc
}

func TestKVEndToEnd(t *testing.T) {
	_, svc := service(t, 3, 3, kv.Options{})
	cl, err := svc.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Read-your-writes across shards: a Put completed before a Get is
	// always visible to it.
	for i := 0; i < 20; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		val := []byte(fmt.Sprintf("val-%d", i))
		if err := cl.Put(ctx, key, val); err != nil {
			t.Fatal(err)
		}
		got, found, err := cl.Get(ctx, key)
		if err != nil || !found || !bytes.Equal(got, val) {
			t.Fatalf("Get(%s) = %q, %v, %v", key, got, found, err)
		}
	}

	// Delete reports prior existence.
	if existed, err := cl.Delete(ctx, []byte("key-0")); err != nil || !existed {
		t.Fatalf("Delete(key-0) = %v, %v", existed, err)
	}
	if existed, err := cl.Delete(ctx, []byte("never-written")); err != nil || existed {
		t.Fatalf("Delete(never-written) = %v, %v", existed, err)
	}
	if _, found, err := cl.Get(ctx, []byte("key-0")); err != nil || found {
		t.Fatalf("deleted key still found (%v, %v)", found, err)
	}

	if err := svc.Verify(true); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyNeedsRecordApplied: without RecordApplied the engines keep no
// applied history, so Verify has nothing to check and must say so rather
// than pass.
func TestVerifyNeedsRecordApplied(t *testing.T) {
	c, err := wbcast.New(wbcast.Config{Groups: 2, Replicas: 3, Transport: wbcast.InProcess()})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := kv.NewService(c, kv.Options{})
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	defer func() { svc.Close(); c.Close() }()
	cl, err := svc.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		if err := cl.Put(ctx, []byte(fmt.Sprintf("key-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for _, complete := range []bool{false, true} {
		if err := svc.Verify(complete); err == nil || !strings.Contains(err.Error(), "RecordApplied") {
			t.Errorf("Verify(%v) = %v, want an error naming RecordApplied", complete, err)
		}
	}
}

func TestKVTxnAcrossShards(t *testing.T) {
	_, svc := service(t, 3, 1, kv.Options{})
	cl, err := svc.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Find two keys on distinct shards, and a third on a's shard.
	a := []byte("acct-a")
	var b, c []byte
	for i := 0; b == nil || c == nil; i++ {
		k := []byte(fmt.Sprintf("acct-%d", i))
		switch {
		case b == nil && cl.Shard(k) != cl.Shard(a):
			b = k
		case c == nil && cl.Shard(k) == cl.Shard(a):
			c = k
		}
	}

	write := []kv.Op{{Kind: kv.OpPut, Key: a, Val: []byte("100")},
		{Kind: kv.OpPut, Key: b, Val: []byte("200")},
		{Kind: kv.OpPut, Key: c, Val: []byte("300")}}
	if _, err := cl.Txn(ctx, write...); err != nil {
		t.Fatal(err)
	}
	// A cross-shard read txn observes every write, positionally — two of
	// its three results come from one shard.
	res, err := cl.Txn(ctx, kv.Op{Kind: kv.OpGet, Key: a}, kv.Op{Kind: kv.OpGet, Key: b}, kv.Op{Kind: kv.OpGet, Key: c})
	if err != nil {
		t.Fatal(err)
	}
	if string(res[0].Val) != "100" || string(res[1].Val) != "200" || string(res[2].Val) != "300" {
		t.Fatalf("txn read %q/%q/%q", res[0].Val, res[1].Val, res[2].Val)
	}
	// Two keys on one shard make a single-shard txn.
	res, err = cl.Txn(ctx, kv.Op{Kind: kv.OpGet, Key: c}, kv.Op{Kind: kv.OpGet, Key: a})
	if err != nil {
		t.Fatal(err)
	}
	if string(res[0].Val) != "300" || string(res[1].Val) != "100" {
		t.Fatalf("single-shard txn read %q/%q", res[0].Val, res[1].Val)
	}
	m := cl.Metrics()
	if single, multi := m.Latencies[wbcast.MetricKVOpLatency+`{dests="single"}`].Count, m.Latencies[wbcast.MetricKVOpLatency+`{dests="multi"}`].Count; single != 1 || multi != 2 {
		t.Errorf("latency histograms count %d single-shard and %d multi-shard ops, want 1 and 2", single, multi)
	}
	// The write went to each of its two shards once: a and c share one
	// destination.
	dest := wbcast.NewGroupSet(wbcast.GroupID(cl.Shard(a)), wbcast.GroupID(cl.Shard(b)))
	payload := kvstore.EncodeOp(nil, kv.Op{Kind: kv.OpTxn, Subs: write})
	for _, sh := range svc.Replicas() {
		var found []kv.Applied
		for _, e := range sh.AppliedLog() {
			if bytes.Equal(e.Payload, payload) {
				found = append(found, e)
			}
		}
		switch {
		case !dest.Contains(sh.Group()):
			if len(found) != 0 {
				t.Errorf("shard %d applied the write txn addressed to %v", sh.Group(), dest)
			}
		case len(found) != 1:
			t.Errorf("shard %d applied the write txn %d times", sh.Group(), len(found))
		case !slices.Equal(found[0].Dest, dest):
			t.Errorf("shard %d applied the write txn with Dest %v, want %v", sh.Group(), found[0].Dest, dest)
		}
	}

	// Malformed transactions are rejected client-side.
	if _, err := cl.Txn(ctx); err == nil {
		t.Error("empty txn accepted")
	}
	if _, err := cl.Txn(ctx, kv.Op{Kind: kv.OpTxn}); err == nil {
		t.Error("nested txn accepted")
	}

	if err := svc.Verify(true); err != nil {
		t.Fatal(err)
	}
}

func TestKVContextCancel(t *testing.T) {
	_, svc := service(t, 1, 1, kv.Options{})
	cl, err := svc.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cl.Put(ctx, []byte("k"), []byte("v")); err != context.Canceled {
		t.Fatalf("Put on cancelled context: %v", err)
	}
}

func TestKVClientMetrics(t *testing.T) {
	_, svc := service(t, 2, 1, kv.Options{})
	cl, err := svc.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cl.Put(ctx, []byte("m1"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	a, b := []byte("m1"), []byte("m2")
	for i := 0; cl.Shard(b) == cl.Shard(a); i++ {
		b = []byte(fmt.Sprintf("m2-%d", i))
	}
	if _, err := cl.Txn(ctx, kv.Op{Kind: kv.OpGet, Key: a}, kv.Op{Kind: kv.OpGet, Key: b}); err != nil {
		t.Fatal(err)
	}
	m := cl.Metrics()
	if m.Counters[wbcast.MetricKVOps+`{op="put"}`] != 1 || m.Counters[wbcast.MetricKVOps+`{op="txn"}`] != 1 {
		t.Fatalf("op counters: %v", m.Counters)
	}
	if m.Latencies[wbcast.MetricKVOpLatency+`{dests="multi"}`].Count != 1 {
		t.Fatalf("multi-shard latency histogram: %+v", m.Latencies)
	}
}

// TestKVMetricsServed: the service's and a client's metric sources, served
// by ServeMetrics, expose the shard engines' and the client's kv metrics on
// /metrics, each labelled with its process.
func TestKVMetricsServed(t *testing.T) {
	c, svc := service(t, 1, 3, kv.Options{})
	cl, err := svc.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cl.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv, err := wbcast.ServeMetrics("127.0.0.1:0", svc.MetricsSource(), cl.MetricsSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	client := c.NumGroups() * 3 // the first client follows the replicas
	for _, want := range []string{
		wbcast.MetricKVApplied + `{proc="0"}`,
		fmt.Sprintf(`%s{op="put",proc="%d"} 1`, wbcast.MetricKVOps, client),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics lacks %q:\n%s", want, body)
		}
	}
}
