package wbcast

import (
	"context"
	"testing"
	"time"

	"wbcast/internal/obs"
)

// TestAbandonedMulticastsStopRetrying: a Multicast whose context ends
// cancels its message in the client's loop. Against a group whose replicas
// have all crashed, 100 abandoned calls stop being re-sent within one retry
// interval (50δ), and the client's table holds none of them.
func TestAbandonedMulticastsStopRetrying(t *testing.T) {
	const delta = time.Millisecond
	c, err := New(Config{Groups: 1, Replicas: 3, Delta: delta, Transport: InProcess()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.GroupMembers(0) {
		c.CrashReplica(p)
	}
	for range 100 {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := cl.Multicast(ctx, []byte("x"), 0)
		cancel()
		if err != context.DeadlineExceeded {
			t.Fatalf("Multicast to a crashed group: %v, want DeadlineExceeded", err)
		}
	}
	time.Sleep(50 * delta)
	retries := cl.Metrics().Counters[obs.MetricClientRetries]
	time.Sleep(time.Second)
	if got := cl.Metrics().Counters[obs.MetricClientRetries]; got != retries {
		t.Errorf("%d re-sends in the second after one retry interval, want none", got-retries)
	}
	cl.Close() // joins the client's loop, so its table is read after its last write
	if n := cl.h.Inflight(); n != 0 {
		t.Errorf("the client holds %d abandoned multicasts", n)
	}
}
