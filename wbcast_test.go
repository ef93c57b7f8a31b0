package wbcast_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"wbcast"
)

func TestConfigValidation(t *testing.T) {
	if _, err := wbcast.New(wbcast.Config{}); err == nil {
		t.Error("zero Groups accepted")
	}
	if _, err := wbcast.New(wbcast.Config{Groups: 1, Replicas: 2}); err == nil {
		t.Error("even Replicas accepted")
	}
	// Validate is the same check construction applies — including the
	// per-transport ones.
	bad := wbcast.Config{
		Groups:    1,
		Latency:   wbcast.LAN(),
		Transport: wbcast.TCP("", map[wbcast.ProcessID]string{}),
	}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted Latency on a TCP transport")
	}
	if _, err := wbcast.New(bad); err == nil {
		t.Error("New accepted Latency on a TCP transport")
	}
	if err := (wbcast.Config{Groups: 2}).Validate(); err != nil {
		t.Errorf("Validate rejected a valid config: %v", err)
	}
}

// collect feeds every replica's deliveries to f, from one goroutine per
// replica draining a lossless subscription (they end when c closes).
func collect(c *wbcast.Cluster, f func(p wbcast.ProcessID, d wbcast.Delivery)) {
	for _, r := range c.Replicas() {
		sub := r.Deliveries()
		go func() {
			for d := range sub.C() {
				f(r.ID(), d)
			}
		}()
	}
}

func TestQuickstartFlow(t *testing.T) {
	var mu sync.Mutex
	delivered := map[wbcast.ProcessID][]wbcast.Delivery{}
	c, err := wbcast.New(wbcast.Config{Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.AllGroups(); !slices.Equal(got, wbcast.NewGroupSet(0, 1)) {
		t.Fatalf("AllGroups() = %v, want {g0,g1}", got)
	}
	collect(c, func(p wbcast.ProcessID, d wbcast.Delivery) {
		mu.Lock()
		delivered[p] = append(delivered[p], d)
		mu.Unlock()
	})
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.Multicast(ctx, []byte("to-both"), 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Multicast(ctx, []byte("to-g0"), 0); err != nil {
		t.Fatal(err)
	}
	// The synchronous Multicast already guarantees first delivery per
	// group; give followers a beat to catch up.
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	for _, p := range c.GroupMembers(0) {
		if len(delivered[p]) != 2 {
			t.Errorf("group-0 replica %d delivered %d messages, want 2", p, len(delivered[p]))
		}
	}
	for _, p := range c.GroupMembers(1) {
		if len(delivered[p]) != 1 {
			t.Errorf("group-1 replica %d delivered %d messages, want 1", p, len(delivered[p]))
		}
	}
}

func TestMulticastValidation(t *testing.T) {
	c, err := wbcast.New(wbcast.Config{Groups: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cl.Multicast(ctx, []byte("x")); err == nil {
		t.Error("empty destination accepted")
	}
	if _, err := cl.Multicast(ctx, []byte("x"), 7); err == nil {
		t.Error("unknown group accepted")
	}
}

func TestContextCancellation(t *testing.T) {
	c, err := wbcast.New(wbcast.Config{Groups: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	// Crash the whole group so the multicast cannot complete.
	for _, p := range c.GroupMembers(0) {
		c.Replica(p).Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := cl.Multicast(ctx, []byte("x"), 0); err != context.DeadlineExceeded {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
	c.Close()
}

// TestAllProtocolsEndToEnd drives every protocol through the public API.
func TestAllProtocolsEndToEnd(t *testing.T) {
	for _, proto := range []wbcast.Protocol{wbcast.WhiteBox, wbcast.FastCast, wbcast.FTSkeen} {
		t.Run(proto.String(), func(t *testing.T) {
			var mu sync.Mutex
			count := 0
			c, err := wbcast.New(wbcast.Config{Protocol: proto, Groups: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			collect(c, func(wbcast.ProcessID, wbcast.Delivery) {
				mu.Lock()
				count++
				mu.Unlock()
			})
			cl, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			for i := 0; i < 10; i++ {
				dest := []wbcast.GroupID{wbcast.GroupID(i % 3), wbcast.GroupID((i + 1) % 3)}
				if _, err := cl.Multicast(ctx, []byte(fmt.Sprintf("m%d", i)), dest...); err != nil {
					t.Fatalf("multicast %d: %v", i, err)
				}
			}
			time.Sleep(100 * time.Millisecond)
			mu.Lock()
			defer mu.Unlock()
			if count != 10*2*3 { // 10 messages × 2 groups × 3 replicas
				t.Errorf("deliveries = %d, want %d", count, 60)
			}
		})
	}
}

// TestFailoverThroughPublicAPI: crash a group leader mid-stream; the
// cluster must keep accepting multicasts.
func TestFailoverThroughPublicAPI(t *testing.T) {
	c, err := wbcast.New(wbcast.Config{Groups: 2, Delta: time.Millisecond})
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
	if _, err := cl.Multicast(ctx, []byte("before"), 0, 1); err != nil {
		t.Fatal(err)
	}
	c.Replica(c.InitialLeader(0)).Close()
	if _, err := cl.Multicast(ctx, []byte("after"), 0, 1); err != nil {
		t.Fatalf("multicast after leader crash: %v", err)
	}
}

// TestCrashInProcess pins what a crash does on the in-process transport:
// the crashed replica's node is closed, what its group still sends it is
// counted as dropped at the sender, and its mailbox does not grow while
// multicasts and heartbeats go on. A closed client's Multicast is refused,
// as on TCP.
func TestCrashInProcess(t *testing.T) {
	c, err := wbcast.New(wbcast.Config{Groups: 1, Delta: time.Millisecond})
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
	multicast := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := cl.Multicast(ctx, []byte("x"), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	multicast(1)
	leader := c.Replica(c.InitialLeader(0))
	crashed := c.Replica(c.GroupMembers(0)[2])
	crashed.Close()
	depth := func() int64 { return crashed.Metrics().Gauges["wbcast_mailbox_depth"] }
	drops := leader.Stats().OutboundDrops
	multicast(20)
	before := depth()
	time.Sleep(100 * time.Millisecond) // heartbeats every 10δ
	multicast(20)
	if got := leader.Stats().OutboundDrops; got < drops+40 {
		t.Errorf("the leader counted %d drops over 40 multicasts to a crashed follower, want ≥ 40", got-drops)
	}
	if after := depth(); after != before {
		t.Errorf("the crashed replica's mailbox went from %d to %d", before, after)
	}

	cl.Close()
	if _, _, err := cl.MulticastAsync([]byte("x"), 0); err == nil {
		t.Error("a closed client's multicast was accepted")
	}
}

// TestBatchingPublicAPI drives bursts of concurrent MulticastAsync calls
// through the public API on the in-process transport: payload-level deliveries,
// identical (GTS, Sub) total order at every replica, and fewer multicasts
// than payloads — the calls that queue up while the client's loop is busy
// leave together, one envelope per drain.
func TestBatchingPublicAPI(t *testing.T) {
	const (
		submitters = 4
		perWorker  = 25
	)
	var mu sync.Mutex
	delivered := map[wbcast.ProcessID][]wbcast.Delivery{}
	c, err := wbcast.New(wbcast.Config{Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	collect(c, func(p wbcast.ProcessID, d wbcast.Delivery) {
		mu.Lock()
		delivered[p] = append(delivered[p], d)
		mu.Unlock()
	})
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dones []<-chan struct{}
			for j := 0; j < perWorker; j++ {
				_, done, err := cl.MulticastAsync([]byte(fmt.Sprintf("w%d-%d", w, j)), 0, 1)
				if err != nil {
					errs <- fmt.Errorf("worker %d multicast %d: %w", w, j, err)
					return
				}
				dones = append(dones, done)
			}
			for j, done := range dones {
				select {
				case <-done:
				case <-time.After(30 * time.Second):
					errs <- fmt.Errorf("worker %d multicast %d never completed", w, j)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // followers catch up
	mu.Lock()
	defer mu.Unlock()
	total := submitters * perWorker
	// Bursts must aggregate: amortising the ordering cost over a batch is
	// the mechanism of batching's throughput gain.
	if n := cl.BatchesSent(); n <= 0 || n >= int64(total) {
		t.Errorf("%d payloads went out in %d multicasts: no drain held two", total, n)
	}
	var reference []string
	for _, p := range append(c.GroupMembers(0), c.GroupMembers(1)...) {
		ds := delivered[p]
		if len(ds) != total {
			t.Fatalf("replica %d delivered %d payloads, want %d", p, len(ds), total)
		}
		var seq []string
		for i, d := range ds {
			if i > 0 && !ds[i-1].Before(d) {
				t.Errorf("replica %d: delivery %d not above its predecessor in (GTS, Sub)", p, i)
			}
			seq = append(seq, string(d.Msg.Payload))
		}
		// All replicas deliver to both groups here, so every replica must
		// observe the identical per-payload total order.
		if reference == nil {
			reference = seq
		} else {
			for i := range reference {
				if seq[i] != reference[i] {
					t.Fatalf("replica %d diverges from total order at %d: %q vs %q", p, i, seq[i], reference[i])
				}
			}
		}
	}
}

// TestConcurrentClients: multiple clients hammer the cluster concurrently.
func TestConcurrentClients(t *testing.T) {
	c, err := wbcast.New(wbcast.Config{Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 4*20)
	for i := 0; i < 4; i++ {
		cl, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(cl *wbcast.Client) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for j := 0; j < 20; j++ {
				if _, err := cl.Multicast(ctx, []byte("x"), 0, 1); err != nil {
					errs <- err
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
