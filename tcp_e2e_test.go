package wbcast_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"wbcast"
)

// TestTCPClusterEndToEnd drives a full 2-group × 3-replica cluster of real
// TCP servers on loopback through the public API only: multicasts across
// both groups, a leader crash mid-stream, and a check that every surviving
// replica observes the identical total order.
func TestTCPClusterEndToEnd(t *testing.T) {
	const (
		groups   = 2
		replicas = 3
		preCrash = 6
		total    = 12
	)
	// Every process — 6 replicas plus 1 client — binds an ephemeral
	// loopback port; the transport rewrites the shared address book as the
	// actual addresses become known.
	peers := make(map[wbcast.ProcessID]string)
	for pid := wbcast.ProcessID(0); pid <= groups*replicas; pid++ {
		peers[pid] = "127.0.0.1:0"
	}
	cfg := wbcast.Config{
		Groups:    groups,
		Replicas:  replicas,
		Delta:     2 * time.Millisecond,
		Transport: wbcast.TCP("", peers),
	}
	cluster, err := wbcast.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	var mu sync.Mutex
	delivered := make(map[wbcast.ProcessID][]wbcast.Delivery)
	for _, r := range cluster.Replicas() {
		if r.Addr() == "" {
			t.Fatalf("replica %d has no TCP address", r.ID())
		}
		sub := r.Deliveries()
		go func(pid wbcast.ProcessID) {
			for d := range sub.C() {
				mu.Lock()
				delivered[pid] = append(delivered[pid], d)
				mu.Unlock()
			}
		}(r.ID())
	}

	client, err := cluster.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for i := 0; i < preCrash; i++ {
		if _, err := client.Multicast(ctx, []byte(fmt.Sprintf("pre-%d", i)), 0, 1); err != nil {
			t.Fatalf("multicast %d: %v", i, err)
		}
	}

	// Crash-stop the leader of group 0: its TCP node shuts down and the
	// group fails over via heartbeat suspicion and leader recovery.
	crashed := cluster.InitialLeader(0)
	cluster.Replica(crashed).Close()

	for i := preCrash; i < total; i++ {
		if _, err := client.Multicast(ctx, []byte(fmt.Sprintf("post-%d", i)), 0, 1); err != nil {
			t.Fatalf("multicast %d (after leader crash): %v", i, err)
		}
	}

	// Every surviving replica must deliver all 12 messages (both groups
	// are destinations of every message). Followers catch up via DELIVER
	// replication; poll briefly.
	var survivors []wbcast.ProcessID
	for pid := wbcast.ProcessID(0); pid < groups*replicas; pid++ {
		if pid != crashed {
			survivors = append(survivors, pid)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		ready := true
		for _, pid := range survivors {
			if len(delivered[pid]) < total {
				ready = false
			}
		}
		mu.Unlock()
		if ready {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			for _, pid := range survivors {
				t.Logf("replica %d delivered %d/%d", pid, len(delivered[pid]), total)
			}
			mu.Unlock()
			t.Fatal("timed out waiting for surviving replicas to deliver everything")
		}
		time.Sleep(10 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	var reference []string
	for _, pid := range survivors {
		ds := delivered[pid]
		if len(ds) != total {
			t.Fatalf("replica %d delivered %d messages, want %d", pid, len(ds), total)
		}
		var seq []string
		for i, d := range ds {
			if i > 0 && !ds[i-1].Before(d) {
				t.Errorf("replica %d: delivery %d not ordered above its predecessor", pid, i)
			}
			seq = append(seq, string(d.Msg.Payload))
		}
		// Every message goes to both groups, so all replicas must observe
		// the identical total order.
		if reference == nil {
			reference = seq
			continue
		}
		for i := range reference {
			if seq[i] != reference[i] {
				t.Fatalf("replica %d diverges from the total order at %d: %q vs %q", pid, i, seq[i], reference[i])
			}
		}
	}

	// The transport-statistics surface: a surviving replica on TCP has
	// encoded and read real frames.
	st := cluster.Replica(survivors[0]).Stats()
	if st.MessagesEncoded == 0 || st.FramesSent == 0 || st.FramesRead == 0 {
		t.Errorf("replica %d stats look empty over TCP: %+v", survivors[0], st)
	}
}

// TestTCPStandaloneReplicasAndClient assembles the same deployment the way
// cmd/wbcast-node does: one NewReplica or NewClient call per process, all on
// one shared TCP transport.
func TestTCPStandaloneReplicasAndClient(t *testing.T) {
	const groups, replicas = 2, 3
	peers := make(map[wbcast.ProcessID]string)
	for pid := wbcast.ProcessID(0); pid <= groups*replicas; pid++ {
		peers[pid] = "127.0.0.1:0"
	}
	cfg := wbcast.Config{
		Groups:    groups,
		Replicas:  replicas,
		Delta:     2 * time.Millisecond,
		Transport: wbcast.TCP("", peers),
	}
	var reps []*wbcast.Replica
	for pid := wbcast.ProcessID(0); pid < groups*replicas; pid++ {
		r, err := wbcast.NewReplica(cfg, pid)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, r)
	}
	defer cfg.Transport.Close()

	sub := reps[0].Deliveries()
	cl, err := wbcast.NewClient(cfg, wbcast.ClientID(cfg, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	want := []string{"a", "b", "c"}
	for _, p := range want {
		if _, err := cl.Multicast(ctx, []byte(p), 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range want {
		select {
		case d := <-sub.C():
			if string(d.Msg.Payload) != p {
				t.Fatalf("delivery %d = %q, want %q", i, d.Msg.Payload, p)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for delivery %d", i)
		}
	}
}

// TestReplicaCloseWithStalledSubscription: closing a replica whose full
// subscription has stalled its delivery path must not deadlock — Close
// releases the subscription before joining the transport's goroutines.
func TestReplicaCloseWithStalledSubscription(t *testing.T) {
	peers := map[wbcast.ProcessID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	cfg := wbcast.Config{Groups: 1, Replicas: 1, Transport: wbcast.TCP("", peers)}
	rep, err := wbcast.NewReplica(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub := rep.Deliveries() // never consumed
	cl, err := wbcast.NewClient(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// More payloads than the subscription holds: the replica fills it and
	// then blocks delivering the rest.
	for i := 0; i < cap(sub.C())+76; i++ {
		if _, _, err := cl.MulticastAsync([]byte("x"), 0); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(sub.C()) < cap(sub.C()) {
		if time.Now().After(deadline) {
			t.Fatalf("subscription holds %d of %d deliveries: the replica never stalled on it", len(sub.C()), cap(sub.C()))
		}
		time.Sleep(10 * time.Millisecond)
	}
	done := make(chan struct{})
	go func() {
		rep.Close()
		cfg.Transport.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Replica.Close deadlocked on a stalled subscription")
	}
}
