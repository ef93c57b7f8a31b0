package wbcast_test

import (
	"context"
	"testing"
	"time"

	"wbcast"
)

// TestNewClientAfterReopen: a durable deployment closed and reopened on its
// stores numbers its new clients past every sender its replicas recovered
// records of. A new client with the old one's process ID would send m(k.1)
// again, and the replica, which has m(k.1) logged, would answer it as a
// retry of the old message: Multicast returns, and nothing is delivered.
func TestNewClientAfterReopen(t *testing.T) {
	cfg := wbcast.Config{Groups: 1, Replicas: 1, Storage: wbcast.DirStorage(t.TempDir())}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := wbcast.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	old, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	oldID, err := old.Multicast(ctx, []byte("old"), 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	re, err := wbcast.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sub := re.Replica(0).Deliveries()
	cl, err := re.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	id, err := cl.Multicast(ctx, []byte("new"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if id == oldID {
		t.Fatalf("the new client reused the old client's message ID %v", id)
	}
	select {
	case d := <-sub.C():
		if d.Msg.ID != id || string(d.Msg.Payload) != "new" {
			t.Fatalf("delivered %v %q, want %v %q", d.Msg.ID, d.Msg.Payload, id, "new")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the new client's message was never delivered")
	}
}
