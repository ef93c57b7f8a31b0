package wbcast

import (
	"testing"
	"time"

	"wbcast/internal/mcast"
)

func testDelivery(i int) Delivery {
	return Delivery{
		Msg: AppMsg{ID: mcast.MakeMsgID(100, uint32(i)), Dest: NewGroupSet(0)},
		GTS: Timestamp{Time: uint64(i), Group: 0},
	}
}

// drain reads everything currently flowing out of the subscription,
// stopping once the channel stays quiet for the grace period.
func drain(s *Subscription, grace time.Duration) []Delivery {
	var out []Delivery
	for {
		select {
		case d, ok := <-s.C():
			if !ok {
				return out
			}
			out = append(out, d)
		case <-time.After(grace):
			return out
		}
	}
}

func TestDeliveriesBackpressure(t *testing.T) {
	const n = 50
	s := newSubscription(2)
	defer s.Close()
	pushed := make(chan struct{})
	go func() {
		for i := 1; i <= n; i++ {
			s.push(testDelivery(i)) // blocks when the buffer is full
		}
		close(pushed)
	}()
	var got []Delivery
	for len(got) < n {
		select {
		case d := <-s.C():
			got = append(got, d)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d deliveries", len(got))
		}
	}
	<-pushed
	for i, d := range got {
		if d.Msg.ID.Seq() != uint32(i+1) {
			t.Fatalf("delivery %d is seq %d; a subscription must be lossless and ordered", i, d.Msg.ID.Seq())
		}
	}
}

func TestDeliveriesCloseUnblocksProducer(t *testing.T) {
	s := newSubscription(1)
	done := make(chan struct{})
	go func() {
		s.push(testDelivery(1)) // fills the buffer
		s.push(testDelivery(2)) // blocks: nobody consumes
		s.push(testDelivery(3)) // after Close: discarded
		s.push(testDelivery(4))
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	s.Close() // must release the blocked producer
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("producer still blocked after Close")
	}
}

// TestDeliveriesCloseRacesBlockedProducer: Close while the producer is
// blocked inside a push, and while it keeps pushing afterwards —
// nothing is sent on the closed channel, what was buffered at Close is still
// receivable, in order, and then C reports closed. Run under -race.
func TestDeliveriesCloseRacesBlockedProducer(t *testing.T) {
	for round := 0; round < 200; round++ {
		s := newSubscription(2)
		blocked := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 1; i <= 6; i++ {
				if i == 3 {
					close(blocked) // the buffer holds 1 and 2: this push blocks
				}
				s.push(testDelivery(i))
			}
		}()
		<-blocked
		closers := make(chan struct{})
		for c := 0; c < 2; c++ {
			go func() { s.Close(); closers <- struct{}{} }()
		}
		<-closers
		<-closers
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("producer still blocked after Close")
		}
		got := drain(s, 5*time.Second) // returns at the close of C
		if len(got) != 2 {
			t.Fatalf("round %d: received %d deliveries after Close, want the 2 buffered", round, len(got))
		}
		for i, d := range got {
			if d.Msg.ID.Seq() != uint32(i+1) {
				t.Fatalf("round %d: delivery %d is seq %d", round, i, d.Msg.ID.Seq())
			}
		}
	}
}
