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

func TestDeliveriesDropOldest(t *testing.T) {
	const n = 20
	s := newSubscription(4, DropOldest)
	defer s.Close()
	for i := 1; i <= n; i++ {
		s.push(testDelivery(i))
	}
	got := drain(s, 500*time.Millisecond)
	if len(got) == 0 {
		t.Fatal("no deliveries received")
	}
	for i := 1; i < len(got); i++ {
		if !got[i-1].GTS.Less(got[i].GTS) {
			t.Errorf("deliveries out of order at %d: %v then %v", i, got[i-1].GTS, got[i].GTS)
		}
	}
	// DropOldest keeps the most recent deliveries: the last one pushed
	// must have survived.
	if last := got[len(got)-1].Msg.ID.Seq(); last != n {
		t.Errorf("last delivery is seq %d, want %d", last, n)
	}
	if want := uint64(n - len(got)); s.Dropped() != want {
		t.Errorf("Dropped() = %d, want %d (received %d of %d)", s.Dropped(), want, len(got), n)
	}
	if s.Dropped() == 0 {
		t.Error("expected drops with buffer 4 and 20 unconsumed deliveries")
	}
}

func TestDeliveriesDropNewest(t *testing.T) {
	const n = 20
	s := newSubscription(4, DropNewest)
	defer s.Close()
	for i := 1; i <= n; i++ {
		s.push(testDelivery(i))
	}
	got := drain(s, 500*time.Millisecond)
	// DropNewest keeps an uninterrupted prefix: 1..len(got).
	for i, d := range got {
		if d.Msg.ID.Seq() != uint32(i+1) {
			t.Fatalf("delivery %d is seq %d, want the contiguous prefix (seq %d)", i, d.Msg.ID.Seq(), i+1)
		}
	}
	if want := uint64(n - len(got)); s.Dropped() != want {
		t.Errorf("Dropped() = %d, want %d", s.Dropped(), want)
	}
	if s.Dropped() == 0 {
		t.Error("expected drops with buffer 4 and 20 unconsumed deliveries")
	}
}

func TestDeliveriesBackpressure(t *testing.T) {
	const n = 50
	s := newSubscription(2, Backpressure)
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
			t.Fatalf("delivery %d is seq %d; Backpressure must be lossless and ordered", i, d.Msg.ID.Seq())
		}
	}
	if s.Dropped() != 0 {
		t.Errorf("Dropped() = %d, want 0 under Backpressure", s.Dropped())
	}
}

func TestDeliveriesCloseUnblocksProducer(t *testing.T) {
	s := newSubscription(1, Backpressure)
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
// blocked inside a Backpressure push, and while it keeps pushing afterwards —
// nothing is sent on the closed channel, what was buffered at Close is still
// receivable, in order, and then C reports closed. Run under -race.
func TestDeliveriesCloseRacesBlockedProducer(t *testing.T) {
	for round := 0; round < 200; round++ {
		s := newSubscription(2, Backpressure)
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

// TestDroppedAccountingConservation verifies the Dropped() ledger under
// both lossy policies with a consumer interleaved mid-stream: every pushed
// delivery is either received or counted dropped, never both, never
// neither.
func TestDroppedAccountingConservation(t *testing.T) {
	for _, policy := range []DeliveryPolicy{DropOldest, DropNewest} {
		s := newSubscription(3, policy)
		const phase1, phase2 = 10, 7
		for i := 1; i <= phase1; i++ {
			s.push(testDelivery(i))
		}
		got := drain(s, 20*time.Millisecond)
		// Interleave: more pushes after the consumer drained everything.
		for i := phase1 + 1; i <= phase1+phase2; i++ {
			s.push(testDelivery(i))
		}
		got = append(got, drain(s, 20*time.Millisecond)...)
		s.Close()

		if want := uint64(phase1 + phase2 - len(got)); s.Dropped() != want {
			t.Errorf("%v: Dropped() = %d, want %d (received %d of %d)",
				policy, s.Dropped(), want, len(got), phase1+phase2)
		}
		if s.Dropped() == 0 {
			t.Errorf("%v: expected drops with buffer 3 and %d pushes", policy, phase1)
		}
		seen := make(map[MsgID]bool, len(got))
		for _, d := range got {
			if seen[d.Msg.ID] {
				t.Errorf("%v: %v received twice", policy, d.Msg.ID)
			}
			seen[d.Msg.ID] = true
		}
	}
}

// TestDroppedZeroUnderBackpressure: the lossless policy never counts drops,
// however slow the consumer.
func TestDroppedZeroUnderBackpressure(t *testing.T) {
	s := newSubscription(2, Backpressure)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 20; i++ {
			s.push(testDelivery(i)) // blocks when full
		}
	}()
	var got int
	for got < 20 {
		select {
		case <-s.C():
			got++
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled after %d deliveries", got)
		}
	}
	<-done
	if s.Dropped() != 0 {
		t.Errorf("Backpressure counted %d drops", s.Dropped())
	}
	s.Close()
}
