package wbcast

import "sync"

// Subscription is a pull-based, lossless stream of one replica's
// deliveries, created by Replica.Deliveries. Deliveries arrive on C in the
// replica's delivery order — increasing (GTS, Sub) — with no gaps: when the
// buffer is full the delivering process waits for the subscriber, so a
// subscriber that stops consuming eventually stalls its replica, which the
// rest of the group treats like a slow (and ultimately crashed) process.
// Close unsubscribes; the replica's own shutdown also closes C. A
// delivered payload is shared and read-only (see Delivery).
//
// C is the buffer: the delivering process sends on it directly, so a
// delivery reaches the subscriber without passing through another goroutine.
type Subscription struct {
	out  chan Delivery // capacity: the subscription's buffer
	quit chan struct{} // closed first by Close: releases a push blocked on out
	once sync.Once
	// send is held by push for its whole duration and by Close while it
	// closes out, so out is closed from the sending side, between sends.
	send sync.Mutex
}

func newSubscription(buffer int) *Subscription {
	return &Subscription{
		out:  make(chan Delivery, buffer),
		quit: make(chan struct{}),
	}
}

// C returns the channel deliveries arrive on. It is closed when the
// subscription is closed (by Close or by the replica shutting down);
// deliveries buffered at that moment remain receivable first.
func (s *Subscription) C() <-chan Delivery { return s.out }

// Close unsubscribes: the replica stops feeding the subscription — a
// delivering process blocked on it is released, its delivery discarded —
// and C is closed. Close is idempotent.
func (s *Subscription) Close() {
	s.once.Do(func() {
		close(s.quit)
		s.send.Lock()
		close(s.out)
		s.send.Unlock()
	})
}

// push hands one delivery to the subscription, waiting for buffer space. It
// is called from the delivering process's goroutine, one producer at a time.
func (s *Subscription) push(d Delivery) {
	s.send.Lock()
	defer s.send.Unlock()
	select {
	case <-s.quit:
		return // out is closed, or about to be
	default:
	}
	select {
	case s.out <- d:
	case <-s.quit:
	}
}
