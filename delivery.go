package wbcast

import (
	"sync"
	"sync/atomic"
)

// DeliveryPolicy decides what a Subscription does when its buffer is full
// and the replica produces another delivery.
type DeliveryPolicy int

const (
	// Backpressure blocks the delivering process until the subscriber
	// frees buffer space. Lossless; a subscriber that stops consuming
	// eventually stalls its replica, which the rest of the group treats
	// like a slow (and ultimately crashed) process.
	Backpressure DeliveryPolicy = iota
	// DropOldest discards the oldest buffered delivery to make room. The
	// subscriber always sees the most recent deliveries; drops are counted
	// by Subscription.Dropped.
	DropOldest
	// DropNewest discards the incoming delivery when the buffer is full.
	// The subscriber keeps an uninterrupted prefix; drops are counted by
	// Subscription.Dropped.
	DropNewest
)

// String names the policy for logs and test output.
func (p DeliveryPolicy) String() string {
	switch p {
	case Backpressure:
		return "backpressure"
	case DropOldest:
		return "drop-oldest"
	case DropNewest:
		return "drop-newest"
	default:
		return "DeliveryPolicy(?)"
	}
}

// Subscription is a pull-based stream of one replica's deliveries, created
// by Replica.Deliveries or Replica.Subscribe. Deliveries arrive on C in the
// replica's delivery order — increasing (GTS, Sub) — buffered up to the
// subscription's capacity and handled per its DeliveryPolicy beyond that.
// Close unsubscribes; the replica's own shutdown also closes C.
//
// C is the buffer: the delivering process sends on it directly, so a
// delivery reaches the subscriber without passing through another goroutine.
type Subscription struct {
	policy  DeliveryPolicy
	out     chan Delivery // capacity: the subscription's buffer
	quit    chan struct{} // closed first by Close: releases a push blocked on out
	once    sync.Once
	dropped atomic.Uint64
	// send is held by push for its whole duration and by Close while it
	// closes out, so out is closed from the sending side, between sends.
	send sync.Mutex
}

func newSubscription(buffer int, policy DeliveryPolicy) *Subscription {
	return &Subscription{
		policy: policy,
		out:    make(chan Delivery, max(buffer, 1)),
		quit:   make(chan struct{}),
	}
}

// C returns the channel deliveries arrive on. It is closed when the
// subscription is closed (by Close or by the replica shutting down);
// deliveries buffered at that moment remain receivable first.
func (s *Subscription) C() <-chan Delivery { return s.out }

// Dropped returns how many deliveries this subscription has discarded
// under the DropOldest/DropNewest policies. Always zero for Backpressure.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close unsubscribes: the replica stops feeding the subscription — a
// delivering process blocked on it under Backpressure is released, its
// delivery discarded — and C is closed. Close is idempotent.
func (s *Subscription) Close() {
	s.once.Do(func() {
		close(s.quit)
		s.send.Lock()
		close(s.out)
		s.send.Unlock()
	})
}

// push hands one delivery to the subscription, applying the policy. It is
// called from the delivering process's goroutine, one producer at a time.
func (s *Subscription) push(d Delivery) {
	s.send.Lock()
	defer s.send.Unlock()
	select {
	case <-s.quit:
		return // out is closed, or about to be
	default:
	}
	switch s.policy {
	case Backpressure:
		select {
		case s.out <- d:
		case <-s.quit:
		}
	case DropNewest:
		select {
		case s.out <- d:
		default:
			s.dropped.Add(1)
		}
	case DropOldest:
		for {
			select {
			case s.out <- d:
				return
			default:
			}
			// Full: make room by taking the oldest, unless the subscriber
			// just did. The only sender is here, so the retry terminates.
			select {
			case <-s.out:
				s.dropped.Add(1)
			default:
			}
		}
	}
}
