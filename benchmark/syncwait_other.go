//go:build !linux

package main

import "time"

// syncWaiter waits out the injected sync cost; without timerfd it falls
// back to time.Sleep, which rounds short waits up to the netpoll tick.
type syncWaiter struct{}

func newSyncWaiter() (*syncWaiter, error) { return &syncWaiter{}, nil }

func (w *syncWaiter) wait(d time.Duration) error { time.Sleep(d); return nil }

func (w *syncWaiter) close() error { return nil }
