package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// syncWaiter waits out the injected sync cost. The wait must not hold a
// scheduler P: a blocking nanosleep(2) of 250µs keeps its P until sysmon
// retakes it, and with GOMAXPROCS = 2 and eighteen goroutines syncing that
// made kv-durable bistable (510 or 1290 ops/s, run to run). time.Sleep does
// not hold a P but rounds 250µs up to the 1ms netpoll tick on an idle
// process. A timerfd read parks the goroutine on the netpoller like a
// socket read and wakes it when the kernel timer fires.
type syncWaiter struct {
	fd  uintptr  // kept beside f: File.Fd would switch the descriptor to blocking mode
	f   *os.File // non-blocking, so reads go through the runtime's poller
	buf [8]byte
}

func newSyncWaiter() (*syncWaiter, error) {
	const clockMonotonic, tfdNonblockCloexec = 1, syscall.O_NONBLOCK | syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblockCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &syncWaiter{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// wait blocks the calling goroutine for d. Not safe for concurrent use.
func (w *syncWaiter) wait(d time.Duration) error {
	// struct itimerspec: it_interval (zero: one shot), then it_value.
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := w.f.Read(w.buf[:])
	return err
}

func (w *syncWaiter) close() error { return w.f.Close() }
