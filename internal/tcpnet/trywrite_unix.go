//go:build unix

package tcpnet

import (
	"net"
	"syscall"

	"wbcast/internal/obs"
)

// tryWriter offers bytes to a connection's socket without waiting for it:
// one write(2) on the descriptor, which the runtime keeps non-blocking, from
// an f that tells RawConn.Write it is done whatever the result, counted in
// writes. The zero value takes nothing.
type tryWriter struct {
	raw    syscall.RawConn
	writes *obs.Counter
	f      func(fd uintptr) bool // built once, so a write allocates nothing
	buf    []byte
	n      int
}

func newTryWriter(c net.Conn, writes *obs.Counter) tryWriter {
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return tryWriter{}
	}
	raw, _ := tc.SyscallConn() // fails on a closed connection only: takes nothing then
	return tryWriter{raw: raw, writes: writes}
}

// write returns how many bytes of b the socket took at once: fewer than
// len(b), or none, when its buffer is full — or when the connection is
// broken, which the blocking write that follows will find out.
func (w *tryWriter) write(b []byte) int {
	if w.raw == nil {
		return 0
	}
	if w.f == nil {
		w.f = func(fd uintptr) bool {
			w.writes.Inc()
			w.n, _ = syscall.Write(int(fd), w.buf)
			return true
		}
	}
	w.buf, w.n = b, 0
	_ = w.raw.Write(w.f) // fails on a closed connection only
	w.buf = nil
	return max(w.n, 0)
}
