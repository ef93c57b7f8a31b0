//go:build !unix

package tcpnet

import "net"

// tryWriter has no non-blocking write on this platform: every flush goes to
// the link's writer goroutine.
type tryWriter struct{}

func newTryWriter(net.Conn) tryWriter { return tryWriter{} }

func (*tryWriter) write([]byte) int { return 0 }
